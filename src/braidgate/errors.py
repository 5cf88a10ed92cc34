"""Exception types shared across the package."""


class InputError(ValueError):
    """A caller-supplied value violates a precondition (bad shape, range, schema)."""


class ResourceLimitError(RuntimeError):
    """An operation would exceed one of the two size caps and is refused
    before its large allocation: ``tensorops.TENSOR_SIZE_CAP`` entries for
    every array sized from the arguments, and ``segre.GENERATOR_CAP``
    generators for the separability scan and the generator listing."""

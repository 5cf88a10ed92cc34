"""Exception types shared across the package."""


class InputError(ValueError):
    """A caller-supplied value violates a precondition (bad shape, range, schema)."""


class ResourceLimitError(RuntimeError):
    """An operation would exceed one of the size caps, each a module constant
    (``REP_DIM_CAP``, ``KRON_DIM_CAP``, ``TENSOR_SIZE_CAP``, ``GENERATOR_CAP``),
    and is refused before its large allocation."""

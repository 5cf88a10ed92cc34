"""Multi-index arithmetic, coefficient tensors, and small dense linear algebra.

Conventions used throughout the package:

* multi-index digits are 1-based: a valid digit for slot ``j`` lies in
  ``1..dims[j]``;
* linear (lex) indices are 1-based with the FIRST digit most significant,
  which is exactly numpy's C order on the reshaped array;
* coefficient tensors and state vectors are stored flat in that lex order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError

# Dense Kronecker products beyond this row/column count are refused.
KRON_DIM_CAP = 10_000

# Tensors drawn or multiplied out beyond this many entries (256 MiB of complex128) are refused.
TENSOR_SIZE_CAP = 2**24

# numpy's limit on an array's axes: a tensor of more slots has no array form.
_MAX_AXES = 64


def _as_int(value, name: str) -> int:
    """An integer argument as an int: a value that ``int()`` rejects or changes
    is an :class:`InputError`. Decimal strings such as ``"3"`` (the CLI's) parse."""
    try:
        out = int(value)
        if isinstance(value, str) or out == value:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{name} must be an integer, got {value!r}")


def _as_ints(values, name: str) -> tuple[int, ...]:
    """A sequence (not a str or bytes) of integers as a tuple of ints, see :func:`_as_int`."""
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError
        return tuple(_as_int(v, name) for v in values)
    except (TypeError, InputError) as exc:
        raise InputError(f"{name} must be a sequence of integers, got {values!r}") from exc


def _as_dims(dims) -> tuple[int, ...]:
    out = _as_ints(dims, "dims")
    if not out or any(d < 1 for d in out):
        raise InputError(f"dims must be non-empty and positive, got {out}")
    return out


def _check_size(dims: tuple[int, ...]) -> None:
    """Refuse a tensor of ``dims`` over ``TENSOR_SIZE_CAP`` entries, before it is built."""
    if math.prod(dims) > TENSOR_SIZE_CAP:
        raise ResourceLimitError(f"tensor of dims {dims} exceeds cap {TENSOR_SIZE_CAP} entries")


def _as_array(value, name: str, ndim: int | None = None) -> np.ndarray:
    """A caller's array as a finite C-ordered complex128 array of ``ndim`` axes, else InputError."""
    try:
        arr = np.asarray(value, dtype=np.complex128, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be an array of numbers") from exc
    if ndim is not None and arr.ndim != ndim:
        raise InputError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} entries contain non-finite values")
    return arr


def _hold(obj, fields):
    """Set the fields of a frozen dataclass ``obj`` from ``fields``, a dict of
    every declared field by name, and return ``obj``. Each array among them
    is held immutable. One that already is, a C-contiguous read-only array
    over a ``bytes`` object, is kept as it is; any other is copied to an
    array of its shape and dtype over a new ``bytes`` object of its data.
    numpy cannot make such an array writeable (``setflags(write=True)``
    raises ``ValueError``) and its ``bytes`` owner cannot be written, so no
    write reaches a held array. An array that numpy unpickled over ``bytes``
    is writeable, so it is copied.

    Each ``__post_init__`` ends in it once its checks pass, and hands it
    views of the caller's arrays, which it copies: a caller's read-only array
    over ``bytes`` can share its memory with a writeable one that numpy
    unpickled, so no write to the caller's array reaches the result. The
    types that hold arrays take it as ``__setstate__``, so pickle and copy
    restore their fields immutable, and ``copy.copy`` shares the original's
    arrays."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray) and not (
            type(value.base) is bytes and value.flags.c_contiguous and not value.flags.writeable
        ):
            value = np.ndarray(value.shape, value.dtype, value.tobytes())
        object.__setattr__(obj, name, value)
    return obj


def _trusted(kind: type, **fields):
    """A frozen ``kind`` from fields already checked, without its constructor's
    checks: :func:`_hold` on a bare instance, so an array already held is
    shared and any other is an immutable copy."""
    return _hold(object.__new__(kind), fields)


def _check_type(value, kind: type, name: str) -> None:
    if not isinstance(value, kind):
        raise InputError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _as_tol(tol) -> float:
    """A tolerance as a float: finite and above zero, else :class:`InputError`."""
    try:
        value = float(tol)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise InputError(f"tolerance must be finite and positive, got {tol}")
    return value


def _check_digits(digits, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Check a 1-based multi-index against ``dims`` and return it as a tuple.

    ``dims`` must come from :func:`_as_dims`: callers check it once per call.
    """
    digits = _as_ints(digits, "multi-index")
    if len(digits) != len(dims):
        raise InputError(f"multi-index {digits} has {len(digits)} digits, expected {len(dims)}")
    for j, (d, n) in enumerate(zip(digits, dims), start=1):
        if not 1 <= d <= n:
            raise InputError(f"digit {d} at slot {j} outside 1..{n}")
    return digits


def _flat_index(digits, dims: tuple[int, ...]) -> int:
    """0-based lex rank of a multi-index, for ``dims`` from :func:`_as_dims`."""
    r = 0
    for d, n in zip(_check_digits(digits, dims), dims):
        r = r * n + (d - 1)
    return r


def lex_index(digits, dims) -> int:
    """1-based lex rank of a multi-index, first digit most significant."""
    return _flat_index(digits, _as_dims(dims)) + 1


def _flat_entries(dims, entries) -> tuple[tuple[int, ...], np.ndarray]:
    """A tensor's ``dims`` and ``entries`` checked, the entries a flat view,
    which :func:`_hold` copies: the constructors' check of tensors and states."""
    dims = _as_dims(dims)
    entries = _as_array(entries, "tensor").reshape(-1)
    if entries.size != math.prod(dims):
        raise InputError(
            f"{entries.size} entries incompatible with dims {dims} "
            f"(expected {math.prod(dims)})"
        )
    return dims, entries


@dataclass(frozen=True, eq=False)
class CoefficientTensor:
    """An m-way complex coefficient array stored flat in lex order.

    ``entries[lex_index(k, dims) - 1]`` is the coefficient at multi-index
    ``k``. Entries must be finite; they are held as an immutable copy of the
    caller's array (see :func:`_hold`), which no caller can make writeable.

    The entries cannot change, so :mod:`braidgate.segre` remembers the scan
    of a tensor's first separability verdict, apart from the tensor, while
    the tensor lives; later verdicts and certificates read it at any
    tolerance (see :func:`braidgate.segre.is_fully_separable`). A tensor
    holds its declared fields only, and so do its copies.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims, entries = _flat_entries(self.dims, self.entries)
        _hold(self, {"dims": dims, "entries": entries})

    __setstate__ = _hold

    @classmethod
    def from_array(cls, arr) -> "CoefficientTensor":
        arr = _as_array(arr, "tensor")
        return _trusted(cls, dims=_as_dims(arr.shape), entries=arr.reshape(-1))

    @property
    def size(self) -> int:
        return self.entries.size

    @property
    def n_slots(self) -> int:
        return len(self.dims)

    def as_array(self) -> np.ndarray:
        """The entries as an array of ``dims``; more than 64 slots (numpy's
        limit on axes) is an :class:`InputError`."""
        if self.n_slots > _MAX_AXES:
            raise InputError(f"a tensor of {self.n_slots} slots has no array form "
                             f"(at most {_MAX_AXES} axes)")
        return self.entries.reshape(self.dims)

    def at(self, digits) -> complex:
        """Entry at a 1-based multi-index, read from the flat entries."""
        return complex(self.entries[_flat_index(digits, self.dims)])


def random_phases(dims, seed: int) -> CoefficientTensor:
    """Unimodular tensor exp(i*theta) with seeded, reproducible angles.

    All randomness flows through the explicit seed: the same seed yields an
    identical tensor on every run (fixed generator algorithm).
    """
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise InputError("seed must be a non-negative integer")
    dims = _as_dims(dims)
    _check_size(dims)
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, math.prod(dims))
    return _trusted(CoefficientTensor, dims=dims, entries=np.exp(1j * theta))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure-state amplitudes over a tensor-product basis, flat in lex order."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        # the amplitudes pass the coefficient tensor's dims and values check
        dims, amplitudes = _flat_entries(self.dims, self.amplitudes)
        _hold(self, {"dims": dims, "amplitudes": amplitudes})

    __setstate__ = _hold

    def to_tensor(self) -> CoefficientTensor:
        return _trusted(CoefficientTensor, dims=self.dims, entries=self.amplitudes)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two dense matrices, size-capped; overflow is an input error."""
    a = _as_array(a, "left factor", 2)
    b = _as_array(b, "right factor", 2)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > KRON_DIM_CAP or cols > KRON_DIM_CAP:
        raise ResourceLimitError(f"kron result {rows}x{cols} exceeds cap {KRON_DIM_CAP}x{KRON_DIM_CAP}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.kron(a, b)
    if not np.isfinite(out).all():
        raise InputError("the Kronecker product overflows")
    return out


def is_unitary(a, tol: float = 1e-12) -> tuple[bool, float]:
    """Whether ``a`` is unitary within ``tol``; returns (flag, residual).

    The residual is the max-abs entry of ``a^H a - I``; overflow there is an input error.
    """
    a = _as_array(a, "matrix", 2)
    if a.shape[0] != a.shape[1] or not a.size:
        raise InputError(f"unitarity check needs a nonempty square matrix, got {a.shape}")
    tol = _as_tol(tol)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))
    if not math.isfinite(residual):
        raise InputError("the unitarity product of the matrix overflows")
    return residual <= tol, residual

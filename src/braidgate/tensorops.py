"""Multi-index arithmetic, coefficient tensors, small dense linear algebra,
and the one cache of structure that depends on shape alone.

Conventions used throughout the package:

* multi-index digits are 1-based: a valid digit for slot ``j`` lies in
  ``1..dims[j]``;
* linear (lex) indices are 1-based with the FIRST digit most significant,
  which is exactly numpy's C order on the reshaped array;
* coefficient tensors and state vectors are stored flat in that lex order.

Generator tables (:mod:`braidgate.segre`), Yang-Baxter walks
(:mod:`braidgate.braid`) and gate patterns (:mod:`braidgate.entangler`) are
built by functions decorated ``@_cached``, and kept in one
:class:`_TableCache` within ``TABLE_CACHE_BYTES`` in all, in the order they
were built; the oldest go first.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError

# Every array sized from the arguments holds at most this many entries (256 MiB
# of complex128); a larger one is refused by _check_entries before it is built.
TENSOR_SIZE_CAP = 2**24

# numpy's limit on an array's axes: a tensor of more slots has no array form.
_MAX_AXES = 64

# Bytes the cached structure (generator tables, Yang-Baxter walks and gate
# patterns) may hold in all, array headers included. A generator table at
# segre.GENERATOR_CAP takes 32 MiB, in four index rows (two-row tables are
# those of shapes of at most 256 entries, far below the cap), so the newest
# table is always kept.
TABLE_CACHE_BYTES = 64 * 2**20

# Python and numpy take a bool as the number 0 or 1, but it is never a count,
# digit, seed or tolerance.
_BOOLS = (bool, np.bool_)


def _as_int(value, name: str) -> int:
    """An integer argument as an int: a bool, or a value that ``int()`` rejects
    or changes, is an :class:`InputError`. Decimal strings such as ``"3"``
    (the CLI's) parse."""
    try:
        out = int(value)
        if isinstance(value, str) or (out == value and not isinstance(value, _BOOLS)):
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


def _check_entries(count: int, what: str, *args) -> None:
    """Refuse ``what.format(*args)``, an array of ``count`` entries, over
    ``TENSOR_SIZE_CAP`` entries with :class:`ResourceLimitError`, before
    anything is allocated; the message is formatted only then. Every refusal
    sized in entries is this one."""
    if count > TENSOR_SIZE_CAP:
        raise ResourceLimitError(f"{what.format(*args)} exceeds cap {TENSOR_SIZE_CAP} entries")


def _to_complex(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.complex128, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be an array of numbers") from exc


def _as_array(value, name: str, ndim: int | None = None, check=None) -> np.ndarray:
    """A caller's array as a finite C-ordered complex128 array, else
    :class:`InputError`. Its shape is checked before it is copied: the
    number of axes against ``ndim``, then ``check(shape)``, which raises on a
    shape the caller refuses, then ``TENSOR_SIZE_CAP`` entries. A value that
    is not an ndarray, such as a nested list, is already the caller's
    memory: it is converted first, then checked the same way, and so is
    still converted once."""
    arr = value if isinstance(value, np.ndarray) else _to_complex(value, name)
    if ndim is not None and arr.ndim != ndim:
        raise InputError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional, got {arr.shape}")
    if check is not None:
        check(arr.shape)
    _check_entries(arr.size, "{} of shape {}", name, arr.shape)
    arr = _to_complex(arr, name)
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


class _TableCache:
    """Read-only arrays that depend on structure alone, kept by ``(build,
    key)`` while they hold at most ``TABLE_CACHE_BYTES`` in all, headers and
    data; the oldest built go first. One larger than the budget is returned,
    and neither kept nor makes room. A hit takes no lock; a miss builds under
    the lock, so each kept key is built once and misses wait for one another.
    There is one, ``_tables``, which the builders take as ``@_cached``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.tables: dict = {}
        self.nbytes = 0

    @staticmethod
    def _bytes(table: np.ndarray) -> int:
        # sys.getsizeof counts an array's data only when the array owns it,
        # which an array over bytes does not
        return sys.getsizeof(table) + (0 if table.flags.owndata else table.nbytes)

    def __call__(self, build, key) -> np.ndarray:
        # Every key is a builder with an int, a tuple of ints, or an int and
        # bytes, which CPython hashes and compares in C without running
        # Python code, so this read cannot interleave with a write made
        # under the lock.
        table = self.tables.get((build, key))
        if table is None:
            with self._lock:
                table = self.tables.get((build, key))
                if table is None:
                    table = build(key)
                    if self._bytes(table) <= TABLE_CACHE_BYTES:
                        self.tables[(build, key)] = table
                        self.nbytes += self._bytes(table)
                        while self.nbytes > TABLE_CACHE_BYTES:
                            self.nbytes -= self._bytes(self.tables.pop(next(iter(self.tables))))
        return table

    def clear(self) -> None:
        with self._lock:
            self.tables.clear()
            self.nbytes = 0


_tables = _TableCache()


def _cached(build):
    """``build``, a builder of read-only arrays from one key, kept in ``_tables``."""
    return functools.wraps(build)(functools.partial(_tables, build))


def _check_type(value, kind: type, name: str) -> None:
    if not isinstance(value, kind):
        raise InputError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _as_tol(tol) -> float:
    """A tolerance as a float: finite and above zero, and not a bool, else
    :class:`InputError`."""
    try:
        value = math.nan if isinstance(tol, _BOOLS) else float(tol)
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
    ``k``. Entries must be finite, at most ``TENSOR_SIZE_CAP`` of them; they
    are held as an immutable copy of the caller's array (see :func:`_hold`),
    which no caller can make writeable.

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
    _check_entries(math.prod(dims), "tensor of dims {}", dims)
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
    """Kronecker product of two dense matrices; a result over ``TENSOR_SIZE_CAP``
    entries is refused, and overflow is an input error."""
    a = _as_array(a, "left factor", 2)
    b = _as_array(b, "right factor", 2)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    _check_entries(rows * cols, "kron result {}x{}", rows, cols)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.kron(a, b)
    if not np.isfinite(out).all():
        raise InputError("the Kronecker product overflows")
    return out


def _check_square(shape: tuple[int, int]) -> None:
    if shape[0] != shape[1] or not shape[0]:
        raise InputError(f"unitarity check needs a nonempty square matrix, got {shape}")


def is_unitary(a, tol: float = 1e-12) -> tuple[bool, float]:
    """Whether ``a`` is unitary within ``tol``; returns (flag, residual).

    The residual is the max-abs entry of ``a^H a - I``; overflow there is an
    input error. An ``n * n`` above ``TENSOR_SIZE_CAP`` is a
    :class:`ResourceLimitError`, refused before an array input is copied.
    """
    a = _as_array(a, "matrix", 2, _check_square)
    tol = _as_tol(tol)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))
    if not math.isfinite(residual):
        raise InputError("the unitarity product of the matrix overflows")
    return residual <= tol, residual

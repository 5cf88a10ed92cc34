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


def _as_dims(dims) -> tuple[int, ...]:
    try:
        out = tuple(int(d) for d in dims)
    except (TypeError, ValueError) as exc:
        raise InputError(f"dims must be a sequence of integers, got {dims!r}") from exc
    if not out or any(d < 1 for d in out):
        raise InputError(f"dims must be non-empty and positive, got {out}")
    return out


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _as_tol(tol) -> float:
    """A tolerance as a float: finite and above zero, else :class:`InputError`."""
    if not 0.0 < float(tol) < math.inf:
        raise InputError(f"tolerance must be finite and positive, got {tol}")
    return float(tol)


def _check_digits(digits, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Check a 1-based multi-index against ``dims`` and return it as a tuple.

    ``dims`` must come from :func:`_as_dims`: callers check it once per call.
    """
    digits = tuple(int(d) for d in digits)
    if len(digits) != len(dims):
        raise InputError(f"multi-index {digits} has {len(digits)} digits, expected {len(dims)}")
    for j, (d, n) in enumerate(zip(digits, dims), start=1):
        if not 1 <= d <= n:
            raise InputError(f"digit {d} at slot {j} outside 1..{n}")
    return digits


def lex_index(digits, dims) -> int:
    """1-based lex rank of a multi-index, first digit most significant."""
    dims = _as_dims(dims)
    r = 0
    for d, n in zip(_check_digits(digits, dims), dims):
        r = r * n + (d - 1)
    return r + 1


def multi_index(r: int, dims) -> tuple[int, ...]:
    """Inverse of :func:`lex_index`."""
    dims = _as_dims(dims)
    total = math.prod(dims)
    r = int(r)
    if not 1 <= r <= total:
        raise InputError(f"linear index {r} outside 1..{total}")
    rem = r - 1
    digits = []
    for n in reversed(dims):
        rem, d = divmod(rem, n)
        digits.append(d + 1)
    return tuple(reversed(digits))


def digit_complement(digits, dims) -> tuple[int, ...]:
    """Reflect every digit: ``k_j -> dims[j] + 1 - k_j``."""
    dims = _as_dims(dims)
    return tuple(n + 1 - d for d, n in zip(_check_digits(digits, dims), dims))


@dataclass(frozen=True, eq=False)
class CoefficientTensor:
    """An m-way complex coefficient array stored flat in lex order.

    ``entries[lex_index(k, dims) - 1]`` is the coefficient at multi-index
    ``k``. Entries must be finite.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        entries = np.ascontiguousarray(self.entries, dtype=np.complex128).reshape(-1)
        if entries.size != math.prod(dims):
            raise InputError(
                f"{entries.size} entries incompatible with dims {dims} "
                f"(expected {math.prod(dims)})"
            )
        if not np.isfinite(entries).all():
            raise InputError("tensor entries contain non-finite values")
        entries.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_array(cls, arr) -> "CoefficientTensor":
        arr = np.asarray(arr, dtype=np.complex128)
        return cls(arr.shape, arr.reshape(-1))

    @property
    def size(self) -> int:
        return self.entries.size

    @property
    def n_slots(self) -> int:
        return len(self.dims)

    def as_array(self) -> np.ndarray:
        return self.entries.reshape(self.dims)

    def at(self, digits) -> complex:
        """Entry at a 1-based multi-index."""
        return complex(self.as_array()[tuple(d - 1 for d in _check_digits(digits, self.dims))])


def random_phases(dims, seed: int) -> CoefficientTensor:
    """Unimodular tensor exp(i*theta) with seeded, reproducible angles.

    All randomness flows through the explicit seed: the same seed yields an
    identical tensor on every run (fixed generator algorithm).
    """
    seed = int(seed)
    if seed < 0:
        raise InputError("seed must be a non-negative integer")
    dims = _as_dims(dims)
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, math.prod(dims))
    return CoefficientTensor(dims, np.exp(1j * theta))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure-state amplitudes over a tensor-product basis, flat in lex order."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        # the amplitudes pass the coefficient tensor's dims and values check
        tensor = CoefficientTensor(self.dims, self.amplitudes)
        object.__setattr__(self, "dims", tensor.dims)
        object.__setattr__(self, "amplitudes", tensor.entries)

    def to_tensor(self) -> CoefficientTensor:
        return CoefficientTensor(self.dims, self.amplitudes)


def uniform_product_state(dims) -> StateVector:
    """The unnormalized product state with every amplitude equal to 1."""
    dims = _as_dims(dims)
    return StateVector(dims, np.ones(math.prod(dims), dtype=np.complex128))


def kron(a, b, max_dim: int = KRON_DIM_CAP) -> np.ndarray:
    """Kronecker product of two dense matrices, size-capped."""
    a = _as_matrix(a, "left factor")
    b = _as_matrix(b, "right factor")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > max_dim or cols > max_dim:
        raise ResourceLimitError(f"kron result {rows}x{cols} exceeds cap {max_dim}x{max_dim}")
    return np.kron(a, b)


def is_unitary(a, tol: float = 1e-12) -> tuple[bool, float]:
    """Whether ``a`` is unitary within ``tol``; returns (flag, residual).

    The residual is the max-abs entry of ``a^H a - I``.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"unitarity check needs a square matrix, got {a.shape}")
    tol = _as_tol(tol)
    residual = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))
    return residual <= tol, residual


def flatten_mode(tensor: CoefficientTensor, slot: int) -> np.ndarray:
    """Mode-``slot`` matricization: rows are the slot digit, columns the
    remaining digits in lex order (slot is 1-based)."""
    if not 1 <= slot <= tensor.n_slots:
        raise InputError(f"slot {slot} outside 1..{tensor.n_slots}")
    arr = tensor.as_array()
    return np.moveaxis(arr, slot - 1, 0).reshape(tensor.dims[slot - 1], -1)

"""Monomial gate entanglers built from a coefficient tensor.

For m subsystems of equal dimension N the entangler R is an N^m x N^m
monomial matrix: rows 1 and n (1-based, n = N^m) keep their diagonal entry,
every middle row r has its single nonzero at column n+1-r. Two fill
conventions exist for the middle antidiagonal and both are supported:

* ``paper-matrix``: row r holds the coefficient with linear index n+1-r,
  i.e. the antidiagonal lists the coefficients in reverse lex order;
* ``theorem``: row r holds coefficient r, so R applied to the uniform
  product state returns the coefficient vector bit-for-bit (signs of zero
  included), and the gate is entangling exactly when the coefficient tensor
  is entangled.

The two agree on the pattern and on the corner values but order the middle
coefficients oppositely, so they genuinely differ for N >= 3: a rank-1
coefficient tensor can have an entangled ``paper-matrix`` image (see
:func:`certify_entangler`).

R's row values are at once the output state, the phase gate's diagonal and
the tensor whose separability decides entangling: each question reads its
answer from them, and only :func:`construct_entangler` builds R itself.
Results built here from parts already checked (R, the pattern, the phase
gate, the state and the tensor of R's values) skip the public constructors'
checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .segre import DEFAULT_SEPARABILITY_TOL, SeparabilityVerdict, _verdict
from .tensorops import TENSOR_SIZE_CAP, CoefficientTensor, StateVector, _as_array, _as_int
from .tensorops import _as_ints, _as_tol, _check_type, _hold, _trusted


class Convention(str, enum.Enum):
    """Antidiagonal fill order for the entangler's middle rows."""

    PAPER_MATRIX = "paper-matrix"
    THEOREM = "theorem"


def as_convention(value) -> Convention:
    try:
        return Convention(value)
    except ValueError as exc:
        names = ", ".join(c.value for c in Convention)
        raise InputError(f"unknown convention {value!r} (expected one of: {names})") from exc


@dataclass(frozen=True, eq=False)
class MonomialGateMatrix:
    """Square matrix with at most one nonzero per row and per column.

    Stored sparsely: row r holds ``value_of_row[r]``, which may be zero, at the
    0-based column ``col_of_row[r]``; ``col_of_row`` must be a permutation.
    Both are held as immutable copies of the caller's arrays (see
    :func:`braidgate.tensorops._hold`).
    """

    n: int
    col_of_row: np.ndarray
    value_of_row: np.ndarray

    def __post_init__(self):
        n = _as_int(self.n, "n")
        cols = self.col_of_row
        if not (isinstance(cols, np.ndarray) and cols.dtype.kind in "iu"):
            cols = np.array(_as_ints(cols, "col_of_row"))
        cols = cols.astype(np.int64, copy=False)
        vals = _as_array(self.value_of_row, "value_of_row")
        if n < 1 or cols.shape != (n,) or vals.shape != (n,):
            raise InputError("column and value arrays must both have length n >= 1")
        if not np.array_equal(np.sort(cols), np.arange(n)):
            raise InputError("col_of_row is not a permutation of 0..n-1")
        # views, so that _hold copies the caller's arrays
        _hold(self, {"n": n, "col_of_row": cols.view(), "value_of_row": vals.view()})

    __setstate__ = _hold

    @property
    def is_diagonal(self) -> bool:
        return bool(np.array_equal(self.col_of_row, np.arange(self.n)))

    def nonzeros(self) -> list[tuple[int, int, complex]]:
        """(row, col, value) triples, 1-based, in row order: one per row, zero
        values included."""
        return [
            (r + 1, int(self.col_of_row[r]) + 1, complex(self.value_of_row[r]))
            for r in range(self.n)
        ]

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        out[np.arange(self.n), self.col_of_row] = self.value_of_row
        return out


def _entangler_pattern(n: int) -> np.ndarray:
    cols = np.arange(n - 1, -1, -1, dtype=np.int64)
    cols[0] = 0
    cols[n - 1] = n - 1
    return cols


def _row_values(tensor: CoefficientTensor, convention: Convention) -> np.ndarray:
    """R's row values for a checked ``convention``, without building R:
    :func:`construct_entangler`'s checks and fill rule. Under ``theorem``
    they are the entries themselves; under ``paper-matrix`` the entries
    reversed, with the first and last kept in place."""
    _check_type(tensor, CoefficientTensor, "tensor")
    if len(set(tensor.dims)) > 1:
        raise InputError(f"entangler construction needs uniform dims, got {tensor.dims}")
    n = tensor.size
    if n < 2:
        raise InputError("entangler needs at least 2 basis states")
    if convention is Convention.THEOREM:
        return tensor.entries
    values = tensor.entries[::-1].copy()
    values[0] = tensor.entries[0]
    values[n - 1] = tensor.entries[n - 1]
    return values


def construct_entangler(
    tensor: CoefficientTensor, convention=Convention.THEOREM
) -> MonomialGateMatrix:
    """Build the monomial entangler for a uniform-dimension tensor.

    Rows 1 and n are diagonal and carry the first and last coefficient;
    middle row r sits at column n+1-r and carries the coefficient selected
    by ``convention`` (reverse lex order for ``paper-matrix``, forward for
    ``theorem``).
    """
    values = _row_values(tensor, as_convention(convention))
    n = values.size
    return _trusted(MonomialGateMatrix, n=n, col_of_row=_entangler_pattern(n), value_of_row=values)


def pattern_permutation(n: int) -> MonomialGateMatrix:
    """The swap-pattern permutation: rows 1 and n fixed, middle rows reversed.

    An n above ``TENSOR_SIZE_CAP``, the size of the largest tensor's gate, is
    a :class:`ResourceLimitError`, refused before anything is allocated."""
    n = _as_int(n, "n")
    if n < 2:
        raise InputError("pattern permutation needs n >= 2")
    if n > TENSOR_SIZE_CAP:
        raise ResourceLimitError(f"pattern permutation of size {n} exceeds cap {TENSOR_SIZE_CAP}")
    return _trusted(MonomialGateMatrix, n=n, col_of_row=_entangler_pattern(n),
                    value_of_row=np.ones(n, dtype=np.complex128))


def phase_gate(tensor: CoefficientTensor, convention=Convention.THEOREM) -> MonomialGateMatrix:
    """Diagonal gate R @ P: P is R's own pattern and an involution, so the
    diagonal is R's row values, bit for bit. Neither R nor the product is
    formed."""
    values = _row_values(tensor, as_convention(convention))
    return _trusted(MonomialGateMatrix, n=values.size,
                    col_of_row=np.arange(values.size, dtype=np.int64), value_of_row=values)


def apply_entangler(tensor: CoefficientTensor, convention=Convention.THEOREM) -> StateVector:
    """Apply the entangler to the all-ones product state.

    Each row of R has one nonzero and every input amplitude is 1, so the
    amplitudes are R's row values, bit for bit (signs of zero included):
    the coefficient list under ``theorem``; under ``paper-matrix`` the
    middle amplitudes appear at the digit-complemented positions instead.
    R itself is not built.
    """
    values = _row_values(tensor, as_convention(convention))
    return _trusted(StateVector, dims=tensor.dims, amplitudes=values)


@dataclass(frozen=True)
class EntanglerReport:
    """Independent facts about one entangler: whether it is unitary, and
    ``entangling``, the verdict on R applied to the all-ones product state.
    That is one input, not the entangling power of Zanardi, Zalka and Faoro
    (Phys. Rev. A 62, 030301), an average over product inputs, which
    braidgate does not compute."""

    convention: Convention
    unitary: bool
    unitarity_residual: float
    entangling: SeparabilityVerdict
    coefficient_verdict: SeparabilityVerdict


def certify_entangler(
    tensor: CoefficientTensor,
    convention=Convention.THEOREM,
    unitary_tol: float = 1e-12,
    separability_tol: float = DEFAULT_SEPARABILITY_TOL,
) -> EntanglerReport:
    """Certify the entangler's unitarity and whether it entangles the
    all-ones product state (see :class:`EntanglerReport`).

    Only the gate's row values are read, and R is not built. A monomial
    matrix is unitary exactly when every value is unimodular, so the
    unitarity residual is ``max | |c|^2 - 1 |`` over the gate's values. The
    entangling verdict tests the output state, whose amplitudes are the
    gate's values; the coefficient verdict tests the input tensor directly.
    Under ``theorem`` the values are the coefficients bit for bit, so one
    scan serves both (``entangling is coefficient_verdict``); under
    ``paper-matrix`` the values get their own scan, and the verdicts can
    diverge. The coefficient scan is remembered while the tensor lives
    (see :func:`braidgate.segre.is_fully_separable`), so certifying one
    tensor under both conventions, or at several tolerances, scans its
    coefficients once.
    Both tolerances must be finite and positive.
    """
    convention = as_convention(convention)
    unitary_tol, separability_tol = _as_tol(unitary_tol), _as_tol(separability_tol)
    values = _row_values(tensor, convention)
    with np.errstate(over="ignore"):  # a value too large to square is inf away from 1
        residual = float(np.max(np.abs(values.real**2 + values.imag**2 - 1.0)))
    coefficient_verdict = _verdict(tensor, separability_tol)
    if convention is Convention.THEOREM:
        entangling = coefficient_verdict
    else:
        entangling = _verdict(_trusted(CoefficientTensor, dims=tensor.dims, entries=values),
                              separability_tol)
    return EntanglerReport(
        convention=convention,
        unitary=residual <= unitary_tol,
        unitarity_residual=residual,
        entangling=entangling,
        coefficient_verdict=coefficient_verdict,
    )

"""Yang-Baxter checks and braid-group representations by strand-local products.

The braided Yang-Baxter equation on V (x) V (x) V reads

    (R (x) I)(I (x) R)(R (x) I) = (I (x) R)(R (x) I)(I (x) R)

and is verified here by applying both sides to blocks of identity columns.
Every factor acts on two adjacent strands, so it is applied as one batched
product with R on the middle axis of the reshaped operand; the padded
operator I (x) R (x) I is never built. The checker still assumes nothing
about the structure of the candidate R; the Artin relation and algebraic
checks reduce to its one residual. Generators of the n-strand braid group
act by R on adjacent factor pairs, and braid words are multiplied out
letter by letter the same way. Each public call checks R, the strand count
and the tolerance once; the private cores behind it take checked inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .tensorops import _as_matrix, _as_tol

# Strand representations (R itself on 2 strands) are capped at this size.
REP_DIM_CAP = 4096

DEFAULT_YBE_TOL = 1e-12


@dataclass(frozen=True)
class YbeReport:
    residual: float
    passed: bool
    tolerance: float


@dataclass(frozen=True)
class BraidWord:
    """A word in braid generators: letter i means b_i, -i means b_i^-1."""

    n_strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        n = int(self.n_strands)
        letters = tuple(int(x) for x in self.letters)
        if n < 2:
            raise InputError("a braid word needs at least 2 strands")
        for x in letters:
            if x == 0 or not 1 <= abs(x) <= n - 1:
                raise InputError(f"letter {x} outside +-1..{n - 1}")
        object.__setattr__(self, "n_strands", n)
        object.__setattr__(self, "letters", letters)


@dataclass(frozen=True)
class RelationCheck:
    kind: str  # "far_commutation" or "braid"
    i: int
    j: int | None
    residual: float
    passed: bool


@dataclass(frozen=True)
class BraidRelationReport:
    n_strands: int
    tolerance: float
    checks: tuple[RelationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


def _operator(r, dim: int | None) -> tuple[np.ndarray, int]:
    """R as a finite complex dim**2 square matrix; dim is inferred when None."""
    r = _as_matrix(r, "R")
    if r.shape[0] != r.shape[1]:
        raise InputError(f"R must be square, got {r.shape}")
    if dim is None:
        dim = math.isqrt(r.shape[0])
    if dim < 1 or dim * dim != r.shape[0]:
        raise InputError(f"matrix size {r.shape[0]} is not dim^2 for dim={dim}")
    return r, int(dim)


def _check_strands(dim: int, n_strands: int, max_dim: int = REP_DIM_CAP) -> int:
    """dim**n_strands, refused below 2 strands or above ``max_dim``; over
    ``max_dim.bit_length()`` strands (too many for any dim >= 2, and the bound
    for dim 1) are refused before dim**n_strands is computed."""
    n_strands = int(n_strands)
    if n_strands < 2:
        raise InputError("need at least 2 strands")
    if n_strands > int(max_dim).bit_length() or dim**n_strands > max_dim:
        raise ResourceLimitError(f"representation size {dim}**{n_strands} exceeds cap {max_dim}")
    return dim**n_strands


def swap_gate(dim: int) -> np.ndarray:
    """The tensor swap on C^dim (x) C^dim: |a,b> -> |b,a>."""
    dim = int(dim)
    if dim < 1:
        raise InputError("swap gate needs dim >= 1")
    return r_from_phase_matrix(np.broadcast_to(1.0, (dim, dim)))  # allocates nothing


def r_from_phase_matrix(phases) -> np.ndarray:
    """Phase-decorated swap: maps |r,s> to M[s,r] |s,r>.

    Row (k,l) holds M[k,l] at column (l,k). For any complex matrix M the
    result solves the braided Yang-Baxter equation; it is unitary exactly
    when every entry of M is unimodular. It is refused above the 2-strand cap.
    """
    m = np.asarray(phases)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"phase matrix must be square, got shape {m.shape}")
    _check_strands(m.shape[0], 2)
    return _phase_swap(_as_matrix(m, "phase matrix"))


def _phase_swap(m: np.ndarray) -> np.ndarray:
    """:func:`r_from_phase_matrix` of a checked square phase matrix."""
    dim = m.shape[0]
    r = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    rows = np.arange(dim * dim)
    r[rows, rows % dim * dim + rows // dim] = m.reshape(-1)
    return r


def _apply_on_strands(r: np.ndarray, m: np.ndarray, dim: int, i: int) -> np.ndarray:
    """(I_a (x) R (x) I_b) @ m for R on factors i, i+1 (a = dim**(i-1)).

    m's row index splits into digits of sizes a, dim**2 and b (times m's
    columns), so one batched product applies R along the middle axis.
    """
    return (r @ m.reshape(dim ** (i - 1), dim * dim, -1)).reshape(m.shape)


def _apply_on_strands_right(m: np.ndarray, r: np.ndarray, dim: int, i: int) -> np.ndarray:
    """m @ (I_a (x) R (x) I_b), the right-acting twin of :func:`_apply_on_strands`."""
    rows = m.shape[0] * dim ** (i - 1)
    return (r.T @ m.reshape(rows, dim * dim, -1)).reshape(m.shape)


def check_yang_baxter(r, dim: int | None = None, tol: float = DEFAULT_YBE_TOL) -> YbeReport:
    """Residual of the braided Yang-Baxter equation for R on C^dim (x) C^dim.

    The residual is ``max |R12 R23 R12 - R23 R12 R23|`` over all dim**6
    entries. Both sides are applied strand-locally to blocks of dim**2
    identity columns, so the cost is O(dim**8) and the working set
    O(dim**5); no dim**3 square operator is formed. dim**3 is capped at
    ``REP_DIM_CAP``, and an R whose products overflow is an input error.
    """
    r, dim = _operator(r, dim)
    _check_strands(dim, 3)
    return _ybe(r, dim, _as_tol(tol))


def _ybe(r: np.ndarray, dim: int, tol: float) -> YbeReport:
    """:func:`check_yang_baxter` of a checked R, dim and tolerance."""

    def r12(m):
        return _apply_on_strands(r, m, dim, 1)

    def r23(m):
        return _apply_on_strands(r, m, dim, 2)

    width = dim * dim
    residual = 0.0
    for start in range(0, dim**3, width):
        block = np.zeros((dim**3, width), dtype=np.complex128)
        np.fill_diagonal(block[start:start + width], 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = r12(r23(r12(block)))
            lhs -= r23(r12(r23(block)))
            worst = float(np.max(np.abs(lhs)))
        # an overflow leaves inf or nan here, which max() would drop
        if not math.isfinite(worst):
            raise InputError("the Yang-Baxter products of R overflow")
        residual = max(residual, worst)
    return YbeReport(residual, residual <= tol, tol)


def _swap_rows(m: np.ndarray, dim: int) -> np.ndarray:
    """swap_gate(dim) @ m as a row permutation: row (b, a) is m's row (a, b)."""
    return m.reshape(dim, dim, -1).transpose(1, 0, 2).reshape(dim * dim, -1)


def to_algebraic(r, dim: int | None = None) -> np.ndarray:
    """Compose with the flat crossing: returns swap @ R."""
    return _swap_rows(*_operator(r, dim))


def check_algebraic_yang_baxter(
    x, dim: int | None = None, tol: float = DEFAULT_YBE_TOL
) -> YbeReport:
    """Residual of X12 X13 X23 = X23 X13 X12, as the braided one of swap @ X.

    A reported measurement: nothing in this package asserts which inputs
    satisfy it, beyond the classical fact that a braided solution composed
    with the swap does.
    """
    x, dim = _operator(x, dim)
    _check_strands(dim, 3)
    # X12 X13 X23 - X23 X13 X12 = P13 (R12 R23 R12 - R23 R12 R23) for R = P X,
    # and a permutation keeps the largest absolute entry.
    return _ybe(_swap_rows(x, dim), dim, _as_tol(tol))


def braid_generator_rep(
    r, dim: int, n_strands: int, i: int, max_dim: int = REP_DIM_CAP
) -> np.ndarray:
    """tau(b_i) on n strands: identities around R at factors i, i+1.

    R's entries are written into the result's blocks, with no arithmetic,
    so the only dim**n_strands square allocation is the result itself.
    """
    r, dim = _operator(r, dim)
    total = _check_strands(dim, n_strands, max_dim)
    n_strands = int(n_strands)
    if not 1 <= i <= n_strands - 1:
        raise InputError(f"generator index {i} outside 1..{n_strands - 1}")
    a, b = dim ** (i - 1), dim ** (n_strands - i - 1)
    out = np.zeros((a, dim * dim, b, a, dim * dim, b), dtype=np.complex128)
    x, y = np.arange(a)[:, None], np.arange(b)
    out[x, :, y, x, :, y] = r
    return out.reshape(total, total)


def evaluate_braid_word(
    word: BraidWord, r, dim: int, max_dim: int = REP_DIM_CAP
) -> np.ndarray:
    """Ordered product of tau(b_i)^(+-1) over the word's letters.

    The first letter is the leftmost factor. Starting from the identity,
    each letter right-applies R or its inverse on its two strands, which
    costs O(dim**(2 n_strands + 2)) per letter; no generator matrix is
    built; each letter is written back into the one result buffer in chunks
    of isqrt(size) rows, since a row of the product depends on that row only.
    R must be invertible; exact singularity is an input error.
    """
    r, dim = _operator(r, dim)
    total = _check_strands(dim, word.n_strands, max_dim)
    r_inv = None
    if any(x < 0 for x in word.letters):
        try:
            # validated like R itself: an overflowing inverse is an input error
            r_inv = _as_matrix(np.linalg.inv(r), "R")
        except np.linalg.LinAlgError as exc:
            raise InputError("R is singular; braid letters need an inverse") from exc
    out = np.eye(total, dtype=np.complex128)
    step = math.isqrt(total)
    for letter in word.letters:
        factor = r if letter > 0 else r_inv
        for start in range(0, total, step):
            rows = slice(start, start + step)
            out[rows] = _apply_on_strands_right(out[rows], factor, dim, abs(letter))
    return out


def check_braid_relations(
    r,
    dim: int,
    n_strands: int,
    tol: float = DEFAULT_YBE_TOL,
    max_dim: int = REP_DIM_CAP,
) -> BraidRelationReport:
    """Residuals of the two Artin relations in the strand representation.

    Far commutation b_i b_j = b_j b_i (|i - j| >= 2) holds exactly for any
    R since the supports are disjoint. Each braid relation
    b_i b_{i+1} b_i = b_{i+1} b_i b_{i+1} is the YBE padded with identities,
    which keep the largest absolute entry, so it carries the
    :func:`check_yang_baxter` residual. ``max_dim`` caps dim**n_strands,
    and with it the YBE check and the number of relations reported.
    """
    r, dim = _operator(r, dim)
    _check_strands(dim, n_strands, max_dim)
    return _relations(r, dim, int(n_strands), _as_tol(tol))


def _relations(r: np.ndarray, dim: int, n_strands: int, tol: float) -> BraidRelationReport:
    """:func:`check_braid_relations` of checked inputs."""
    checks = [
        RelationCheck("far_commutation", i, j, 0.0, True)
        for i in range(1, n_strands)
        for j in range(i + 2, n_strands)
    ]
    if n_strands >= 3:
        local = _ybe(r, dim, tol)
        checks += [
            RelationCheck("braid", i, None, local.residual, local.passed)
            for i in range(1, n_strands - 1)
        ]
    return BraidRelationReport(n_strands, tol, tuple(checks))

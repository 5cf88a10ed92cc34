"""Yang-Baxter checks and braid-group representations by strand-local products.

The braided Yang-Baxter equation on V (x) V (x) V reads

    (R (x) I)(I (x) R)(R (x) I) = (I (x) R)(R (x) I)(I (x) R)

and is checked on one of two paths, chosen from R itself. A monomial R has
at most one nonzero per row and per column, as
:class:`braidgate.entangler.MonomialGateMatrix` defines it; every phase swap
and every entangler is one, zero values included. It sends each basis row to
one column with one value on either side, so the residual is read from R's
row permutation and values. Any other R is checked on blocks of identity
columns. On such a block the first factor of each side is R's own entries,
read rather than multiplied, and the second is one product that contracts
the one strand the two share. Only the last factor is a full product: it
acts on two adjacent strands, so it is one batched product with R on the
middle axis of the reshaped operand, and the padded operator I (x) R (x) I
is never built. The Artin relation and algebraic checks reduce to this one
residual. Generators of the n-strand braid group act by R on adjacent
factor pairs, and braid words are multiplied out letter by letter by the
same product with R's transpose on the right. Each public call checks R,
the strand count and the tolerance once; the private cores behind it take
checked inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .tensorops import TENSOR_SIZE_CAP, _as_array, _as_int, _as_ints, _as_tol, _cached
from .tensorops import _check_entries, _check_type, _hold

# A representation of dim**n_strands rows holds dim**(2 n_strands) entries,
# so at most 4096 rows; more strands than 4096's bit length (13) are too many
# for any dim >= 2 and bound the report of dim 1.
_MAX_STRANDS = math.isqrt(TENSOR_SIZE_CAP).bit_length()

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
        n = _as_int(self.n_strands, "n_strands")
        letters = _as_ints(self.letters, "letters")
        if n < 2:
            raise InputError("a braid word needs at least 2 strands")
        for x in letters:
            if x == 0 or not 1 <= abs(x) <= n - 1:
                raise InputError(f"letter {x} outside +-1..{n - 1}")
        _hold(self, {"n_strands": n, "letters": letters})


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
    r = _as_array(r, "R", 2)
    if r.shape[0] != r.shape[1]:
        raise InputError(f"R must be square, got {r.shape}")
    dim = math.isqrt(r.shape[0]) if dim is None else _as_int(dim, "dim")
    if dim < 1 or dim * dim != r.shape[0]:
        raise InputError(f"matrix size {r.shape[0]} is not dim^2 for dim={dim}")
    return r, dim


def _check_strands(dim: int, n_strands: int) -> int:
    """The size dim**n_strands of the representation on ``n_strands`` strands,
    for counts already read as ints. Fewer than 2 strands is an
    :class:`InputError`, and a representation over ``TENSOR_SIZE_CAP``
    entries is a :class:`ResourceLimitError`. More than ``_MAX_STRANDS``
    strands are refused before dim**n_strands is computed; at dim 1 that is
    a refusal of the strand count alone."""
    if n_strands < 2:
        raise InputError("need at least 2 strands")
    if n_strands > _MAX_STRANDS:
        what = (f"representation size {dim}**{n_strands}" if dim > 1
                else f"representation on {n_strands} strands")
        raise ResourceLimitError(f"{what} exceeds the limit of {_MAX_STRANDS} strands")
    size = dim**n_strands
    _check_entries(size * size, f"representation size {dim}**{n_strands}")
    return size


def r_from_phase_matrix(phases) -> np.ndarray:
    """Phase-decorated swap: maps |r,s> to M[s,r] |s,r>.

    Row (k,l) holds M[k,l] at column (l,k). For any complex matrix M the
    result solves the braided Yang-Baxter equation; it is unitary exactly
    when every entry of M is unimodular. A phase matrix above the 2-strand cap
    (64 x 64) is refused before an array input is copied; any other input is
    converted once.
    """
    m = phases if isinstance(phases, np.ndarray) else _as_array(phases, "phase matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InputError(f"phase matrix must be square and nonempty, got shape {m.shape}")
    _check_strands(m.shape[0], 2)
    return _phase_swap(_as_array(m, "phase matrix") if m is phases else m)


def _phase_swap(m: np.ndarray) -> np.ndarray:
    """:func:`r_from_phase_matrix` of a checked square phase matrix."""
    dim = m.shape[0]
    r = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    rows = np.arange(dim * dim)
    r[rows, rows % dim * dim + rows // dim] = m.reshape(-1)
    return r


def _apply_on_strands(r: np.ndarray, m: np.ndarray, lead: int) -> np.ndarray:
    """(I_a (x) R (x) I_b) @ m for R on factors i, i+1, given ``lead``, the
    size a = dim**(i-1) of the strands before R.

    m's row index splits into digits of sizes a, dim**2 and b (times m's
    columns), so one batched product applies R along the middle axis. The
    right product m @ (I_a (x) R (x) I_b) is the same product of R.T with
    ``lead = m.shape[0] * a``: m's entries, read in order, split into digits
    of sizes m.shape[0] * a, dim**2 and b.
    """
    return (r @ m.reshape(lead, r.shape[0], -1)).reshape(m.shape)


def check_yang_baxter(r, dim: int | None = None, tol: float = DEFAULT_YBE_TOL) -> YbeReport:
    """Residual of the braided Yang-Baxter equation for R on C^dim (x) C^dim.

    The residual is ``max |R12 R23 R12 - R23 R12 R23|`` over all dim**6
    entries. Counting R's nonzeros per row and per column costs O(dim**4).
    If each count is at most 1, R is monomial, as
    :class:`braidgate.entangler.MonomialGateMatrix` defines it: each side
    sends each of the dim**3 basis rows to one column with one value, and
    the residual is read from R's row permutation and values in O(dim**3),
    with a row of no nonzero taken as the value 0. Any other R is taken over
    dim blocks of dim**2 identity columns. On a block the first factor of
    each side is read from R's entries and the second contracts one strand
    index; only the last is a full strand-local product. That costs 2 dim**8 +
    O(dim**7) multiply-adds and the working set O(dim**5); no dim**3 square
    operator is formed. dim**3 is capped at 4096 rows (``TENSOR_SIZE_CAP``
    entries) on both paths, and an R whose products overflow is an input
    error.

    A singular R can pass: the zero matrix has residual 0.0. The equation
    then holds, but R gives no braid-group representation, which needs an
    invertible R (see :func:`evaluate_braid_word`).
    """
    r, dim = _operator(r, dim)
    _check_strands(dim, 3)
    return _ybe(r, dim, _as_tol(tol))


def _ybe(r: np.ndarray, dim: int, tol: float) -> YbeReport:
    """:func:`check_yang_baxter` of a checked R, dim and tolerance: an R with
    at most one nonzero per row and per column (a monomial R, as a
    :class:`braidgate.entangler.MonomialGateMatrix`) is read as a permutation
    and values. A row without a nonzero holds the value 0, so it may take any
    column that has none; it takes the unused columns in order."""
    n = r.shape[0]
    flat = np.flatnonzero(r != 0)
    rows, cols = np.divmod(flat, n)
    per_row, per_col = np.bincount(rows, minlength=n), np.bincount(cols, minlength=n)
    if per_row.max() <= 1 and per_col.max() <= 1:
        if flat.size < n:
            full = np.empty(n, np.intp)
            full[rows] = cols
            full[per_row == 0] = np.flatnonzero(per_col == 0)
            cols, flat = full, np.arange(n) * n + full
        residual = _monomial_ybe_residual(cols, r.reshape(-1)[flat], dim)
    else:
        residual = _dense_ybe_residual(r, dim)
    # an overflow leaves inf or nan here
    if not math.isfinite(residual):
        raise InputError("the Yang-Baxter products of R overflow")
    return YbeReport(residual, residual <= tol, tol)


@_cached
def _monomial_walk(key: tuple[int, bytes]) -> np.ndarray:
    """The read-only ``(4, 2, dim**3)`` walk of basis rows through both sides
    of the YBE, for ``key = (dim, cols)``, the permutation as intp bytes:
    ``walk[i, side]`` is the pair index factor i reads on each row, side 0
    being R12 R23 R12 and side 1 R23 R12 R23, leftmost factor first.
    ``walk[3]`` holds whether the two sides end in the same column, as the
    two places each row reads in the moduli of ``[vL, vR, vL - vR]``, flat:
    ``|vL - vR|`` twice where they do, else ``|vL|`` and ``|vR|``. Walks are
    cached by key, up to 256 KiB each at ``dim = 16``."""
    dim, cols = key[0], np.frombuffer(key[1], np.intp)
    rows = np.arange(dim**3)
    # s is the place value of the lower of the two digits R acts on
    x, pairs, s = rows, [], np.array([[dim], [1]])
    for _ in range(3):
        pairs.append(x // s % (dim * dim))
        x, s = x + (cols[pairs[-1]] - pairs[-1]) * s, s[::-1]
    reads = rows + rows.size * np.where(x[0] == x[1], 2, [[0], [1]])
    walk = np.stack(pairs + [reads])
    walk.setflags(write=False)
    return walk


def _monomial_ybe_residual(cols: np.ndarray, values: np.ndarray, dim: int) -> float:
    """The YBE residual of the R whose row r holds only ``values[r]``, at
    column ``cols[r]``, a permutation: the layout of a
    :class:`braidgate.entangler.MonomialGateMatrix`'s ``col_of_row`` and
    ``value_of_row``, zero values included. Each side sends basis row x to
    one column with one value, so x's residual is ``|vL - vR|`` on one
    column, else ``max(|vL|, |vR|)``. The walk of rows depends on ``cols``
    only (see :func:`_monomial_walk`)."""
    walk = _monomial_walk((dim, cols.astype(np.intp, copy=False).tobytes()))
    # the values multiply rightmost first, and the last factor's values are
    # taken as they are, not as products with 1.0; each part is rounded one
    # product at a time, as in the dense kernel's BLAS products (numpy's
    # complex product may fuse a*b - c*d)
    (a, b, c), (ai, bi, ci) = values.real[walk[:3]], values.imag[walk[:3]]
    v = np.empty((3, dim**3), np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        bc, bci = b * c - bi * ci, b * ci + bi * c
        v.real[:2] = a * bc - ai * bci
        v.imag[:2] = a * bci + ai * bc
        np.subtract(v[0], v[1], out=v[2])
        return float(np.abs(v.take(walk[3])).max())


def _dense_ybe_residual(r: np.ndarray, dim: int) -> float:
    """The YBE residual of any checked R, by dense products on column blocks.

    Block i holds the columns e(i, j', k') for every (j', k'); digits run
    first-most-significant and R[(a, b), (c, e)] is r4[a, b, c, e].
    """
    d = dim
    r4 = r.reshape(d, d, d, d)
    # R23's entries R[(m, n), (b, k')] with the contracted b first: (b, m n k')
    r23_by_b = r4.transpose(2, 0, 1, 3).reshape(d, d**3)
    worst = []
    for i in range(d):
        with np.errstate(over="ignore", invalid="ignore"):
            # R12 e is R[(a, b), (i, j')] on rows (a, b, k'), so R23 R12 e sums
            # over b only: rows (a, j'), then one transpose to (a m n, j' k')
            lhs = r4[:, :, i, :].transpose(0, 2, 1).reshape(d * d, d) @ r23_by_b
            lhs = lhs.reshape(d, d, d * d, d).transpose(0, 2, 1, 3).reshape(d**3, d * d)
            lhs = _apply_on_strands(r, lhs, 1)
            # R23 e is R[(n, k), (j', k')] on rows with first digit i, so
            # R12 R23 e sums over n only, already laid out as (a b k, j' k')
            rhs = (r[:, i * d:(i + 1) * d] @ r.reshape(d, d**3)).reshape(d**3, d * d)
            lhs -= _apply_on_strands(r, rhs, d)
            worst.append(np.max(np.abs(lhs)))
    # np.max keeps a nan that max() would drop
    return float(np.max(worst))


def _swap_rows(m: np.ndarray, dim: int) -> np.ndarray:
    """swap @ m as a row permutation: row (b, a) is m's row (a, b)."""
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


def evaluate_braid_word(word: BraidWord, r, dim: int) -> np.ndarray:
    """Ordered product of tau(b_i)^(+-1) over the word's letters.

    The first letter is the leftmost factor. Starting from the identity,
    each letter right-applies R or its inverse on its two strands, which
    costs O(dim**(2 n_strands + 2)) per letter; no generator matrix is
    built; each letter is written back into the one result buffer in chunks
    of isqrt(size) rows, since a row of the product depends on that row only.
    R must be invertible; exact singularity or overflow is an input error,
    and so is a word that is not a :class:`BraidWord`.
    """
    _check_type(word, BraidWord, "word")
    r, dim = _operator(r, dim)
    total = _check_strands(dim, word.n_strands)
    r_inv = None
    if any(x < 0 for x in word.letters):
        try:
            r_inv = _as_array(np.linalg.inv(r), "R^-1")
        except np.linalg.LinAlgError as exc:
            raise InputError("R is singular; braid letters need an inverse") from exc
    out = np.eye(total, dtype=np.complex128)
    step = math.isqrt(total)
    for letter in word.letters:
        factor_t, lead = (r if letter > 0 else r_inv).T, dim ** (abs(letter) - 1)
        for start in range(0, total, step):
            rows = slice(start, start + step)
            with np.errstate(over="ignore", invalid="ignore"):
                out[rows] = _apply_on_strands(factor_t, out[rows], len(out[rows]) * lead)
            if not np.isfinite(out[rows]).all():
                raise InputError("the braid word's products of R overflow")
    return out


def check_braid_relations(
    r, dim: int, n_strands: int, tol: float = DEFAULT_YBE_TOL
) -> BraidRelationReport:
    """Residuals of the two Artin relations in the strand representation.

    Far commutation b_i b_j = b_j b_i (|i - j| >= 2) holds exactly for any
    R since the supports are disjoint. Each braid relation
    b_i b_{i+1} b_i = b_{i+1} b_i b_{i+1} is the YBE padded with identities,
    which keep the largest absolute entry, so it carries the
    :func:`check_yang_baxter` residual. dim**n_strands is capped at 4096
    rows (``TENSOR_SIZE_CAP`` entries) and n_strands at 13, and with them the
    YBE check and the number of relations reported.

    A singular R can pass, the zero matrix with every residual 0.0: the
    relations then hold as equations, but R gives no braid-group
    representation, which needs an invertible R.
    """
    r, dim = _operator(r, dim)
    n_strands = _as_int(n_strands, "n_strands")
    _check_strands(dim, n_strands)
    return _relations(r, dim, n_strands, _as_tol(tol))


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

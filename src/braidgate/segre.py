"""Full-separability tests for pure multipartite states.

A nonzero coefficient tensor describes a fully separable pure state exactly
when it is an outer product of one vector per subsystem, which happens
exactly when every degree-2 generator

    g = a[k] * a[l] - a[k with l_j at slot j] * a[l with k_j at slot j]

vanishes. The generators are the 2x2 minors of the mode flattenings; this
module builds flat index arrays for them once per shape (deduplicating
minors that several modes share), scans them with numpy, and cross-checks
verdicts with an independent rank-1 oracle based on singular values of the
flattenings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .tensorops import CoefficientTensor, _as_dims, _as_tol, _check_digits, flatten_mode

# Verdicts whose normalized residual lands in this open band are flagged as
# marginal: classification still uses the caller's hard threshold.
MARGINAL_LOW = 1e-12
MARGINAL_HIGH = 1e-6

DEFAULT_SEPARABILITY_TOL = 1e-9

# Shapes with more generators than this are refused: at the cap the index
# table alone takes 32 MB. (3,)^6 has 518,319 generators; (2,)^11 has
# 5,733,376.
GENERATOR_CAP = 2**20

# Generators per step of the violation scan. Its temporaries then stay near
# 64 KB each, which the allocator reuses from call to call instead of
# returning to the OS and faulting in again.
SCAN_CHUNK = 4096


@dataclass(frozen=True)
class QuadricGenerator:
    """One separability generator: slot ``j`` plus index pair ``(k, l)``.

    Canonical form, enforced at construction: ``k[j-1] < l[j-1]`` and the
    remaining digits of ``k`` lex-precede those of ``l``.
    """

    slot: int
    k: tuple[int, ...]
    l: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        k = _check_digits(self.k, dims)
        l = _check_digits(self.l, dims)
        if not 1 <= self.slot <= len(dims):
            raise InputError(f"slot {self.slot} outside 1..{len(dims)}")
        j = self.slot - 1
        if not k[j] < l[j]:
            raise InputError(f"non-canonical generator: digits {k[j]} !< {l[j]} at slot {self.slot}")
        if not k[:j] + k[j + 1:] < l[:j] + l[j + 1:]:
            raise InputError("non-canonical generator: remaining digits not lex-increasing")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "dims", dims)

    def swapped(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The index pair of the subtracted product (slot digits exchanged)."""
        j = self.slot - 1
        kp = self.k[:j] + (self.l[j],) + self.k[j + 1:]
        lp = self.l[:j] + (self.k[j],) + self.l[j + 1:]
        return kp, lp


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of a full-separability test.

    ``max_violation`` is the largest generator magnitude after the tensor is
    scaled so its max-modulus entry is 1 and turned by a quarter turn so that
    entry lies in ``re > 0, im >= 0``. ``witness`` is the first generator
    attaining it, present only when the state is entangled. ``separable``,
    ``max_violation`` and ``witness`` are bit-identical for ``t`` and
    ``2**k * 1j**q * t`` (barring overflow or underflow).
    """

    separable: bool
    max_violation: float
    witness: QuadricGenerator | None
    tolerance_used: float

    @property
    def marginal(self) -> bool:
        return MARGINAL_LOW < self.max_violation < MARGINAL_HIGH


def _generator_count(dims: tuple[int, ...]) -> int:
    """Number of canonical generators for ``dims``, in closed form.

    Slot ``j`` pairs ``C(d_j, 2)`` digit pairs with ``C(R_j, 2)`` pairs of
    rest multi-indices (``R_j = N / d_j``), less the rest pairs that differ
    in one digit only, at an earlier slot ``p``: there are
    ``(R_j / d_p) * C(d_p, 2)`` of those, and each repeats a slot-``p``
    generator.
    """
    n = math.prod(dims)
    total = 0
    for j, d in enumerate(dims):
        r = n // d
        repeats = sum(r // dp * math.comb(dp, 2) for dp in dims[:j])
        total += math.comb(d, 2) * (math.comb(r, 2) - repeats)
    return total


@functools.lru_cache(maxsize=64)
def _generator_table(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Flat 0-based index arrays ``(k, l, kp, lp)`` of the canonical generators.

    Generator ``i`` is ``e[k[i]] * e[l[i]] - e[kp[i]] * e[lp[i]]``.
    Enumeration order: slot ascending, then slot-digit pair, then the lex
    pair of remaining digits. A pair of remaining digits that differ in one
    digit only, at an earlier slot, is dropped: its generator repeats one of
    that earlier slot (a minor with two varying slots is a minor of both).
    Refuses shapes beyond ``GENERATOR_CAP``, and returns empty arrays for
    shapes with no generators, before allocating anything sized by the shape.
    """
    count = _generator_count(dims)
    if count > GENERATOR_CAP:
        raise ResourceLimitError(
            f"shape {dims} has {count} quadric generators, beyond the cap of {GENERATOR_CAP}"
        )
    if count == 0:
        empty = np.empty(0, dtype=np.intp)
        empty.setflags(write=False)
        return (empty,) * 4
    n = math.prod(dims)
    flat = np.arange(n).reshape(dims)
    cols: list[list[np.ndarray]] = [[], [], [], []]
    for j, d in enumerate(dims):
        if d < 2 or d == n:  # no digit pairs, or no pairs of remaining digits
            continue
        rows = np.moveaxis(flat, j, 0).reshape(d, -1)
        a, b = (x[:, None] for x in np.triu_indices(d, 1))
        u, v = np.triu_indices(rows.shape[1], 1)
        if j:
            rest = np.unravel_index(np.arange(rows.shape[1]), dims[:j] + dims[j + 1:])
            differ = [digit[u] != digit[v] for digit in rest]
            repeats = (sum(differ) == 1) & (sum(differ[:j]) == 1)
            u, v = u[~repeats], v[~repeats]
        for col, idx in zip(cols, (rows[a, u], rows[b, v], rows[b, u], rows[a, v])):
            col.append(idx.ravel())
    arrays = tuple(np.concatenate(col) for col in cols)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _generator_at(dims: tuple[int, ...], i: int) -> QuadricGenerator:
    """Generator ``i`` of :func:`_generator_table`; its slot is the one digit
    where ``k`` and ``kp`` differ.

    The table holds canonical generators only, so the constructor's checks
    are skipped: they would cost more than the rest of a small verdict.
    """
    ka, la, kp, _ = _generator_table(dims)
    k, l, kpd = zip(*(d.tolist() for d in np.unravel_index([ka[i], la[i], kp[i]], dims)))
    slot = next(p for p, (x, y) in enumerate(zip(k, kpd), start=1) if x != y)
    gen = object.__new__(QuadricGenerator)
    fields = (slot, tuple(x + 1 for x in k), tuple(x + 1 for x in l), dims)
    for name, value in zip(("slot", "k", "l", "dims"), fields):
        object.__setattr__(gen, name, value)
    return gen


def quadric_generators(dims) -> tuple[QuadricGenerator, ...]:
    """All canonical separability generators for the given shape.

    Needs at least two slots; a single subsystem has no quadrics. Shapes
    with more than ``GENERATOR_CAP`` generators raise
    :class:`ResourceLimitError`.
    """
    dims = _as_dims(dims)
    if len(dims) < 2:
        raise InputError("separability generators need at least 2 slots")
    return tuple(_generator_at(dims, i) for i in range(_generator_table(dims)[0].size))


def evaluate_quadric(gen: QuadricGenerator, tensor: CoefficientTensor) -> complex:
    """Value of one generator on a tensor (no normalization applied)."""
    if gen.dims != tensor.dims:
        raise InputError(f"generator dims {gen.dims} do not match tensor dims {tensor.dims}")
    kp, lp = gen.swapped()
    return complex(
        tensor.at(gen.k) * tensor.at(gen.l) - tensor.at(kp) * tensor.at(lp)
    )


def _nonzero_normalized(tensor: CoefficientTensor) -> np.ndarray:
    """Projective representative: max modulus 1, reference entry in ``re > 0, im >= 0``.

    See :func:`is_fully_separable`. Negative zeros are cleared last, so the
    representatives of ``t`` and ``2**k * 1j**q * t`` agree bit for bit, not
    only in value.
    """
    modulus = np.abs(tensor.entries)
    first = int(np.argmax(modulus))
    peak = float(modulus[first])
    if peak == 0.0:
        raise InputError("zero tensor is not a valid projective point")
    out = tensor.entries / peak
    ref = out[first]
    if not (ref.real > 0 and ref.imag >= 0):
        if ref.imag > 0:
            out *= -1j
        elif ref.real < 0:
            out *= -1
        else:
            out *= 1j
    out += 0.0
    return out


def is_fully_separable(
    tensor: CoefficientTensor, tol: float = DEFAULT_SEPARABILITY_TOL
) -> SeparabilityVerdict:
    """Decide full separability by scanning every quadric generator.

    The tensor is scaled so its max-modulus entry is 1, making the residual
    scale-free (the generators are homogeneous of degree 2). It is then
    turned by an exact quarter turn (``-1j``, ``-1`` or ``1j``) so that the
    first max-modulus entry lies in ``re > 0, im >= 0``. The scan thus sees
    bit-identical input for ``t`` and ``2**k * 1j**q * t``, and the flag,
    ``max_violation`` and witness are bit-identical too (barring overflow or
    underflow), however the scan rounds. Separable means every generator
    magnitude is at most ``tol``.

    The scan runs over ``SCAN_CHUNK`` generators at a time and keeps the
    first strict maximum, so the witness is the first generator attaining
    ``max_violation``. A shape with at most one slot of size above 1 has no
    generators; its tensors are separable with ``max_violation`` 0.0.
    """
    return _verdict(tensor, _as_tol(tol))


def _verdict(tensor: CoefficientTensor, tol: float) -> SeparabilityVerdict:
    """:func:`is_fully_separable` with a checked tolerance."""
    e = _nonzero_normalized(tensor)
    ka, la, kp, lp = _generator_table(tensor.dims)
    best, worst = 0, 0.0
    for start in range(0, ka.size, SCAN_CHUNK):
        s = slice(start, start + SCAN_CHUNK)
        res = np.abs(e[ka[s]] * e[la[s]] - e[kp[s]] * e[lp[s]])
        i = int(np.argmax(res))
        if res[i] > worst:
            best, worst = start + i, float(res[i])
    if worst <= tol:
        return SeparabilityVerdict(True, worst, None, tol)
    return SeparabilityVerdict(False, worst, _generator_at(tensor.dims, best), tol)


def rank1_oracle(tensor: CoefficientTensor, tol: float = DEFAULT_SEPARABILITY_TOL) -> bool:
    """Independent separability check: every flattening must have rank 1.

    True iff for each slot the second singular value of the mode flattening
    is at most ``tol`` times the first. Shares no code path with the quadric
    scan beyond the flattening itself.
    """
    return _rank1(tensor, _as_tol(tol))


def _rank1(tensor: CoefficientTensor, tol: float) -> bool:
    """:func:`rank1_oracle` with a checked tolerance."""
    if not np.any(tensor.entries):
        raise InputError("zero tensor is not a valid projective point")
    for slot in range(1, tensor.n_slots + 1):
        mat = flatten_mode(tensor, slot)
        if min(mat.shape) < 2:
            continue
        s = np.linalg.svd(mat, compute_uv=False)
        if s[1] > tol * s[0]:
            return False
    return True


def segre_map(factors) -> CoefficientTensor:
    """Outer product of one coordinate vector per subsystem.

    The result is on-variety by construction: every quadric generator
    evaluates to zero up to rounding. Each factor must be nonzero
    (projective points exclude the origin).
    """
    vecs = []
    for pos, f in enumerate(factors, start=1):
        v = np.asarray(f, dtype=np.complex128).reshape(-1)
        if v.size == 0 or not np.any(v):
            raise InputError(f"factor {pos} is zero; not a projective point")
        if not np.isfinite(v).all():
            raise InputError(f"factor {pos} contains non-finite entries")
        vecs.append(v)
    if not vecs:
        raise InputError("need at least one factor")
    out = functools.reduce(np.multiply.outer, vecs)
    return CoefficientTensor.from_array(out)

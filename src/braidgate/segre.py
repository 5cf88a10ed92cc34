"""Full-separability tests for pure multipartite states.

A nonzero coefficient tensor describes a fully separable pure state exactly
when it is an outer product of one vector per subsystem, which happens
exactly when every degree-2 generator

    g = a[k] * a[l] - a[k with l_j at slot j] * a[l with k_j at slot j]

vanishes. The generators are the 2x2 minors of the mode flattenings. This
module fills flat index arrays for them by index arithmetic, dropping minors
that several modes share, and keeps the tables of the shapes it has built
in the one structure cache of :mod:`braidgate.tensorops`, oldest evicted
first. A table holds four entry indices per generator, or, on shapes whose
generators share their entry products (see ``_PAIR_PRODUCT_CAP``), two
indices into the products of entry pairs. It scans them with numpy,
remembers the scan of each tensor while the tensor lives, and cross-checks
verdicts with an independent rank-1 oracle based on singular values of the
flattenings.
"""

from __future__ import annotations

import functools
import math
import sys
import weakref
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .tensorops import CoefficientTensor, _as_array, _as_dims, _as_int, _as_tol, _check_type
from .tensorops import _MAX_AXES, _cached, _check_digits, _check_entries, _hold, _trusted

# Verdicts whose normalized residual lands in this open band are flagged as
# marginal: classification still uses the caller's hard threshold.
MARGINAL_LOW = 1e-12
MARGINAL_HIGH = 1e-6

DEFAULT_SEPARABILITY_TOL = 1e-9

# Shapes with more generators than this are refused: at the cap the index
# table alone takes 32 MiB. (3,)^6 has 518,319 generators; (2,)^11 has
# 5,733,376.
GENERATOR_CAP = 2**20

# Generators per step of the violation scan. Its temporaries then stay near
# 64 KB each, which the allocator reuses from call to call instead of
# returning to the OS and faulting in again.
SCAN_CHUNK = 4096

# A shape of n entries takes the pair-product table when its n * n entry-pair
# products number at most this many and at most twice its generator count:
# the scan then forms no more products than four gathers per generator would,
# and their outer product takes at most 1 MiB. Past the bound the outer
# product outgrows the cache and its reuse falls: (8,8,8) to (10,10,10),
# whose generators reuse each pair 1.15 to 1.22 times, scanned 10-30% slower
# with it, and (2, 1400), whose products outnumber its generators 4 to 1,
# scanned 14.2 -> 46.7 ms with a 119.8 MiB peak.
_PAIR_PRODUCT_CAP = 2**16


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
        slot = _as_int(self.slot, "slot")
        if not 1 <= slot <= len(dims):
            raise InputError(f"slot {slot} outside 1..{len(dims)}")
        j = slot - 1
        if not k[j] < l[j]:
            raise InputError(f"non-canonical generator: digits {k[j]} !< {l[j]} at slot {slot}")
        if not k[:j] + k[j + 1:] < l[:j] + l[j + 1:]:
            raise InputError("non-canonical generator: remaining digits not lex-increasing")
        _hold(self, {"slot": slot, "k": k, "l": l, "dims": dims})

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


def _slot_sizes(dims: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Per slot ``j``, in closed form: ``C(d_j, 2)`` digit pairs, and the
    ``C(R_j, 2)`` pairs of rest multi-indices (``R_j = N / d_j``) less the
    rest pairs that differ in one digit only, at an earlier slot ``p``:
    there are ``(R_j / d_p) * C(d_p, 2)`` of those, and each would repeat a
    slot-``p`` generator.
    """
    n = math.prod(dims)
    for j, d in enumerate(dims):
        r = n // d
        repeats = sum(r // dp * math.comb(dp, 2) for dp in dims[:j])
        yield math.comb(d, 2), math.comb(r, 2) - repeats


def _generator_count(dims: tuple[int, ...]) -> int:
    """Number of canonical generators for ``dims``, in closed form: per slot,
    its digit pairs times its rest pairs that repeat no earlier slot's
    generator (see :func:`_slot_sizes`).
    """
    return sum(digit_pairs * rest_pairs for digit_pairs, rest_pairs in _slot_sizes(dims))


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs ``u < v`` of ``range(n)`` in lex order; pair ``(u, v)`` is at
    position ``u * (2n - u - 1) // 2 + (v - u - 1)``.
    """
    runs = np.arange(n - 1, -1, -1)
    u = np.repeat(np.arange(n), runs)
    # v counts up from u + 1 through each run of equal u
    v = np.arange(u.size) + np.repeat(n - np.cumsum(runs), runs)
    return u, v


def _rest_offsets(rest: int, place: int, d: int) -> np.ndarray:
    """Flat index, with digit 0 at the slot of size ``d`` and place value
    ``place``, of each of the ``rest`` multi-indices of the other slots in
    lex order.
    """
    idx = np.arange(rest)
    return idx // place * (place * d) + idx % place


@_cached
def _generator_table(dims: tuple[int, ...]) -> np.ndarray:
    """The canonical generators of ``dims`` as one read-only ``intp`` array
    of flat 0-based indices, in one of two layouts.

    Four rows ``k, l, kp, lp``: generator ``i`` is ``e[k[i]] * e[l[i]] -
    e[kp[i]] * e[lp[i]]``. Two rows ``k*n + l, kp*n + lp``, on shapes of
    ``n`` entries with ``n * n <= min(2 * count, _PAIR_PRODUCT_CAP)``: the
    same generators as differences of entries of the flat outer product of
    ``e`` with itself, whose entry ``k*n + l`` is ``e[k] * e[l]``.

    Enumeration order: slot ascending, then slot-digit pair, then the lex
    pair ``(u, v)`` of rest multi-indices. The rest pairs dropped at slot
    ``j`` are the repeats that :func:`_generator_count` subtracts: pairs
    that differ in one digit only, at an earlier slot ``p``, whose generator
    is one of slot ``p`` (a minor with two varying slots is a minor of
    both). They are dropped by their position in the pair enumeration.

    With digit ``a`` at slot ``j``, whose place value is ``place_j``, rest
    multi-index ``u`` has flat index ``a * place_j + off[u]`` (see
    :func:`_rest_offsets`). Each slot adds those into its blocks of the
    buffer, which is made read-only once it is filled; callers unpack its
    rows. Refuses shapes beyond ``GENERATOR_CAP`` before
    allocating anything sized by the shape; a shape with no generators
    allocates nothing sized by the shape either. Tables are cached by shape
    (see :func:`braidgate.tensorops._cached`).
    """
    count = _generator_count(dims)
    if count > GENERATOR_CAP:
        raise ResourceLimitError(
            f"shape {dims} has {count} quadric generators, beyond the cap of {GENERATOR_CAP}"
        )
    n = math.prod(dims)
    pair_products = n * n <= min(2 * count, _PAIR_PRODUCT_CAP)
    pairs = functools.cache(_pairs)  # slots of one size share their pair lists
    table = np.empty((2 if pair_products else 4, count), dtype=np.intp)
    start = 0
    for j, (d, (digit_pairs, rest_pairs)) in enumerate(zip(dims, _slot_sizes(dims))):
        if digit_pairs * rest_pairs == 0:
            continue
        place, rest = math.prod(dims[j + 1:]), n // d
        u, v = pairs(rest)
        if j:  # slot 1 drops no repeats, and its rest indices are flat offsets (place == rest)
            keep = np.ones(u.size, dtype=bool)
            for p, dp in enumerate(dims[:j]):
                # rest pairs (w + c * step, w + c2 * step) with c < c2: they
                # differ only at slot p, whose place value among the rest is step
                step = math.prod(dims[p + 1:]) // d
                c, c2 = (x[:, None] * step for x in pairs(dp))
                first = c + _rest_offsets(rest // dp, step, dp)
                keep[first * (2 * rest - first - 1) // 2 + (c2 - c) - 1] = False
            off = _rest_offsets(rest, place, d)
            u, v = off[u[keep]], off[v[keep]]
        a, b = (x[:, None] * place for x in pairs(d))
        stop = start + digit_pairs * rest_pairs
        rows = (row[start:stop].reshape(digit_pairs, rest_pairs) for row in table)
        if pair_products:
            # (a + u) * n + (b + v) and (b + u) * n + (a + v)
            g1, g2 = rows
            uv = u * n + v
            np.add(a * n + b, uv, out=g1)
            np.add(b * n + a, uv, out=g2)
        else:
            k, l, kp, lp = rows
            np.add(a, u, out=k)
            np.add(b, v, out=l)
            np.add(b, u, out=kp)
            np.add(a, v, out=lp)
        start = stop
    table.setflags(write=False)
    return table


def _generator_at(dims: tuple[int, ...], i: int) -> QuadricGenerator:
    """Generator ``i`` of :func:`_generator_table`, in either layout. Only
    ``k`` and ``l`` are decoded: ``kp`` is ``k`` with ``l``'s digit at the
    slot ``j``, so ``kp - k = (l_j - k_j) * place_j``, and slot ``j`` is the
    one with ``place_j <= kp - k < place_{j-1}``, the place value of the slot
    before it.

    The table holds canonical generators only, so the constructor's checks
    are skipped: they would cost more than the rest of a small verdict.
    """
    table = _generator_table(dims)
    if len(table) == 2:
        g1, g2 = table[:, i].tolist()
        n = math.prod(dims)
        (k, l), kp = divmod(g1, n), g2 // n
    else:
        k, l, kp = table[:3, i].tolist()
    gap, slot, place, k_digits, l_digits = kp - k, len(dims), 1, [], []
    for d in reversed(dims):
        k, x = divmod(k, d)
        l, y = divmod(l, d)
        k_digits.append(x + 1)
        l_digits.append(y + 1)
        place *= d
        if place <= gap:  # the slot is an earlier one
            slot -= 1
    return _trusted(QuadricGenerator, slot=slot, k=tuple(reversed(k_digits)),
                    l=tuple(reversed(l_digits)), dims=dims)


def quadric_generators(dims) -> tuple[QuadricGenerator, ...]:
    """All canonical separability generators for the given shape.

    Needs at least two slots; a single subsystem has no quadrics. Shapes
    with more than ``GENERATOR_CAP`` generators raise
    :class:`ResourceLimitError`.
    """
    dims = _as_dims(dims)
    if len(dims) < 2:
        raise InputError("separability generators need at least 2 slots")
    return tuple(_generator_at(dims, i) for i in range(_generator_table(dims).shape[1]))


def evaluate_quadric(gen: QuadricGenerator, tensor: CoefficientTensor) -> complex:
    """Value of one generator on a tensor (no normalization applied)."""
    _check_type(gen, QuadricGenerator, "generator")
    _check_type(tensor, CoefficientTensor, "tensor")
    if gen.dims != tensor.dims:
        raise InputError(f"generator dims {gen.dims} do not match tensor dims {tensor.dims}")
    kp, lp = gen.swapped()
    return complex(
        tensor.at(gen.k) * tensor.at(gen.l) - tensor.at(kp) * tensor.at(lp)
    )


def _scaled(entries: np.ndarray) -> np.ndarray:
    """The entries times the power of two that puts their largest real or
    imaginary part in [0.5, 1): the same projective point, with every
    modulus and singular value finite, exact unless parts fall below the
    normal range. The zero tensor is an input error.
    """
    parts = entries.view(np.float64)
    top = float(np.abs(parts).max())
    if top == 0.0:
        raise InputError("zero tensor is not a valid projective point")
    return np.ldexp(parts, -math.frexp(top)[1]).view(np.complex128)


def _nonzero_normalized(tensor: CoefficientTensor) -> np.ndarray:
    """Projective representative: max modulus 1, reference entry in ``re > 0, im >= 0``.

    See :func:`is_fully_separable`. Negative zeros are cleared last, so the
    representatives of ``t`` and ``2**k * 1j**q * t`` agree bit for bit, not
    only in value.
    """
    entries = tensor.entries
    modulus = np.abs(entries)
    first = int(modulus.argmax())
    peak = float(modulus[first])
    if not 2.0**-1022 <= peak <= 2.0**1022:
        # numpy divides by multiplying with 1 / peak, which is exact only as
        # a normal number: zero, subnormal and huge peaks (moduli past the
        # float range among them) are scaled first
        entries = _scaled(entries)
        modulus = np.abs(entries)
        first = int(modulus.argmax())
        peak = float(modulus[first])
    out = entries / peak
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

    The scan does not depend on ``tol``. Its two results, the maximum and
    the index of the generator attaining it first, are remembered while the
    tensor lives: its entries are immutable (see :class:`CoefficientTensor`),
    so a later verdict on the same tensor, at any tolerance, is read from
    them without normalizing or scanning again.
    """
    _check_type(tensor, CoefficientTensor, "tensor")
    return _verdict(tensor, _as_tol(tol))


def _verdict(tensor: CoefficientTensor, tol: float) -> SeparabilityVerdict:
    """:func:`is_fully_separable` with a checked tolerance."""
    worst, best = _scan(tensor)
    if worst <= tol:
        return SeparabilityVerdict(True, worst, None, tol)
    return SeparabilityVerdict(False, worst, _generator_at(tensor.dims, best), tol)


# (worst, best) of each scanned tensor that is alive, keyed by identity
_scans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _scan(tensor: CoefficientTensor) -> tuple[float, int]:
    """The largest generator magnitude of the normalized tensor and the index
    of its first occurrence, remembered in ``_scans`` while the tensor
    lives: its entries are immutable (see :class:`CoefficientTensor`).

    On a two-row table the products of entry pairs are formed once, as the
    outer product of the entries, and each generator is the difference of
    two of them; numpy rounds entry ``(k, l)`` of the outer product as
    ``e[k] * e[l]``, so both layouts give the same bits.
    """
    found = _scans.get(tensor)
    if found is None:
        e = _nonzero_normalized(tensor)
        table = _generator_table(tensor.dims)
        pair_products = len(table) == 2
        if pair_products:
            products = np.multiply.outer(e, e).reshape(-1)
            g1, g2 = table
        else:
            ka, la, kp, lp = table
        best, worst = 0, 0.0
        for start in range(0, table.shape[1], SCAN_CHUNK):
            s = slice(start, start + SCAN_CHUNK)
            if pair_products:
                res = products[g1[s]]
                res -= products[g2[s]]
            else:
                res = e[ka[s]] * e[la[s]]
                res -= e[kp[s]] * e[lp[s]]
            res = np.abs(res)
            i = res.argmax()
            if res[i] > worst:
                best, worst = start + int(i), float(res[i])
        found = _scans[tensor] = worst, best
    return found


def rank1_oracle(tensor: CoefficientTensor, tol: float = DEFAULT_SEPARABILITY_TOL) -> bool:
    """Independent separability check: every flattening must have rank 1.

    True iff for each slot the second singular value of the mode flattening
    is at most ``tol`` times the first. Shares no code path with the quadric
    scan beyond :func:`_scaled`: the flattenings are taken from the tensor
    scaled by a power of two, so entries beyond the float range keep their
    singular values finite. It stops at the first flattening that fails.
    """
    _check_type(tensor, CoefficientTensor, "tensor")
    tol = _as_tol(tol)
    flattenings = _top_singular_values(_scaled(tensor.entries), tensor.dims)
    return not any(s2 > tol * s1 for _, s1, s2 in flattenings)


def _top_singular_values(
    arr: np.ndarray, dims: tuple[int, ...]
) -> Iterator[tuple[int, float, float]]:
    """Per mode flattening of flat ``arr`` with at least two rows and two
    columns, in slot order: the slot's size ``d`` and the flattening's two
    largest singular values. Flattening ``j`` has the slot digit as rows and
    the other digits in lex order as columns; it is taken by reshapes,
    without np.moveaxis's per-call overhead. Each flattening's singular
    values are computed only when the caller asks for them, so a caller
    that stops early skips the rest."""
    for slot, d in enumerate(dims):
        if min(d, arr.size // d) < 2:
            continue
        mat = arr.reshape(math.prod(dims[:slot]), d, -1).transpose(1, 0, 2).reshape(d, -1)
        s = np.linalg.svd(mat, compute_uv=False)
        yield d, s[0], s[1]


def _oracle_agrees(tensor: CoefficientTensor, verdict: SeparabilityVerdict) -> bool:
    """Whether the singular values of the flattenings bear out ``verdict``.

    Take flattening ``j`` of the normalized tensor (see
    :func:`is_fully_separable`), with top singular values ``s1 >= s2`` and
    ``M_j = C(d_j, 2) * C(N / d_j, 2)`` 2x2 minors. A 2x2 submatrix has
    smaller singular values, so every minor is at most ``s1 * s2``; and
    ``s1 * s2`` is at most the Frobenius norm of the second compound, so at
    most ``sqrt(M_j)`` times the largest minor. The scan covers every minor
    (one it drops is a generator of an earlier slot), so a separable verdict
    implies ``s1 * s2 <= sqrt(M_j) * tol`` for every ``j``, and an entangled
    one implies ``s1 * s2 > tol`` for some ``j``. Both are tested with a
    rounding slack of ``64 * eps * N``.
    """
    e = _nonzero_normalized(tensor)
    tol, slack = verdict.tolerance_used, 64 * sys.float_info.epsilon * e.size
    largest = 0.0
    for d, s1, s2 in _top_singular_values(e, tensor.dims):
        top = float(s1 * s2)
        minors = math.comb(d, 2) * math.comb(e.size // d, 2)
        if verdict.separable and top > math.sqrt(minors) * tol + slack:
            return False
        largest = max(largest, top)
    return verdict.separable or largest > tol - slack


def segre_map(factors) -> CoefficientTensor:
    """Outer product of one coordinate vector per subsystem.

    The result is on-variety by construction: every quadric generator
    evaluates to zero up to rounding. Each factor must be nonzero
    (projective points exclude the origin). Products over ``TENSOR_SIZE_CAP``
    entries are refused before they are formed, and so are more than 64
    factors (numpy's limit on axes); overflow is an input error. A product
    below the normal range is formed instead from the factors scaled by
    powers of two: the same projective point, in range.
    """
    try:
        vecs = [_as_array(f, f"factor {pos}", 1) for pos, f in enumerate(factors, start=1)]
    except TypeError as exc:  # factors is not iterable
        raise InputError(f"factors must be a sequence of vectors, got {factors!r}") from exc
    if not vecs:
        raise InputError("need at least one factor")
    for pos, v in enumerate(vecs, start=1):
        if not np.any(v):
            raise InputError(f"factor {pos} is {'zero' if v.size else 'empty'}; not a projective point")
    dims = tuple(v.size for v in vecs)
    _check_entries(math.prod(dims), "tensor of dims {}", dims)
    if len(vecs) > _MAX_AXES:
        raise InputError(f"{len(vecs)} factors exceed numpy's {_MAX_AXES} axes")
    with np.errstate(over="ignore", invalid="ignore"):
        out = functools.reduce(np.multiply.outer, vecs)
    if np.max(np.abs(out.view(np.float64))) < np.finfo(np.float64).tiny:
        out = functools.reduce(np.multiply.outer, [_scaled(v) for v in vecs])
    # the product is the result's own array: only its overflow is left to check
    return _trusted(CoefficientTensor, dims=out.shape, entries=_as_array(out, "tensor").reshape(-1))

"""Quadric generators, separability verdicts, and the rank-1 oracle."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidgate import (
    CoefficientTensor,
    InputError,
    QuadricGenerator,
    ResourceLimitError,
    SeparabilityVerdict,
    evaluate_quadric,
    is_fully_separable,
    quadric_generators,
    rank1_oracle,
    segre_map,
)
from braidgate.segre import (
    DEFAULT_SEPARABILITY_TOL,
    GENERATOR_CAP,
    SCAN_CHUNK,
    _generator_count,
    _generator_table,
    _nonzero_normalized,
)

BELL = CoefficientTensor((2, 2), [1, 0, 0, 1])


def random_tensor(dims, rng):
    n = int(np.prod(dims))
    return CoefficientTensor(dims, rng.normal(size=n) + 1j * rng.normal(size=n))


# --- independent enumeration oracle -------------------------------------
#
# Range over every slot and every unordered pair of multi-indices exactly as
# the defining expression does, normal-form each polynomial as its two
# unordered index-product pairs, and collect the distinct non-trivial ones.
# This never looks at the canonical enumeration under test.


def brute_force_polynomials(dims):
    m = len(dims)
    polys = set()
    indices = list(itertools.product(*[range(1, d + 1) for d in dims]))
    for j in range(m):
        for k in indices:
            for l in indices:
                if k[j] == l[j]:
                    continue
                kp = k[:j] + (l[j],) + k[j + 1:]
                lp = l[:j] + (k[j],) + l[j + 1:]
                if {k, l} == {kp, lp}:
                    continue  # identically zero
                polys.add(
                    (tuple(sorted((k, l))), tuple(sorted((kp, lp))))
                )
    # a polynomial and its negation are the same generator up to sign
    dedup = set()
    for pos, neg in polys:
        if (neg, pos) not in dedup:
            dedup.add((pos, neg))
    return dedup


@pytest.mark.parametrize(
    "dims,count",
    [((2, 2), 1), ((3, 3), 9), ((2, 2, 2), 12), ((2, 3), 3), ((3, 3, 3), 243)],
)
def test_generator_counts_match_brute_force(dims, count):
    gens = quadric_generators(dims)
    oracle = brute_force_polynomials(dims)
    assert len(gens) == len(oracle) == count
    produced = {
        (tuple(sorted((g.k, g.l))), tuple(sorted(g.swapped()))) for g in gens
    }
    normalized = set()
    for pos, neg in produced:
        normalized.add((pos, neg) if (pos, neg) in oracle else (neg, pos))
    assert normalized == oracle


def test_generators_are_canonical_and_deterministic():
    for dims in [(2, 2), (3, 3), (2, 2, 2), (2, 3, 4)]:
        gens = quadric_generators(dims)
        assert gens == quadric_generators(dims)
        seen = set()
        for g in gens:
            j = g.slot - 1
            assert g.k[j] < g.l[j]
            rest_k = g.k[:j] + g.k[j + 1:]
            rest_l = g.l[:j] + g.l[j + 1:]
            assert rest_k < rest_l
            assert g not in seen
            seen.add(g)


def test_bipartite_square_generators_equal_matrix_minors():
    # for an (N, N) tensor the generator set is exactly the 2x2 minors of
    # the N x N matrix form
    for n in (2, 3):
        gens = quadric_generators((n, n))
        minors = set()
        for r1, r2 in itertools.combinations(range(1, n + 1), 2):
            for c1, c2 in itertools.combinations(range(1, n + 1), 2):
                k, l = (r1, c1), (r2, c2)
                kp, lp = (r2, c1), (r1, c2)
                minors.add((tuple(sorted((k, l))), tuple(sorted((kp, lp)))))
        produced = {
            (tuple(sorted((g.k, g.l))), tuple(sorted(g.swapped()))) for g in gens
        }
        assert produced == minors


def test_generators_require_two_slots():
    with pytest.raises(InputError):
        quadric_generators((5,))


def test_evaluate_quadric_examples():
    gen = quadric_generators((2, 2))[0]
    assert gen == QuadricGenerator(1, (1, 1), (2, 2), (2, 2))
    ones = CoefficientTensor((2, 2), [1, 1, 1, 1])
    assert evaluate_quadric(gen, ones) == 0
    assert evaluate_quadric(gen, BELL) == 1
    hadamard_like = CoefficientTensor((2, 2), [1, 1, 1, -1])
    assert evaluate_quadric(gen, hadamard_like) == -2
    with pytest.raises(InputError):
        evaluate_quadric(gen, CoefficientTensor((3, 3), np.ones(9)))
    with pytest.raises(InputError):
        QuadricGenerator(1, (2, 1), (1, 2), (2, 2))  # non-canonical slot digits
    with pytest.raises(InputError):
        QuadricGenerator(1, (1, 2), (2, 1), (2, 2))  # non-canonical rest digits


def test_segre_map_examples():
    t = segre_map([(1, 1, 1), (1, 1, 1)])
    assert t.dims == (3, 3)
    assert np.array_equal(t.entries, np.ones(9))

    t = segre_map([(1, 0), (0, 1)])
    assert np.array_equal(t.entries, [0, 1, 0, 0])

    with pytest.raises(InputError):
        segre_map([(0, 0), (1, 1)])
    with pytest.raises(InputError):
        segre_map([])


def test_segre_map_factors_must_be_vectors():
    # a 2 x 2 factor was once read as one 4-vector, and a scalar as a 1-vector
    for bad in ([[1, 2], [3, 4]], [[1, 2]], 5):
        with pytest.raises(InputError, match="factor 2 must be one-dimensional"):
            segre_map([[1, 2], bad])
    # an empty factor was once called zero
    with pytest.raises(InputError, match="factor 2 is empty; not a projective point"):
        segre_map([[1, 2], []])
    with pytest.raises(InputError, match="factor 1 is zero; not a projective point"):
        segre_map([[0, 0], [1]])


def test_segre_map_overflow_is_an_input_error():
    with pytest.raises(InputError, match="non-finite"):
        segre_map([[1e200, 1], [1e200, 1]])
    assert segre_map([[1e200, 1], [1e100, 1]]).entries[0] == 1e200 * 1e100


def test_segre_map_below_the_normal_range_keeps_its_projective_point():
    # the product of these factors is 1.6e-448, and 0.0 would be no projective point
    t = segre_map([[8.492220947179843e-184j], [1.8666042579713092e-265j]])
    assert t.entries[0].real < 0 and abs(t.entries[0]) >= np.finfo(np.float64).tiny
    # a product in the subnormal range would lose bits: it is formed from the
    # factors scaled into the normal range, exact up to one power of two
    u, v = np.array([1e-160, 1.3e-160]), np.array([1e-160, 1.7e-160j])
    t = segre_map([u, v])
    in_range = np.multiply.outer(2.0**600 * u, 2.0**600 * v).reshape(-1)
    ratio = t.entries[0].real / in_range[0].real
    assert np.frexp(ratio)[0] == 0.5 and np.array_equal(t.entries, ratio * in_range)
    assert is_fully_separable(t).separable and rank1_oracle(t)


def test_segre_map_output_is_on_variety():
    rng = np.random.default_rng(21)
    for _ in range(20):
        factors = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
        t = segre_map(factors)
        worst = max(abs(evaluate_quadric(g, t)) for g in quadric_generators(t.dims))
        assert worst < 1e-13
        assert is_fully_separable(t).separable


def test_bell_state_is_entangled():
    verdict = is_fully_separable(BELL)
    assert not verdict.separable
    assert verdict.max_violation == 1.0
    assert verdict.witness == QuadricGenerator(1, (1, 1), (2, 2), (2, 2))
    assert not rank1_oracle(BELL)


def test_separable_verdict_has_no_witness():
    verdict = is_fully_separable(segre_map([(1, 2, 3), (1, 1j, -1)]))
    assert verdict.separable
    assert verdict.witness is None
    assert verdict.max_violation < 1e-12


def test_zero_tensor_rejected():
    zero = CoefficientTensor((2, 2), np.zeros(4))
    with pytest.raises(InputError):
        is_fully_separable(zero)
    with pytest.raises(InputError):
        rank1_oracle(zero)
    with pytest.raises(InputError):
        is_fully_separable(BELL, tol=0.0)


def test_single_slot_is_trivially_separable():
    t = CoefficientTensor((4,), [1, 2, 3, 4])
    verdict = is_fully_separable(t)
    assert verdict.separable and verdict.max_violation == 0.0
    assert rank1_oracle(t)


def test_marginal_band_flag():
    eps = 3e-8
    t = CoefficientTensor((2, 2), [1, 1, 1, 1 + eps])
    verdict = is_fully_separable(t)
    assert not verdict.separable
    assert verdict.marginal
    big = is_fully_separable(BELL)
    assert not big.marginal


def test_oracle_agreement_exhaustive_sign_patterns():
    # every {-1, 0, 1}-valued 2x2 tensor except the zero one
    values = (-1.0, 0.0, 1.0)
    for entries in itertools.product(values, repeat=4):
        if not any(entries):
            continue
        t = CoefficientTensor((2, 2), entries)
        assert is_fully_separable(t).separable == rank1_oracle(t)


def test_oracle_agreement_seeded_mixture():
    rng = np.random.default_rng(22)
    dims_cycle = [(2, 2), (3, 3), (2, 2, 2), (2, 3), (3, 2, 2), (3, 3, 3)]
    for i in range(200):
        dims = dims_cycle[i % len(dims_cycle)]
        if i % 2:
            t = random_tensor(dims, rng)
        else:
            t = segre_map([rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])
        verdict = is_fully_separable(t)
        if 1e-12 < verdict.max_violation < 1e-6:
            continue  # tolerance boundary, excluded from the equivalence claim
        assert verdict.separable == rank1_oracle(t)


def test_scale_invariance():
    rng = np.random.default_rng(23)
    for i in range(20):
        t = random_tensor((3, 3), rng)
        base = is_fully_separable(t)
        for lam in (2.0, 1j, 1e-6, rng.normal() + 1j * rng.normal()):
            scaled = is_fully_separable(CoefficientTensor(t.dims, lam * t.entries))
            assert scaled.separable == base.separable
            assert scaled.max_violation == pytest.approx(base.max_violation, rel=1e-12)


# Each case: (entries, position of the first max-modulus entry). The smaller
# entries carry -0.0 parts; the last case ties 3+4j with -5j, -5 and -4+3j.
_SMALL = [
    0.5 - 0.25j, complex(-0.0, 1.0), complex(1.5, -0.0), complex(-0.0, -0.0),
    -1.25 + 0.75j, complex(0.0, -0.5), 1.0,
]
NORMALIZATION_CASES = [
    (_SMALL[:2] + [ref] + _SMALL[2:], 2)
    for ref in (
        3 + 1j, -1 + 3j, -3 - 1j, 1 - 3j,
        complex(2, 0.0), complex(2, -0.0), complex(-2, 0.0), complex(-2, -0.0),
        complex(0.0, 2), complex(-0.0, 2), complex(0.0, -2), complex(-0.0, -2),
    )
] + [([1.0, 3 + 4j, -5j, complex(-5, -0.0), -4 + 3j, complex(0.0, -1.0), 0j, 2.5], 1)]


@pytest.mark.parametrize("entries,ref_pos", NORMALIZATION_CASES)
def test_normalization_exact_under_quarter_turns(entries, ref_pos):
    # the scan's complex products may be fused (FMA), so the exact scale
    # invariance of verdicts rests on this normalization being bit-identical
    entries = np.array(entries, dtype=np.complex128)
    base = _nonzero_normalized(CoefficientTensor((2, 2, 2), entries))
    ref = base[ref_pos]
    assert ref.real > 0 and ref.imag >= 0
    assert not np.signbit(ref.imag)
    peak = np.max(np.abs(entries))
    assert any(np.array_equal(base, entries / peak * q) for q in (1, 1j, -1, -1j))
    for lam in (1j, -1, -1j, 2, 2j):
        scaled = _nonzero_normalized(CoefficientTensor((2, 2, 2), lam * entries))
        assert np.array_equal(scaled.view(np.uint64), base.view(np.uint64)), lam


def test_entries_beyond_the_float_range_are_entangled():
    # a modulus past the float range read inf and normalized the tensor to
    # zeros (separable, max_violation 0.0); a subnormal peak overflowed the
    # division
    z = 1.5e308 + 1.5e308j
    for entries, violation in (([z, z, 0, z], 1.0), ([1e-320, 2e-320, 3e-320, 1e-320], 5 / 9)):
        t = CoefficientTensor((2, 2), entries)
        verdict = is_fully_separable(t)
        assert not verdict.separable
        assert verdict.max_violation == pytest.approx(violation, rel=1e-15)
        assert verdict.witness == QuadricGenerator(1, (1, 1), (2, 2), (2, 2))
        assert not rank1_oracle(t)


def test_verdicts_are_exact_under_powers_of_two_past_the_float_range():
    # parts up to 3 * 2**1022 and down to 2**-1060 are exact multiples of the
    # in-range tensor, so verdicts, maxima and witnesses match it bit for bit
    rng = np.random.default_rng(25)
    for _ in range(20):
        parts = rng.integers(-3, 4, size=(2, 8))
        base = CoefficientTensor((2, 2, 2), parts[0] + 1j * parts[1])
        if not np.any(base.entries):
            continue
        ref = is_fully_separable(base)
        for k in (1022, -1060):
            t = CoefficientTensor(base.dims, 2.0**k * base.entries)
            assert is_fully_separable(t) == ref, k
            assert rank1_oracle(t) == rank1_oracle(base), k


def test_local_relabeling_invariance():
    rng = np.random.default_rng(24)
    for _ in range(10):
        t = random_tensor((2, 3, 2), rng)
        base = is_fully_separable(t)
        arr = t.as_array()
        perm = rng.permutation(3)
        relabeled = CoefficientTensor.from_array(np.take(arr, perm, axis=1))
        moved = is_fully_separable(relabeled)
        assert moved.separable == base.separable
        assert moved.max_violation == base.max_violation


# --- enumeration order --------------------------------------------------
#
# The canonical order written as nested loops: slot, then slot-digit pair,
# then lex pair of remaining digits, keeping the first copy of each
# polynomial. Verdict witnesses and the CLI listing follow this order.


def itertools_generators(dims):
    gens, seen = [], set()
    for j in range(len(dims)):
        rests = list(itertools.product(*[range(1, d + 1) for d in dims[:j] + dims[j + 1:]]))
        for a, b in itertools.combinations(range(1, dims[j] + 1), 2):
            for u, v in itertools.combinations(rests, 2):
                k, l = u[:j] + (a,) + u[j:], v[:j] + (b,) + v[j:]
                kp, lp = u[:j] + (b,) + u[j:], v[:j] + (a,) + v[j:]
                key = (k, l, *sorted((kp, lp)))
                if key not in seen:
                    seen.add(key)
                    gens.append(QuadricGenerator(j + 1, k, l, dims))
    return tuple(gens)


@pytest.mark.parametrize(
    "dims", [(2, 3, 4), (4, 3, 2), (3, 1, 2), (2, 5, 3), (2,) * 6, (1, 3), (3, 3)]
)
def test_generator_order_matches_nested_loops(dims):
    assert quadric_generators(dims) == itertools_generators(dims)


@pytest.mark.parametrize(
    "dims",
    [(2, 2), (3, 3), (2, 3), (1, 3), (3, 1), (1, 1), (2, 2, 2), (2, 3, 4), (4, 3, 2),
     (3, 1, 2), (2, 1, 3, 2), (5, 5, 5), (3, 3, 3, 3), (2,) * 6, (3,) * 5, (2,) * 8],
)
def test_generator_count_closed_form(dims):
    assert _generator_count(dims) == len(_generator_table(dims)[0])


def test_oversized_shape_refused_before_allocating():
    dims = (2,) * 11
    assert _generator_count(dims) == 5_733_376 > GENERATOR_CAP
    tensor = CoefficientTensor(dims, np.ones(2**11))
    cached = list(_generator_table.tables)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            quadric_generators(dims)
        with pytest.raises(ResourceLimitError):
            is_fully_separable(tensor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert list(_generator_table.tables) == cached


def test_zero_generator_shape_allocates_nothing():
    # the closed-form count is 0, so no index array sized by the shape is built
    dims = (1, 10**7)
    _generator_table.clear()
    tracemalloc.start()
    try:
        gens = quadric_generators(dims)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gens == ()
    assert peak < 2**20
    assert all(arr.size == 0 and not arr.flags.writeable for arr in _generator_table(dims))


@pytest.mark.parametrize("dims", [(1, 3), (3, 1), (1, 3000), (3000,)])
def test_size_one_slot_shapes_are_separable(dims):
    # one varying slot: no generators, and no pair lists are built for it
    t = CoefficientTensor.from_array(np.ones(dims))
    tracemalloc.start()
    try:
        verdict = is_fully_separable(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == SeparabilityVerdict(True, 0.0, None, DEFAULT_SEPARABILITY_TOL)
    assert peak < 2**20
    assert rank1_oracle(t)
    if len(dims) > 1:
        assert quadric_generators(dims) == ()


def test_verdict_tie_breaks_to_first_maximum():
    ones = is_fully_separable(CoefficientTensor((2, 2, 2), np.ones(8)))
    assert ones.separable and ones.max_violation == 0.0 and ones.witness is None
    # GHZ residuals are exactly 0 or 1; on (5, 5, 5) the maximum recurs in
    # every scan chunk
    for dims in [(2, 2, 2), (5, 5, 5)]:
        ghz = np.zeros(dims)
        for i in range(min(dims)):
            ghz[(i,) * len(dims)] = 1.0
        t = CoefficientTensor.from_array(ghz)
        verdict = is_fully_separable(t)
        values = [abs(evaluate_quadric(g, t)) for g in quadric_generators(dims)]
        assert verdict.max_violation == max(values) == 1.0
        assert verdict.witness == quadric_generators(dims)[values.index(1.0)]


def test_chunked_scan_matches_whole_table_scan():
    # one vectorized pass over the whole table is the reference: chunking
    # must not change a bit of the maximum or move the first argmax
    dims = (5, 5, 5)
    ka, la, kp, lp = _generator_table(dims)
    assert ka.size > SCAN_CHUNK
    gens = quadric_generators(dims)
    rng = np.random.default_rng(25)
    late = 0
    for _ in range(10):
        t = random_tensor(dims, rng)
        e = _nonzero_normalized(t)
        res = np.abs(e[ka] * e[la] - e[kp] * e[lp])
        idx = int(np.argmax(res))
        late += idx >= SCAN_CHUNK
        verdict = is_fully_separable(t)
        assert verdict.max_violation == res[idx]
        assert verdict.witness == gens[idx]
    assert late


@st.composite
def seeded_tensors(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "product", "near-1e-3", "near-1e-8"]))

    def gauss(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind == "gaussian":
        return CoefficientTensor(dims, gauss(dims))
    product = segre_map([gauss(d) for d in dims]).as_array()
    if kind != "product":
        product = product + float(kind[5:]) * gauss(dims)
    return CoefficientTensor.from_array(product)


@settings(max_examples=80, deadline=None)
@given(seeded_tensors())
def test_verdict_matches_direct_evaluation(t):
    # the scan's complex products may be fused (FMA) and evaluate_quadric's
    # are not, so values agree to a few ulps of the normalized scale 1
    ulps = 8 * np.finfo(float).eps
    verdict = is_fully_separable(t)
    normalized = CoefficientTensor(t.dims, _nonzero_normalized(t))
    values = [abs(evaluate_quadric(g, normalized)) for g in quadric_generators(t.dims)]
    assert abs(verdict.max_violation - max(values, default=0.0)) <= ulps
    if verdict.witness is not None:
        assert abs(abs(evaluate_quadric(verdict.witness, normalized)) - verdict.max_violation) <= ulps
    if not verdict.marginal:
        assert verdict.separable == rank1_oracle(t)


entry = st.floats(-10, 10, allow_subnormal=False)
factors = st.lists(st.tuples(entry, entry), min_size=1, max_size=4).map(
    lambda pairs: [complex(re, im) for re, im in pairs]).filter(any)


@settings(max_examples=80, deadline=None)
@given(st.lists(factors, min_size=1, max_size=4))
def test_segre_map_outputs_are_separable(vectors):
    tensor = segre_map(vectors)
    assert is_fully_separable(tensor).separable
    assert rank1_oracle(tensor)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]))
def test_quadric_verdict_matches_the_oracle_outside_the_marginal_band(dims, seed, noise):
    rng = np.random.default_rng(seed)
    product = functools.reduce(
        np.multiply.outer, [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])
    tensor = CoefficientTensor.from_array(product + noise * rng.normal(size=product.shape))
    verdict = is_fully_separable(tensor)
    if not verdict.marginal:
        assert rank1_oracle(tensor) == verdict.separable

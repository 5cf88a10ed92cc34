"""The separability generator table: its build in either layout, the scan
over it, their memory, and the table cache."""

import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidgate import CoefficientTensor, ResourceLimitError
from braidgate.segre import (
    GENERATOR_CAP,
    SCAN_CHUNK,
    _PAIR_PRODUCT_CAP,
    _generator_count,
    _generator_table,
    _nonzero_normalized,
    _scan,
)
from braidgate.tensorops import TABLE_CACHE_BYTES, _tables

# --- reference builder ----------------------------------------------------
#
# The builder that compared digits over every rest pair: rows of each mode
# flattening by np.moveaxis, pairs by np.triu_indices, repeats found by
# np.unravel_index and digit comparisons, per-slot lists concatenated. The
# arithmetic fill must give the same arrays.


def reference_generator_table(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
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


def decoded_table(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The rows ``k, l, kp, lp`` of the generator table of ``dims``, read
    from either layout: four rows as they are, two rows ``k*n + l, kp*n +
    lp`` split by ``divmod``."""
    table = _generator_table(dims)
    if len(table) == 4:
        return tuple(table)
    n = math.prod(dims)
    return (*np.divmod(table[0], n), *np.divmod(table[1], n))


def assert_same_table(dims):
    table, want = _generator_table(dims), reference_generator_table(dims)
    assert table.dtype == np.intp and len(table) in (2, 4)
    assert table.shape[1] == _generator_count(dims) and not table.flags.writeable
    for arr, ref in zip(decoded_table(dims), want):
        assert arr.dtype == ref.dtype == np.intp
        assert arr.shape == ref.shape == (_generator_count(dims),)
        assert not ref.flags.writeable
        assert np.array_equal(arr, ref)


BENCH_SHAPES = [(2, 2), (3, 3), (4, 4), (6, 6), (2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 4, 4),
                (5, 5, 5), (6, 6, 6), (2, 2, 2, 2), (3, 3, 3, 3), (2,) * 6, (3,) * 5, (2,) * 8]


@pytest.mark.parametrize(
    "dims",
    BENCH_SHAPES
    + [(4, 3, 2), (2, 5, 3, 2), (7, 2, 2, 3), (1, 3, 4), (3, 1, 3), (1, 2, 1, 3),
       (3,) * 6, (2,) * 9, (9, 9, 9), (4,) * 5, (40, 40), (2, 1400), (1400, 2)],
)
def test_table_equals_reference(dims):
    assert_same_table(dims)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=5))
def test_table_equals_reference_on_random_shapes(dims):
    dims = tuple(dims)
    assume(_generator_count(dims) <= GENERATOR_CAP)
    assert_same_table(dims)


# the edges of the rule n * n <= min(2 * count, 2**16): two rows at 46,656 <=
# 48,600 and at n = 256; four rows at 15,625 > 15,000, at 256 > 176 and at n = 343
LAYOUT_EDGES = [((6, 6, 6), 2), ((4,) * 4, 2), ((5, 5, 5), 4), ((2, 2, 2, 2), 4), ((7, 7, 7), 4)]

SIGNED_ZEROS = np.array([complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                         complex(-0.0, -0.0)])


def with_signed_zeros(entries: np.ndarray) -> np.ndarray:
    """A copy of ``entries`` with every third from the second a zero, each
    sign of zero in each part in turn."""
    out = entries.copy()
    out[1::3] = np.resize(SIGNED_ZEROS, out[1::3].size)
    return out


@pytest.mark.parametrize("dims, rows", LAYOUT_EDGES, ids=str)
def test_layout_follows_the_pair_product_rule(dims, rows):
    n, count = math.prod(dims), _generator_count(dims)
    assert _PAIR_PRODUCT_CAP == 2**16
    assert (n * n <= min(2 * count, 2**16)) == (rows == 2)
    assert _generator_table(dims).shape == (rows, count)


def test_outer_product_entries_are_the_gathered_products():
    # the two-row scan reads e[k] * e[l] as entry k*n + l of the outer
    # product, so numpy must round both alike, operands in the same order
    rng = np.random.default_rng(30)
    for n in (8, 81, 243, 256):
        gauss = rng.normal(size=n) + 1j * rng.normal(size=n)
        k, l = np.indices((n, n)).reshape(2, -1)
        for e in (gauss, np.exp(2j * np.pi * rng.random(n)), with_signed_zeros(gauss),
                  gauss * 2.0**-540, gauss * 2.0**500):
            assert np.multiply.outer(e, e).reshape(-1).tobytes() == (e[k] * e[l]).tobytes()


def four_gather_scan(t: CoefficientTensor) -> tuple[float, int]:
    """(worst, best) of the direct four-gather kernel over the decoded
    table, in one pass over every generator."""
    e = _nonzero_normalized(t)
    k, l, kp, lp = decoded_table(t.dims)
    if not k.size:
        return 0.0, 0
    res = np.abs(e[k] * e[l] - e[kp] * e[lp])
    best = int(res.argmax())
    return float(res[best]), best


@st.composite
def scan_inputs(draw):
    small = st.lists(st.integers(1, 4), min_size=2, max_size=6).map(tuple)
    dims = draw(st.one_of(st.sampled_from([d for d, _ in LAYOUT_EDGES] + [(3,) * 5, (2,) * 8]),
                          small.filter(lambda d: math.prod(d) <= 256)))
    kind = draw(st.sampled_from(["ghz", "product", "near-product", "unimodular",
                                 "signed-zero", "scaled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = math.prod(dims)

    def gauss(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    if kind == "ghz":
        entries = np.zeros(dims, dtype=complex)
        for i in range(min(dims)):
            entries[(i,) * len(dims)] = 1.0
    elif kind in ("product", "near-product"):
        entries = functools.reduce(np.multiply.outer, [gauss(d) for d in dims])
        if kind == "near-product":
            entries = entries + 1e-8 * gauss(dims)
    elif kind == "unimodular":
        entries = np.exp(2j * np.pi * rng.random(n))
    elif kind == "signed-zero":
        entries = with_signed_zeros(gauss(n))
    else:
        entries = gauss(n) * 2.0 ** draw(st.sampled_from([-1060, -1030, -600, 600, 1000]))
    return CoefficientTensor(dims, np.reshape(entries, -1))


@settings(max_examples=120, deadline=None)
@given(scan_inputs())
def test_scan_is_the_four_gather_scan_bit_for_bit(t):
    worst, best = _scan(t)
    want_worst, want_best = four_gather_scan(t)
    assert (worst.hex(), best) == (want_worst.hex(), want_best)


@pytest.mark.parametrize("dims", [(2,) * 8, (6, 6, 6), (2, 1400), (40, 40)], ids=str)
def test_fresh_scan_peak(dims):
    # chunk temporaries, the normalized entries and, on a two-row shape, the
    # outer product of 16 * n * n bytes: 1 MiB at (2,)^8. Formed at (2, 1400)
    # and (40, 40), it would take 119.8 and 39.3 MiB.
    n = math.prod(dims)
    rows = len(_generator_table(dims))
    assert rows == (2 if n <= 256 else 4)
    t = CoefficientTensor(dims, np.exp(2j * np.pi * np.random.default_rng(30).random(n)))
    tracemalloc.start()
    try:
        _scan(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 16 * SCAN_CHUNK + 4 * 16 * n + (16 * n * n if rows == 2 else 0)


@pytest.mark.parametrize("dims, bound", [
    ((3,) * 6, 1.5), ((2,) * 9, 1.5), ((9, 9, 9), 1.5),
    # slot 1's pair list is as long as the table here; building it takes 3/4
    # of the table's bytes at its peak
    ((2, 1400), 1.76),
])
def test_cold_build_peaks_near_the_table_bytes(dims, bound):
    # one buffer, written in place: the builder's temporaries are per slot
    build = _generator_table.__wrapped__
    tracemalloc.start()
    try:
        table = build(dims)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * 4 * table[0].nbytes
    assert table[0].base is table[3].base and not table[0].base.flags.writeable


# twelve shapes of 2**19 to 2**20 generators, 16 to 32 MiB of indices each
NEAR_CAP_SHAPES = [(8, 11, 11), (9, 10, 11), (10, 10, 10), (10, 11, 11), (2, 4, 10, 11),
                   (2, 6, 8, 9), (2, 7, 8, 8), (2, 8, 8, 8), (3, 3, 10, 10), (3, 4, 8, 10),
                   (3, 7, 7, 7), (4, 4, 6, 10)]


def held_shapes():
    """The shapes whose tables the one structure cache holds, oldest first;
    it holds nothing else, as each test here starts from an empty cache."""
    keys = list(_tables.tables)
    assert all(build is _generator_table.__wrapped__ for build, _ in keys)
    return [dims for _, dims in keys]


def test_cache_holds_at_most_its_byte_bound():
    assert all(2**19 <= _generator_count(dims) <= 2**20 for dims in NEAR_CAP_SHAPES)
    _tables.clear()
    try:
        for i, dims in enumerate(NEAR_CAP_SHAPES):
            newest = _generator_table(dims)
            held = held_shapes()
            # the most recently built shapes, oldest first, the newest always among them
            assert held == NEAR_CAP_SHAPES[i + 1 - len(held):i + 1]
            assert _tables.nbytes == sum(map(sys.getsizeof, _tables.tables.values()))
            assert _tables.nbytes <= TABLE_CACHE_BYTES
        assert _generator_table(NEAR_CAP_SHAPES[-1]) is newest
        # 21.2 + 24.9 + 21.6 MiB pass the bound, so two tables are left
        assert held == [(3, 7, 7, 7), (4, 4, 6, 10)]
        # a hit leaves (3, 7, 7, 7) the oldest built, so the next miss evicts it
        oldest = _tables.tables[(_generator_table.__wrapped__, (3, 7, 7, 7))]
        assert _generator_table((3, 7, 7, 7)) is oldest
        _generator_table((10, 11, 11))
        assert held_shapes() == [(4, 4, 6, 10), (10, 11, 11)]
        assert _generator_table((4, 4, 6, 10)) is newest
    finally:
        _tables.clear()
    assert _tables.nbytes == 0

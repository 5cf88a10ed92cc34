"""The separability generator table: its build, its build memory and its cache."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidgate import ResourceLimitError
from braidgate.segre import GENERATOR_CAP, _generator_count, _generator_table
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


def assert_same_table(dims):
    table, want = _generator_table(dims), reference_generator_table(dims)
    assert len(table) == 4
    for arr, ref in zip(table, want):
        assert arr.dtype == ref.dtype == np.intp
        assert arr.shape == ref.shape == (_generator_count(dims),)
        assert not arr.flags.writeable and not ref.flags.writeable
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

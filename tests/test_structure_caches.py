"""Structure kept per key in byte-bounded caches: the monomial Yang-Baxter
walk per permutation, and gate patterns per size.

Each cache holds at most a quarter of ``TABLE_CACHE_BYTES``, counting every
held array's header and data, including the data of an array over ``bytes``,
which ``sys.getsizeof`` leaves out.
"""

import sys

import numpy as np
import pytest

import braidgate.braid as braid_module
import braidgate.entangler as entangler_module
from braidgate import construct_entangler, pattern_permutation, phase_gate, random_phases
from braidgate.segre import TABLE_CACHE_BYTES


# 80 walks of 256 KiB each at dim 16, and 20 patterns of about 1 MiB each
RNG = np.random.default_rng(0)
WALK_KEYS = [(16, RNG.permutation(256).astype(np.intp).tobytes()) for _ in range(80)]
PATTERN_SIZES = [2**17 + i for i in range(20)]
CACHES = {
    "monomial walk": (braid_module._monomial_walk, WALK_KEYS),
    "entangler pattern": (entangler_module._entangler_pattern, PATTERN_SIZES),
    "identity pattern": (entangler_module._identity_pattern, PATTERN_SIZES),
}


def held_bytes(arr):
    # a view's size is its header alone, whoever owns the data
    return sys.getsizeof(arr.view()) + arr.nbytes


@pytest.mark.parametrize("name", CACHES)
def test_cache_holds_at_most_a_quarter_of_the_table_budget(name):
    cache, keys = CACHES[name]
    assert cache.budget == TABLE_CACHE_BYTES // 4 == 16 * 2**20
    cache.clear()
    try:
        for key in keys:
            newest = cache(key)
            assert next(reversed(cache.tables)) == key and cache.tables[key] is newest
            assert cache.nbytes == sum(map(held_bytes, cache.tables.values()))
            assert cache.nbytes <= cache.budget
        assert len(cache.tables) < len(keys)
        for arr in cache.tables.values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0
    finally:
        cache.clear()
    assert cache.nbytes == 0


def test_an_entry_over_the_budget_is_returned_and_evicts_nothing():
    cache = entangler_module._entangler_pattern
    cache.clear()
    try:
        kept = cache(9)
        big = cache(2**21 + 1)  # 16 MiB of data and a header
        assert big.size == 2**21 + 1 and big[1] == 2**21 - 1
        assert list(cache.tables) == [9] and cache.tables[9] is kept
        assert cache.nbytes == held_bytes(kept)
    finally:
        cache.clear()


def test_patterns_are_held_arrays_shared_by_every_gate_of_one_size():
    # a held array (read-only, over bytes) is shared by _hold, not copied
    a, b = random_phases((3, 3), 1), random_phases((9,), 2)
    gates = [construct_entangler(t, c) for t in (a, b) for c in ("theorem", "paper-matrix")]
    assert all(g.col_of_row is gates[0].col_of_row for g in gates)
    assert pattern_permutation(9).col_of_row is gates[0].col_of_row
    diagonal = [phase_gate(t, c) for t in (a, b) for c in ("theorem", "paper-matrix")]
    assert all(g.col_of_row is diagonal[0].col_of_row for g in diagonal)
    for cols in (gates[0].col_of_row, diagonal[0].col_of_row):
        assert type(cols.base) is bytes and not cols.flags.writeable
    assert diagonal[0].col_of_row.tolist() == list(range(9))
    assert gates[0].col_of_row.tolist() == [0, 7, 6, 5, 4, 3, 2, 1, 8]

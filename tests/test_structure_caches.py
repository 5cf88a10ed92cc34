"""Structure that depends on shape alone, kept in one byte-bounded cache:
generator tables per shape, the monomial Yang-Baxter walk per permutation,
and gate patterns per size.

The cache holds at most ``TABLE_CACHE_BYTES`` in all, counting every held
array's header and data, including the data of an array over ``bytes``,
which ``sys.getsizeof`` leaves out. Its entries are keyed by builder and key,
and the least recently used goes first, whichever builder made it.
"""

import gc
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidgate.braid as braid_module
import braidgate.entangler as entangler_module
import braidgate.segre as segre_module
from braidgate import construct_entangler, pattern_permutation, phase_gate, random_phases
from braidgate.tensorops import TABLE_CACHE_BYTES, _TableCache, _tables

TABLE = segre_module._generator_table
WALK = braid_module._monomial_walk
ENTANGLER = entangler_module._entangler_pattern
IDENTITY = entangler_module._identity_pattern


def held_bytes(arr):
    # a view's size is its header alone, whoever owns the data
    return sys.getsizeof(arr.view()) + arr.nbytes


def walk_key(perm):
    dim = int(round(len(perm) ** 0.5))
    return dim, np.array(perm, dtype=np.intp).tobytes()


# small table shapes; walks at d = 2..16; patterns of a few bytes up to 32 MiB,
# so that a sequence of calls fills the budget and evicts
CALLS = st.one_of(
    st.tuples(st.just(TABLE), st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple)),
    st.tuples(st.just(WALK), st.integers(2, 16).flatmap(
        lambda d: st.permutations(range(d * d))).map(walk_key)),
    st.tuples(st.sampled_from([ENTANGLER, IDENTITY]),
              st.one_of(st.integers(2, 4096), st.integers(2**20, 2**22))),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(CALLS, min_size=1, max_size=12))
def test_every_builder_shares_one_byte_budget(calls):
    # a model of the cache: each kept entry's bytes by (builder, key), least
    # recently used first
    model = OrderedDict()
    _tables.clear()
    try:
        for build, key in calls:
            entry = (build.__wrapped__, key)
            was = _tables.tables.get(entry)
            arr = build(key)
            assert was is None or arr is was
            assert held_bytes(arr) <= TABLE_CACHE_BYTES
            if entry in model:
                model.move_to_end(entry)
            else:
                model[entry] = held_bytes(arr)
                while sum(model.values()) > TABLE_CACHE_BYTES:
                    model.popitem(last=False)
            # the newest entry is kept, and the oldest go first whoever built them
            assert list(_tables.tables) == list(model)
            assert _tables.tables[entry] is arr
            assert _tables.nbytes == sum(map(held_bytes, _tables.tables.values()))
            assert _tables.nbytes <= TABLE_CACHE_BYTES
            for kept in _tables.tables.values():
                assert not kept.flags.writeable
                with pytest.raises(ValueError):
                    kept[(0,) * kept.ndim] = 0
    finally:
        _tables.clear()
    assert _tables.nbytes == 0


def test_one_cache_serves_every_builder():
    assert [obj for obj in gc.get_objects() if isinstance(obj, _TableCache)] == [_tables]
    _tables.clear()
    try:
        built = [TABLE((2, 3)), WALK(walk_key(range(4))), ENTANGLER(9), IDENTITY(9)]
        assert list(_tables.tables) == [
            (TABLE.__wrapped__, (2, 3)), (WALK.__wrapped__, walk_key(range(4))),
            (ENTANGLER.__wrapped__, 9), (IDENTITY.__wrapped__, 9)]
        assert all(_tables.tables[entry] is arr for entry, arr in zip(_tables.tables, built))
    finally:
        _tables.clear()


def test_the_two_patterns_of_one_size_are_two_entries():
    _tables.clear()
    try:
        reversed_middle, identity = ENTANGLER(9), IDENTITY(9)
        assert len(_tables.tables) == 2 and reversed_middle is not identity
        assert reversed_middle.tolist() == [0, 7, 6, 5, 4, 3, 2, 1, 8]
        assert identity.tolist() == list(range(9))
        assert ENTANGLER(9) is reversed_middle and IDENTITY(9) is identity
    finally:
        _tables.clear()


def test_an_entry_over_the_budget_is_returned_and_evicts_nothing():
    _tables.clear()
    try:
        kept = [TABLE((3, 3)), WALK(walk_key(range(9))), ENTANGLER(9)]
        entries = list(_tables.tables)
        big = ENTANGLER(2**23 + 1)  # 64 MiB of data and a header
        assert held_bytes(big) > TABLE_CACHE_BYTES
        assert big.size == 2**23 + 1 and big[1] == 2**23 - 1
        assert list(_tables.tables) == entries
        assert all(_tables.tables[entry] is arr for entry, arr in zip(entries, kept))
        assert _tables.nbytes == sum(map(held_bytes, kept))
    finally:
        _tables.clear()


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

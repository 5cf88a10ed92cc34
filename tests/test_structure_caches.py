"""Structure that depends on shape alone, kept in one byte-bounded cache:
generator tables per shape, the monomial Yang-Baxter walk per permutation,
and gate patterns per size.

The cache holds at most ``TABLE_CACHE_BYTES`` in all, counting every held
array's header and data, including the data of an array over ``bytes``,
which ``sys.getsizeof`` leaves out. Its entries are keyed by builder and key,
and the oldest built goes first, whichever builder made it. A hit takes no
lock; a miss builds under the lock, so misses wait for one another.
"""

import gc
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidgate.braid as braid_module
import braidgate.entangler as entangler_module
import braidgate.segre as segre_module
from braidgate import construct_entangler, pattern_permutation, phase_gate, random_phases
from braidgate.tensorops import TABLE_CACHE_BYTES, _TableCache, _cached, _tables

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
    # a model of the cache: each kept entry's bytes by (builder, key), oldest
    # built first; a hit moves nothing
    model = {}
    _tables.clear()
    try:
        for build, key in calls:
            entry = (build.__wrapped__, key)
            was = _tables.tables.get(entry)
            arr = build(key)
            assert was is None or arr is was
            assert held_bytes(arr) <= TABLE_CACHE_BYTES
            if entry not in model:
                model[entry] = held_bytes(arr)
                while sum(model.values()) > TABLE_CACHE_BYTES:
                    del model[next(iter(model))]
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


def call_in_thread(fn, *args):
    """A started thread that calls ``fn(*args)`` into the returned list."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    return thread, out


def test_a_hit_takes_no_lock():
    _tables.clear()
    try:
        kept = ENTANGLER(9)
        with _tables._lock:
            thread, out = call_in_thread(ENTANGLER, 9)
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert len(out) == 1 and out[0] is kept
    finally:
        _tables.clear()


def test_a_miss_waits_for_the_lock_and_builds_once():
    calls = []

    def build(key):
        calls.append(key)
        return np.frombuffer(bytes(8 * key), np.int64)

    counting = _cached(build)
    _tables.clear()
    try:
        with _tables._lock:
            threads = [call_in_thread(counting, 7) for _ in range(2)]
            for thread, _ in threads:
                thread.join(timeout=0.2)
                assert thread.is_alive()
            assert calls == []
        for thread, _ in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        # the second miss found the first one's entry once it had the lock
        assert calls == [7]
        kept = _tables.tables[(build, 7)]
        assert all(len(out) == 1 and out[0] is kept for _, out in threads)
    finally:
        _tables.clear()


def test_threads_hitting_and_missing_keep_the_byte_count_exact():
    # entries of 10-20 MiB, so a few fill the budget and misses evict; np.zeros
    # maps pages it never touches, so they cost little memory
    def size(key):
        return (10 * 2**20 + key * 2**19) // 8

    building, built, overlapping = [], [], []

    def build(key):
        building.append(key)
        if len(building) > 1:
            overlapping.append(list(building))
        arr = np.zeros(size(key))
        arr[0] = key
        built.append(key)
        building.remove(key)
        return arr

    zeros = _cached(build)
    wrong = []

    def client(seed):
        rng = random.Random(seed)
        for _ in range(150):
            key = rng.randrange(12)
            arr = zeros(key)
            if arr.size != size(key) or arr[0] != key:
                wrong.append(key)

    interval = sys.getswitchinterval()
    _tables.clear()
    try:
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=client, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in threads)
        # misses built one at a time, and some key was built again once evicted
        assert wrong == [] and overlapping == [] and len(built) > 12
        assert _tables.nbytes == sum(map(_tables._bytes, _tables.tables.values()))
        assert 0 < _tables.nbytes <= TABLE_CACHE_BYTES
        for (builder, key), arr in _tables.tables.items():
            assert builder is build and arr.size == size(key) and arr[0] == key
    finally:
        sys.setswitchinterval(interval)
        _tables.clear()

"""Results built inside the library from checked parts, and the caller's arrays.

The entangler calls and the separability witness skip the public
constructors' checks (``tensorops._trusted``); their results, and their
pickled and deep-copied round trips, must equal the public builds field for
field. Every array a result holds is an immutable copy, on every route that
builds one, so a caller's later writes reach no tensor, state or gate.
"""

import copy
import dataclasses
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import braidgate.entangler as entangler_module
from braidgate import (
    CoefficientTensor,
    Convention,
    MonomialGateMatrix,
    QuadricGenerator,
    StateVector,
    apply_entangler,
    certify_entangler,
    construct_entangler,
    is_fully_separable,
    pattern_permutation,
    phase_gate,
    quadric_generators,
    random_phases,
    segre_map,
)
from braidgate.segre import _generator_at, _generator_table, _slot_sizes

# the shapes of the benchmark's gates workload
GATE_SHAPES = [(2, 2), (3, 3), (4, 4), (6, 6), (2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5),
               (6, 6, 6), (2, 2, 2, 2), (3, 3, 3, 3), (2,) * 6]


def seeded_entries(dims, kind, seed):
    rng = np.random.default_rng([seed, *dims])
    n = math.prod(dims)
    if kind == "unimodular":
        return np.exp(2j * np.pi * rng.random(n))
    entries = rng.normal(size=n) + 1j * rng.normal(size=n)
    if kind == "zero":
        # every third coefficient a zero, with each sign of zero in each part
        zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        for pos in range(0, n, 3):
            entries[pos] = zeros[pos // 3 % 4]
    return entries


def assert_same_fields(built, public):
    assert type(built) is type(public)
    assert set(vars(built)) == {f.name for f in dataclasses.fields(built)}
    for f in dataclasses.fields(built):
        x, y = getattr(built, f.name), getattr(public, f.name)
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray), f.name
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.flags.c_contiguous and y.flags.c_contiguous, f.name
            assert not x.flags.writeable and not y.flags.writeable, f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


# a pickled or deep-copied result was once restored with writeable arrays
TRIPS = {
    "built": lambda x: x,
    "pickled": lambda x: pickle.loads(pickle.dumps(x)),
    "deep-copied": copy.deepcopy,
}


@pytest.mark.parametrize("trip", TRIPS.values(), ids=TRIPS.keys())
@pytest.mark.parametrize("kind", ["zero", "unimodular", "gaussian"])
@pytest.mark.parametrize("dims", GATE_SHAPES, ids=str)
def test_entangler_results_equal_their_public_builds(dims, kind, trip):
    t = CoefficientTensor(dims, seeded_entries(dims, kind, 14))
    n = t.size
    perm = trip(pattern_permutation(n))
    assert_same_fields(perm, MonomialGateMatrix(n, perm.col_of_row, perm.value_of_row))
    assert perm.col_of_row.dtype == np.int64 and perm.value_of_row.dtype == np.complex128
    for conv in Convention:
        gate = trip(construct_entangler(t, conv))
        assert_same_fields(gate, MonomialGateMatrix(n, gate.col_of_row, gate.value_of_row))
        assert gate.col_of_row.dtype == np.int64 and gate.value_of_row.dtype == np.complex128
        tau = trip(phase_gate(t, conv))
        assert_same_fields(tau, MonomialGateMatrix(n, np.arange(n), gate.value_of_row))
        state = trip(apply_entangler(t, conv))
        assert_same_fields(state, StateVector(dims, gate.value_of_row))
        assert_same_fields(trip(state.to_tensor()), CoefficientTensor(dims, gate.value_of_row))


@pytest.mark.parametrize("kind", ["zero", "unimodular", "gaussian"])
@pytest.mark.parametrize("dims", GATE_SHAPES, ids=str)
def test_paper_matrix_verdict_is_the_verdict_of_the_gate_values(dims, kind):
    t = CoefficientTensor(dims, seeded_entries(dims, kind, 15))
    values = construct_entangler(t, "paper-matrix").value_of_row
    expected = is_fully_separable(CoefficientTensor(t.dims, values))
    got = certify_entangler(t, "paper-matrix").entangling
    assert got == expected
    assert got.max_violation.hex() == expected.max_violation.hex()
    assert repr(got.witness) == repr(expected.witness)


def checked_generator(dims, i):
    """Generator i of the table, read with np.unravel_index and built by the
    checked constructor."""
    ka, la, kp, _ = _generator_table(dims)
    k, l, kpd = (tuple(int(x) + 1 for x in np.unravel_index(a[i], dims)) for a in (ka, la, kp))
    slot = next(p for p, (x, y) in enumerate(zip(k, kpd), start=1) if x != y)
    return QuadricGenerator(slot, k, l, dims)


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 3, 3), (2,) * 5, (4, 4)], ids=str)
def test_witnesses_equal_their_checked_builds(dims):
    for i in range(_generator_table(dims)[0].size):
        gen, ref = _generator_at(dims, i), checked_generator(dims, i)
        # repr also tells a numpy integer from an int
        assert gen == ref and repr(gen) == repr(ref)


def slot_boundaries(dims):
    """The first and last index of each slot's block of generators, and of
    each digit pair's block within it, where ``kp - k`` takes its least and
    largest values at the slot."""
    out, start = set(), 0
    for digit_pairs, rest_pairs in _slot_sizes(dims):
        for _ in range(digit_pairs * bool(rest_pairs)):
            out |= {start, start + rest_pairs - 1}
            start += rest_pairs
    return sorted(out)


@pytest.mark.parametrize("dims", [(2,) * 8, (3,) * 5, (1, 3, 2), (2, 1, 3, 2)], ids=str)
def test_witness_slots_at_every_slot_boundary(dims):
    # the slot is read from kp - k against the place values; a slot of size
    # 1 shares its place value with the next and holds no generator
    count = _generator_table(dims)[0].size
    indices = slot_boundaries(dims) if count > 64 else range(count)
    slots = set()
    for i in indices:
        gen, ref = _generator_at(dims, i), checked_generator(dims, i)
        assert gen == ref and repr(gen) == repr(ref)
        slots.add(gen.slot)
    assert slots == {j for j, (pairs, rest) in enumerate(_slot_sizes(dims), start=1)
                     if pairs * rest}


def test_quadric_generators_are_the_checked_builds():
    dims = (3, 3, 3)
    expected = tuple(checked_generator(dims, i) for i in range(_generator_table(dims)[0].size))
    got = quadric_generators(dims)
    assert got == expected and repr(got) == repr(expected)
    assert len(got) == 243
    assert got[0] == QuadricGenerator(1, (1, 1, 1), (2, 1, 2), dims)
    assert got[-1] == QuadricGenerator(3, (2, 3, 2), (3, 2, 3), dims)


def test_gate_constructor_copies_the_callers_values():
    # a C-contiguous complex128 vector was once kept as is and made read-only
    v = np.ones(2, dtype=np.complex128)
    cols = np.array([1, 0])
    gate = MonomialGateMatrix(2, cols, v)
    assert v.flags.writeable and cols.flags.writeable
    v[0], cols[0] = 5, 0
    assert gate.value_of_row.tolist() == [1, 1] and gate.col_of_row.tolist() == [1, 0]
    assert not gate.value_of_row.flags.writeable and not gate.col_of_row.flags.writeable


@pytest.mark.parametrize("build", [
    lambda e: CoefficientTensor((2, 2), e).entries,
    lambda e: CoefficientTensor.from_array(e.reshape(2, 2)).entries,
    lambda e: StateVector((2, 2), e).amplitudes,
    lambda e: StateVector((2, 2), e).to_tensor().entries,
], ids=["tensor", "from_array", "state", "state_to_tensor"])
def test_tensor_and_state_constructors_copy_the_callers_entries(build):
    # a C-contiguous complex128 array was once kept as a view, so a write to
    # it changed the read-only entries
    e = np.ones(4, dtype=np.complex128)
    held = build(e)
    e[0] = 5
    assert e.flags.writeable and held.tolist() == [1, 1, 1, 1]
    assert not held.flags.writeable and held.flags.c_contiguous


def _paper_matrix_values_tensor(t, monkeypatch):
    """The tensor of R's values that ``certify_entangler`` scans under ``paper-matrix``."""
    seen = []
    verdict = entangler_module._verdict
    with monkeypatch.context() as m:
        m.setattr(entangler_module, "_verdict", lambda x, tol: seen.append(x) or verdict(x, tol))
        certify_entangler(t, "paper-matrix")
    assert len(seen) == 2 and seen[0] is t
    return seen[1]


T = CoefficientTensor((3, 3), np.arange(1.0, 10.0))
HELD = {
    "CoefficientTensor": lambda _: CoefficientTensor((2, 2), np.ones(4, dtype=np.complex128)),
    "from_array": lambda _: CoefficientTensor.from_array(np.ones((2, 3), dtype=np.complex128)),
    "StateVector": lambda _: StateVector((2, 2), np.ones(4, dtype=np.complex128)),
    "MonomialGateMatrix": lambda _: MonomialGateMatrix(2, np.array([1, 0]), np.ones(2, complex)),
    "random_phases": lambda _: random_phases((2, 3), 1),
    "segre_map": lambda _: segre_map([[1, 2], [3, 4j, 5]]),
    "to_tensor": lambda _: StateVector((2, 2), np.ones(4)).to_tensor(),
    "construct_entangler theorem": lambda _: construct_entangler(T, "theorem"),
    "construct_entangler paper-matrix": lambda _: construct_entangler(T, "paper-matrix"),
    "pattern_permutation": lambda _: pattern_permutation(9),
    "phase_gate theorem": lambda _: phase_gate(T, "theorem"),
    "phase_gate paper-matrix": lambda _: phase_gate(T, "paper-matrix"),
    "apply_entangler theorem": lambda _: apply_entangler(T, "theorem"),
    "apply_entangler paper-matrix": lambda _: apply_entangler(T, "paper-matrix"),
    "certify_entangler values": lambda mp: _paper_matrix_values_tensor(T, mp),
    # numpy unpickles an array of over 1000 bytes over the pickle's bytes
    "random_phases (16, 16)": lambda _: random_phases((16, 16), 2),
    "construct_entangler (16, 16)": lambda _: construct_entangler(random_phases((16, 16), 2)),
    # the cached identity pattern that every diagonal gate of a size shares
    "phase_gate (16, 16)": lambda _: phase_gate(random_phases((16, 16), 2)),
}
ROUTES = {
    "built": lambda x: x,
    "pickle-4": lambda x: pickle.loads(pickle.dumps(x, protocol=4)),
    "pickle-5": lambda x: pickle.loads(pickle.dumps(x, protocol=5)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle-2": lambda x: pickle.loads(pickle.dumps(x, protocol=2)),
    "pickle-3": lambda x: pickle.loads(pickle.dumps(x, protocol=3)),
}


@pytest.mark.parametrize("build", HELD.values(), ids=HELD.keys())
def test_held_arrays_are_immutable(build, monkeypatch):
    # held arrays were once read-only by a flag that any caller could clear;
    # setflags(write=True) also raises on an array numpy unpickled over the
    # pickle's bytes and left writeable, so the flag and a write are checked
    for route, trip in ROUTES.items():
        result = trip(build(monkeypatch))
        arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 + isinstance(result, MonomialGateMatrix), route
        for arr in arrays:
            assert not arr.flags.writeable, route
            with pytest.raises(ValueError):
                arr[0] = arr[0]
            with pytest.raises(ValueError):
                arr.setflags(write=True)


@pytest.mark.parametrize("build", [
    lambda a: CoefficientTensor((2, 2), a).entries,
    lambda a: CoefficientTensor.from_array(a).entries,
    lambda a: StateVector((2, 2), a).amplitudes,
    lambda a: MonomialGateMatrix(4, [1, 0, 3, 2], a).value_of_row,
], ids=["tensor", "from_array", "state", "gate"])
def test_a_callers_array_stays_writeable_and_apart(build):
    # an array numpy reads through __array__ without a copy was once held as
    # it is, and made read-only in the caller's hands
    own = np.ones(4, dtype=np.complex128)
    held = build(SimpleNamespace(__array__=lambda dtype=None, copy=None: own))
    assert own.flags.writeable
    own[0] = 5
    assert held.tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("protocol", [2, 3, 4, 5])
def test_unpickled_arrays_cannot_be_written(protocol):
    # numpy unpickles an array of over 1000 bytes at protocols 2-4 over the
    # pickle's bytes and marks it writeable, and setflags(write=True) raises
    # on it all the same, so the flag and a write are checked
    t = random_phases((8, 8), 2)
    for result in (t, StateVector(t.dims, t.entries), construct_entangler(t)):
        restored = pickle.loads(pickle.dumps(result, protocol=protocol))
        for arr in (v for v in vars(restored).values() if isinstance(v, np.ndarray)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]


@pytest.mark.parametrize("dtype, build", [
    (np.complex128, lambda a: CoefficientTensor((256,), a).entries),
    (np.complex128, lambda a: CoefficientTensor.from_array(a).entries),
    (np.complex128, lambda a: StateVector((256,), a).amplitudes),
    (np.complex128, lambda a: MonomialGateMatrix(256, np.arange(256), a).value_of_row),
    (np.int64, lambda a: MonomialGateMatrix(256, a, np.ones(256)).col_of_row),
], ids=["tensor", "from_array", "state", "gate values", "gate columns"])
def test_a_callers_read_only_array_over_bytes_is_copied(dtype, build):
    # a read-only array over bytes is held as it is when the library made
    # it; a caller's may be written through a view numpy made writeable.
    # numpy unpickles an array of over 1000 bytes over the pickle's bytes,
    # writeable: here the caller keeps a view of it and makes it read-only
    own = pickle.loads(pickle.dumps(np.arange(256, dtype=dtype), protocol=4))
    view = own[:]
    own.setflags(write=False)
    assert type(own.base) is bytes and view.flags.writeable
    held = build(own)
    view[:2] = 1, 0
    assert held[:2].tolist() == [0, 1]
    with pytest.raises(ValueError):
        held.setflags(write=True)

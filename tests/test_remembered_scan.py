"""The separability scan of a tensor, whose entries are immutable, is
remembered while the tensor lives and read back by later verdicts and
certificates, at any tolerance, from any thread."""

import copy
import functools
import gc
import pickle
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidgate.segre as segre
import braidgate.tensorops as tensorops
from braidgate import (
    CoefficientTensor,
    ResourceLimitError,
    StateVector,
    certify_entangler,
    is_fully_separable,
    quadric_generators,
    random_phases,
    segre_map,
)
from braidgate.serialize import tensor_from_payload, tensor_to_payload


@pytest.fixture
def normalized_calls(monkeypatch):
    """The tensors passed to ``segre._nonzero_normalized``, in call order."""
    calls = []
    normalize = segre._nonzero_normalized

    def counted(tensor):
        calls.append(tensor)
        return normalize(tensor)

    monkeypatch.setattr(segre, "_nonzero_normalized", counted)
    return calls


def _fields(v):
    witness = None if v.witness is None else (v.witness.slot, v.witness.k, v.witness.l)
    return v.separable, v.max_violation.hex(), witness, v.tolerance_used, v.marginal


def _fresh(t):
    return CoefficientTensor(t.dims, t.entries)


def test_both_conventions_scan_the_tensor_once(normalized_calls):
    t = CoefficientTensor((3, 3, 3), np.exp(1j * np.arange(27.0)))
    theorem = certify_entangler(t, "theorem")
    paper = certify_entangler(t, "paper-matrix")
    assert sum(c is t for c in normalized_calls) == 1
    # the paper-matrix gate values are a tensor of their own, scanned once
    assert len(normalized_calls) == 2
    assert _fields(paper.coefficient_verdict) == _fields(theorem.coefficient_verdict)
    assert _fields(paper.coefficient_verdict) == _fields(is_fully_separable(_fresh(t)))


def test_verdicts_at_other_tolerances_read_the_remembered_scan(normalized_calls):
    rng = np.random.default_rng(3)
    product = functools.reduce(np.multiply.outer, [rng.normal(size=3) + 1j for _ in range(3)])
    t = CoefficientTensor.from_array(product + 1e-7 * rng.normal(size=product.shape))
    first = is_fully_separable(t, 1e-9)
    assert not first.separable and is_fully_separable(t, 1e-3).separable
    assert is_fully_separable(t, 1e-9) == first
    assert normalized_calls == [t]


@pytest.mark.parametrize("make", [
    lambda: CoefficientTensor((2, 3), np.arange(1.0, 7.0)),
    lambda: CoefficientTensor.from_array(np.arange(1.0, 9.0).reshape(2, 2, 2)),
    lambda: random_phases((3, 3), 4),
    lambda: segre_map([[1, 2j], [3, 4, 5]]),
    lambda: StateVector((2, 2), [1, 0, 0, 1j]).to_tensor(),
    lambda: tensor_from_payload(tensor_to_payload(random_phases((2, 2, 2), 5))),
], ids=["constructor", "from_array", "random_phases", "segre_map", "state", "payload"])
def test_every_built_tensor_remembers_its_scan(make, normalized_calls):
    t = make()
    assert not t.entries.flags.writeable
    first = is_fully_separable(t)
    assert _fields(is_fully_separable(t, 0.5)) == _fields(is_fully_separable(_fresh(t), 0.5))
    assert _fields(is_fully_separable(t)) == _fields(first)
    assert normalized_calls.count(t) == 1


shapes = st.lists(st.integers(1, 4), min_size=2, max_size=4)
tols = st.floats(1e-12, 1e-3)


@settings(max_examples=150, deadline=None)
@given(shapes, st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-10, 1e-7, 1e-4, 1.0]),
       tols, tols)
def test_a_second_verdict_equals_a_fresh_scan(dims, seed, noise, tol1, tol2):
    rng = np.random.default_rng(seed)
    product = functools.reduce(
        np.multiply.outer, [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])
    t = CoefficientTensor.from_array(product + noise * rng.normal(size=product.shape))
    assert _fields(is_fully_separable(t, tol1)) == _fields(is_fully_separable(_fresh(t), tol1))
    assert _fields(is_fully_separable(t, tol2)) == _fields(is_fully_separable(_fresh(t), tol2))


def test_entries_cannot_be_changed_under_a_remembered_scan(normalized_calls):
    # entries once made writeable, changed and made read-only again kept the
    # remembered scan of the old entries: this tensor was still separable
    t = CoefficientTensor((2, 2), [1, 1, 1, 1])
    first = is_fully_separable(t)
    assert first.separable
    with pytest.raises(ValueError):
        t.entries.setflags(write=True)
    # nor can their owner be written: it is an immutable bytes object
    assert type(t.entries.base) is bytes
    assert t.entries.tolist() == [1, 1, 1, 1]
    assert _fields(is_fully_separable(t)) == _fields(first)
    assert _fields(is_fully_separable(t)) == _fields(is_fully_separable(_fresh(t)))
    assert normalized_calls.count(t) == 1


@pytest.mark.parametrize("trip", [
    lambda t: pickle.loads(pickle.dumps(t, protocol=4)),
    lambda t: pickle.loads(pickle.dumps(t, protocol=5)),
    copy.deepcopy,
    copy.copy,
    lambda t: pickle.loads(pickle.dumps(t, protocol=2)),
    lambda t: pickle.loads(pickle.dumps(t, protocol=3)),
], ids=["pickle", "pickle-5", "deepcopy", "copy", "pickle-2", "pickle-3"])
def test_a_copy_remembers_nothing(trip, normalized_calls):
    # a copy once carried its original's remembered scan and writeable entries
    t = CoefficientTensor((2, 2), [1, 1, 1, 1])
    verdict = is_fully_separable(t)
    c = trip(t)
    assert set(vars(c)) == {"dims", "entries"} and c.dims == t.dims
    assert not c.entries.flags.writeable and c.entries.tobytes() == t.entries.tobytes()
    with pytest.raises(ValueError):
        c.entries.setflags(write=True)
    # the copy is scanned afresh, once; the original keeps its arrays and its scan
    assert _fields(is_fully_separable(c)) == _fields(verdict)
    assert _fields(is_fully_separable(c)) == _fields(verdict)
    assert sum(x is c for x in normalized_calls) == 1
    # a shallow copy shares the original's immutable entries
    assert (c.entries is t.entries) == (trip is copy.copy)
    assert _fields(is_fully_separable(t)) == _fields(verdict)
    assert sum(x is t for x in normalized_calls) == 1
    assert set(vars(t)) == {"dims", "entries"}


def test_a_refused_shape_remembers_nothing():
    t = CoefficientTensor((2,) * 11, np.ones(2**11))
    for call in (is_fully_separable, is_fully_separable, certify_entangler):
        with pytest.raises(ResourceLimitError):
            call(t)
        assert set(vars(t)) == {"dims", "entries"}


def test_a_scan_lives_and_dies_with_its_tensor(normalized_calls):
    t = CoefficientTensor((3, 3), np.arange(1.0, 10.0))
    for conv in ("theorem", "paper-matrix"):
        certify_entangler(t, conv)
    is_fully_separable(t, 0.5)
    # the scan is kept apart from the tensor, which holds its declared fields only
    assert set(vars(t)) == {"dims", "entries"} and t in segre._scans
    assert normalized_calls.count(t) == 1
    gone = weakref.ref(t)
    del normalized_calls[:]  # the fixture's list holds the tensor
    gc.collect()
    held = len(segre._scans)
    del t
    gc.collect()
    assert gone() is None and len(segre._scans) == held - 1


def test_a_refused_shape_leaves_no_scan():
    t = CoefficientTensor((2,) * 11, np.ones(2**11))
    for call in (is_fully_separable, certify_entangler):
        with pytest.raises(ResourceLimitError):
            call(t)
    assert t not in segre._scans


THREAD_SHAPES = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 2, 2), (3, 3, 3), (2,) * 4, (2,) * 5]


def _report(r):
    return (r.convention, r.unitary, r.unitarity_residual.hex(), _fields(r.entangling),
            _fields(r.coefficient_verdict))


def _answers(tensors):
    """Every verdict, both certificates and the generators of each tensor, in order."""
    out = []
    for t in tensors:
        out += [_fields(is_fully_separable(t)), _report(certify_entangler(t, "theorem")),
                _report(certify_entangler(t, "paper-matrix")), quadric_generators(t.dims)]
    return out


def test_threads_get_the_serial_answers():
    # four threads share the one structure cache, its lock and the
    # remembered scans, on shared tensors and on fresh ones of the same entries
    shared = [make(dims) for dims in THREAD_SHAPES for make in (
        lambda d: random_phases(d, sum(d)),
        lambda d: segre_map([np.arange(1.0, n + 1) + 1j for n in d]))]
    expected = _answers([_fresh(t) for t in shared])
    tensorops._tables.clear()
    start, results = threading.Barrier(4), {}

    def work(i):
        # each thread starts at its own tensor, 4 * i
        order = shared[4 * i:] + shared[:4 * i]
        start.wait()
        results[i] = _answers(order), _answers([_fresh(t) for t in order])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(results) == [0, 1, 2, 3]
    for i, answers in results.items():
        # four answers per tensor
        want = expected[16 * i:] + expected[:16 * i]
        assert answers == (want, want)
    assert all(set(vars(t)) == {"dims", "entries"} for t in shared)

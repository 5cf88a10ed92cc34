"""The separability scan is remembered on a read-only tensor and read back by
later verdicts and certificates, at any tolerance."""

import copy
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidgate.segre as segre
from braidgate import (
    CoefficientTensor,
    ResourceLimitError,
    StateVector,
    certify_entangler,
    is_fully_separable,
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


def test_writeable_entries_are_scanned_again(normalized_calls):
    t = CoefficientTensor((2, 2), [1, 1, 1, 1])
    assert is_fully_separable(t).separable
    t.entries.setflags(write=True)
    t.entries[3] = -1
    ghz = is_fully_separable(t)
    assert _fields(ghz) == _fields(is_fully_separable(CoefficientTensor((2, 2), [1, 1, 1, -1])))
    assert not ghz.separable and ghz.max_violation == 2.0
    # read-only again, the changed entries are scanned once more and kept
    t.entries.setflags(write=False)
    assert _fields(is_fully_separable(t)) == _fields(ghz)
    assert _fields(is_fully_separable(t)) == _fields(ghz)
    assert normalized_calls.count(t) == 3


@pytest.mark.parametrize("trip", [
    lambda t: pickle.loads(pickle.dumps(t, protocol=4)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_a_copy_remembers_nothing(trip):
    # a copy once carried its original's remembered scan and writeable entries,
    # so after the write below it was still reported separable
    t = CoefficientTensor((2, 2), [1, 1, 1, 1])
    assert is_fully_separable(t).separable
    c = trip(t)
    assert set(vars(c)) == {"dims", "entries"} and c.dims == t.dims
    assert not c.entries.flags.writeable and c.entries.tobytes() == t.entries.tobytes()
    # copy.copy shares the entries, so this write reaches t too (t keeps its old scan)
    c.entries.setflags(write=True)
    c.entries[3] = -1
    c.entries.setflags(write=False)
    ghz = CoefficientTensor((2, 2), [1, 1, 1, -1])
    assert _fields(is_fully_separable(c)) == _fields(is_fully_separable(ghz))


def test_a_protocol_5_pickle_remembers_nothing(normalized_calls):
    # protocol 5 (the default from Python 3.14) restores the read-only entries
    # as a view of immutable bytes, which cannot be made writeable at all
    t = CoefficientTensor((2, 2), [1, 1, 1, 1])
    verdict = is_fully_separable(t)
    c = pickle.loads(pickle.dumps(t, protocol=5))
    assert set(vars(c)) == {"dims", "entries"} and c.dims == t.dims
    assert not c.entries.flags.writeable and c.entries.tobytes() == t.entries.tobytes()
    with pytest.raises(ValueError):
        c.entries.setflags(write=True)
    assert _fields(is_fully_separable(c)) == _fields(verdict)
    assert sum(x is c for x in normalized_calls) == 1


def test_a_refused_shape_remembers_nothing():
    t = CoefficientTensor((2,) * 11, np.ones(2**11))
    for call in (is_fully_separable, is_fully_separable, certify_entangler):
        with pytest.raises(ResourceLimitError):
            call(t)
        assert set(vars(t)) == {"dims", "entries"}

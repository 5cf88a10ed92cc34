"""Tests of the benchmark itself: tiny sweeps pass, and every check catches a tampered output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import checks
import layers
import worker
import workloads
from braidgate import (
    BraidRelationReport,
    EntanglerReport,
    MonomialGateMatrix,
    SeparabilityVerdict,
    StateVector,
    YbeReport,
    quadric_generators,
)


@pytest.fixture(params=workloads.WORKLOADS)
def workload(request):
    return request.param


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_sweep_passes(workload, trace, tmp_path):
    s = worker.sweep(workload, 5, "tiny", trace, str(tmp_path / "work"))
    assert (s["failed"], s["n_problems"]) == (0, 0), s["problems"] + s["errors"]
    assert len(s["round_s"]) == workloads.SIZES[workload]["tiny"]["rounds"]
    # The reference loop is sampled before the first call, outside every round.
    assert s["ref_s"] and all(t > 0 for t in s["ref_s"])
    if trace:
        assert set(s["layers"]) == set(layers.METRICS[workload])
        assert all(v >= 0 for v in s["layers"].values())


def test_inputs_follow_the_seed(tmp_path):
    def first_tensor(seed):
        plan = workloads.build("sep-ladder", seed, "tiny", str(tmp_path), False)
        return plan.rounds[1][4].call.args[0].entries

    assert np.array_equal(first_tensor(3), first_tensor(3))
    assert not np.array_equal(first_tensor(3), first_tensor(4))


def _nudge(values):
    """The same values with the first entry moved by one ulp."""
    out = np.array(values, dtype=np.complex128)
    out[0] = complex(np.nextafter(out[0].real, np.inf), out[0].imag)
    return out


def _verdict_tampers(v: SeparabilityVerdict, arr=None):
    """Flip, shift, and (given the tensor judged) move the witness off the maximum."""
    yield dataclasses.replace(v, separable=not v.separable)
    yield dataclasses.replace(v, max_violation=v.max_violation + 1e-12)
    if v.witness is not None and arr is not None:
        norm = checks.peak_normalized(arr)
        for g in quadric_generators(arr.shape):
            if abs(checks.witness_minor(norm, g.slot, g.k, g.l) - v.max_violation) > 1e-9:
                yield dataclasses.replace(v, witness=g)
                break


def _cli_tampers(op, res):
    yield dataclasses.replace(res, code=3)

    def edited(change):
        p = json.loads(res.stdout)
        change(p)
        return dataclasses.replace(res, stdout=json.dumps(p).encode())

    name = op.span.split(".", 1)[1]
    if name == "random":
        yield edited(lambda p: p["entries"].pop())
    elif name == "construct":
        for key in ("R", "P", "tau"):
            yield edited(lambda p, key=key: p[key]["rows"].pop())
        yield edited(lambda p: p["R"]["rows"][1]["value"].__setitem__(0, 0.5))
    elif name == "entangle":
        yield edited(lambda p: p["amplitudes"].pop())
    elif name == "separability":
        yield edited(lambda p: p.__setitem__("separable", not p["separable"]))
        yield edited(lambda p: p.__setitem__("max_violation", p["max_violation"] + 1e-12))
        yield edited(lambda p: p.__setitem__("oracle_agrees", False))
    elif name == "generators":
        yield edited(lambda p: p["generators"].pop())
    elif name in ("ybe", "ybe_algebraic"):
        yield edited(lambda p: p.__setitem__("residual", p["residual"] + 1e-9))
        yield edited(lambda p: p.__setitem__("passed", not p["passed"]))
    elif name == "braid":
        yield edited(lambda p: p["relations"].pop())
        yield edited(lambda p: p["relations"][0].__setitem__("residual", 1e-9))
    else:
        raise AssertionError(f"no tamper for {op.span}")


def tampers(op, out):
    """Wrong versions of one op's output; every one must fail the op's check."""
    if isinstance(out, workloads.CliResult):
        yield from _cli_tampers(op, out)
    elif isinstance(out, SeparabilityVerdict):
        yield from _verdict_tampers(out, op.call.args[0].as_array())
    elif isinstance(out, (bool, np.bool_)):
        if op.tags["input"] != "near-1e-8":  # inside the marginal band either answer holds
            yield not out
    elif isinstance(out, MonomialGateMatrix):
        yield MonomialGateMatrix(out.n, out.col_of_row, _nudge(out.value_of_row))
        if out.n > 2:
            cols = out.col_of_row.copy()
            cols[[1, 2]] = cols[[2, 1]]
            yield MonomialGateMatrix(out.n, cols, out.value_of_row)
    elif isinstance(out, StateVector):
        yield StateVector(out.dims, _nudge(out.amplitudes))
    elif isinstance(out, YbeReport):
        yield dataclasses.replace(out, residual=out.residual + 1e-9)
        yield dataclasses.replace(out, passed=not out.passed)
    elif isinstance(out, BraidRelationReport):
        yield dataclasses.replace(out, checks=out.checks[:-1])
        bad = dataclasses.replace(out.checks[0], residual=1e-9)
        yield dataclasses.replace(out, checks=(bad,) + out.checks[1:])
    elif isinstance(out, EntanglerReport):
        yield dataclasses.replace(out, unitary=not out.unitary)
        yield dataclasses.replace(out, unitarity_residual=out.unitarity_residual + 1e-9)
        for v in _verdict_tampers(out.entangling):
            yield dataclasses.replace(out, entangling=v)
        for v in _verdict_tampers(out.coefficient_verdict, op.call.args[0].as_array()):
            yield dataclasses.replace(out, coefficient_verdict=v)
    else:
        raise AssertionError(f"no tamper for {op.span}: {type(out)}")


def test_every_check_catches_a_tampered_output(workload, tmp_path):
    plan = workloads.build(workload, 7, "tiny", str(tmp_path / "work"), False)
    try:
        ops = plan.rounds[0]
        tried = set()
        for op in ops:
            out = op.call()
            assert op.check(out) == [], (op.span, op.tags)
            for bad in tampers(op, out):
                assert op.check(bad), (op.span, op.tags, bad)
                tried.add(op.span)
        assert tried == {op.span for op in ops}
    finally:
        plan.close()

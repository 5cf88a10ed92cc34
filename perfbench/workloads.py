"""The three workloads: seeded inputs, the calls of each round, and their checks.

A workload is a list of rounds. Every round makes the same calls, in the
same order, on fresh inputs drawn from ``default_rng([seed, round])``; all
inputs are made before the first round, so input generation is set-up.
Each call is an :class:`Op`: the public function it times, the span name
it is recorded under, and a check of its output against ``checks``.
Traced runs add probe ops after each round; they are never timed as part
of a round.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
from braidgate import (
    CoefficientTensor,
    apply_entangler,
    certify_entangler,
    check_algebraic_yang_baxter,
    check_braid_relations,
    check_yang_baxter,
    construct_entangler,
    is_fully_separable,
    is_unitary,
    kron,
    phase_gate,
    quadric_generators,
    rank1_oracle,
    serialize,
    to_algebraic,
)

# Round counts and shapes; "tiny" serves the tests and, in a traced run,
# the layers of the other in-process workload. ``cli`` runs at "full" size
# only as the layer sweep of traced runs (see ``run.LAYER_SWEEPS``).
SIZES = {
    "sep-ladder": {
        "full": dict(
            rounds=21,
            shapes=[(2, 2), (3, 3), (4, 4), (6, 6), (2, 2, 2), (2, 3, 4), (3, 3, 3),
                    (4, 4, 4), (5, 5, 5), (6, 6, 6), (2, 2, 2, 2), (3, 3, 3, 3),
                    (2,) * 6, (3,) * 5, (2,) * 8],
        ),
        "tiny": dict(rounds=3, shapes=[(2, 2), (3, 3), (2, 2, 2), (2, 3, 4)]),
    },
    "gates": {
        "full": dict(
            rounds=4,
            shapes=[(2, 2), (3, 3), (4, 4), (6, 6), (2, 2, 2), (3, 3, 3), (4, 4, 4),
                    (5, 5, 5), (6, 6, 6), (2, 2, 2, 2), (3, 3, 3, 3), (2,) * 6],
            ybe_dims=range(2, 9),
            nonsolution_dim=3,
            braids=[(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4),
                    (3, 5), (4, 3), (4, 4)],
        ),
        "tiny": dict(rounds=3, shapes=[(2, 2), (3, 3), (2, 2, 2)], ybe_dims=range(2, 4),
                     nonsolution_dim=2, braids=[(2, 3), (2, 4), (3, 3)]),
    },
    "cli": {
        "full": dict(rounds=3, tensor=(4, 4, 4), generators=(4, 4, 4), nonsolution_dim=3,
                     algebraic_dim=4, braid=(3, 4)),
        "tiny": dict(rounds=2, tensor=(2, 2, 2), generators=(2, 2), nonsolution_dim=2,
                     algebraic_dim=2, braid=(2, 3)),
    },
}

WORKLOADS = tuple(SIZES)
CONVENTIONS = ("theorem", "paper-matrix")


@dataclass
class Op:
    span: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    tags: dict = field(default_factory=dict)
    # Counts taken from the output into the op's span (traced runs only).
    counts: Callable[[Any], dict] | None = None


@dataclass
class Plan:
    rounds: list[list[Op]]
    probes: list[list[Op]]
    workdir: str | None = None

    def close(self) -> None:
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


def build(workload: str, seed: int, size: str, workdir: str, trace: bool) -> Plan:
    """All rounds of one sweep; probe ops are made only for a traced sweep."""
    cfg = SIZES[workload][size]
    make = {"sep-ladder": _sep_round, "gates": _gates_round, "cli": _cli_round}[workload]
    if workload == "cli":
        os.makedirs(workdir, exist_ok=True)
    else:
        workdir = None
    pairs = [make(np.random.default_rng([seed, r]), cfg, seed=seed * 1000 + r, workdir=workdir,
                  r=r, trace=trace) for r in range(cfg["rounds"])]
    return Plan([ops for ops, _ in pairs], [probes for _, probes in pairs], workdir)


def _gauss(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unimodular(rng, shape) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))


def _outer(vectors) -> np.ndarray:
    return functools.reduce(np.multiply.outer, vectors)


def _ghz(rng, dims) -> np.ndarray:
    arr = np.zeros(dims, dtype=np.complex128)
    for i in range(min(dims)):
        arr[(i,) * len(dims)] = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return arr


def _witness(w):
    return None if w is None else (w.slot, w.k, w.l)


def _fields(v):
    return v.separable, v.max_violation, _witness(v.witness)


# --- sep-ladder ----------------------------------------------------------------


def _sep_inputs(rng, dims):
    """(name, tensor, known class) for one shape; near-separable ones have no class."""
    product = _outer([_gauss(rng, d) for d in dims])
    product = product / np.abs(product).max()
    return [
        ("product", product, True),
        ("ghz", _ghz(rng, dims), False),
        ("gaussian", _gauss(rng, dims), False),
        ("near-1e-3", product + 1e-3 * _gauss(rng, dims), None),
        ("near-1e-8", product + 1e-8 * _gauss(rng, dims), None),
    ]


def _sep_round(rng, cfg, **_):
    ops = []
    for dims in cfg["shapes"]:
        for name, arr, expect in _sep_inputs(rng, dims):
            tensor = CoefficientTensor.from_array(arr)
            ref = checks.Reference(arr)
            tags = {"dims": list(dims), "input": name}
            ops.append(Op(
                "segre.is_fully_separable",
                functools.partial(is_fully_separable, tensor),
                lambda v, ref=ref, expect=expect: checks.check_verdict(ref, *_fields(v), expect),
                tags,
            ))
            ops.append(Op(
                "segre.rank1_oracle",
                functools.partial(rank1_oracle, tensor),
                functools.partial(checks.check_oracle, ref),
                tags,
            ))
    return ops, []


# --- gates ---------------------------------------------------------------------


def _gate_inputs(rng, dims):
    return [
        ("phases", _unimodular(rng, dims), False),
        ("gaussian", _gauss(rng, dims), False),
        ("unimodular-product", _outer([_unimodular(rng, d) for d in dims]), True),
    ]


def _check_construct(entries, convention, gate):
    cols, values = checks.entangler_layout(entries, convention)
    return checks.check_monomial(gate.col_of_row, gate.value_of_row, cols, values, "R")


def _check_phase_gate(entries, convention, tau):
    _, values = checks.entangler_layout(entries, convention)
    return checks.check_monomial(tau.col_of_row, tau.value_of_row, np.arange(entries.size),
                                 values, "tau")


def _check_apply(entries, convention, state):
    _, values = checks.entangler_layout(entries, convention)
    if checks.same_bits(state.amplitudes, values):
        return []
    return [f"{convention}: R|1...1> differs from the expected amplitudes"]


def _check_certify(entries, dims, convention, expect, rep):
    return checks.check_certificate(
        entries, dims, convention, rep.unitary, rep.unitarity_residual,
        _fields(rep.entangling), _fields(rep.coefficient_verdict), expect,
    )


def _check_solution(rep):
    return checks.check_ybe(rep.residual, rep.passed)


def _check_nonsolution(reference, x, d, rep):
    return checks.check_ybe(rep.residual, rep.passed, reference(x, d))


def _check_relations(rep):
    rel = [(c.kind, c.i, c.j, c.residual, c.passed) for c in rep.checks]
    return checks.check_relations(rep.n_strands, rep.passed, rel)


def _gates_round(rng, cfg, trace, **_):
    ops = []
    largest = None
    for dims in cfg["shapes"]:
        for name, arr, expect in _gate_inputs(rng, dims):
            tensor = CoefficientTensor.from_array(arr)
            entries = arr.reshape(-1)
            tags = {"dims": list(dims), "input": name}
            for conv in CONVENTIONS:
                t = dict(tags, convention=conv)
                ops += [
                    Op("entangler.construct_entangler",
                       functools.partial(construct_entangler, tensor, conv),
                       functools.partial(_check_construct, entries, conv), t),
                    Op("entangler.phase_gate", functools.partial(phase_gate, tensor, conv),
                       functools.partial(_check_phase_gate, entries, conv), t),
                    Op("entangler.apply_entangler",
                       functools.partial(apply_entangler, tensor, conv),
                       functools.partial(_check_apply, entries, conv), t),
                    Op("entangler.certify_entangler",
                       functools.partial(certify_entangler, tensor, conv),
                       functools.partial(_check_certify, entries, dims, conv, expect), t),
                ]
            if name == "phases" and (largest is None or entries.size > largest.size):
                largest = entries
    top = max(cfg["ybe_dims"])
    for d in cfg["ybe_dims"]:
        r = checks.phase_swap(_unimodular(rng, (d, d)))
        tags = {"d": d, "top": d == top}
        ops.append(Op("braid.check_yang_baxter", functools.partial(check_yang_baxter, r, d),
                      _check_solution, tags))
        ops.append(Op("braid.check_algebraic_yang_baxter",
                      functools.partial(_algebraic_of_braided, r, d), _check_solution, tags))
    d = cfg["nonsolution_dim"]
    bad = _gauss(rng, (d * d, d * d)) / d
    ops.append(Op("braid.check_yang_baxter", functools.partial(check_yang_baxter, bad, d),
                  functools.partial(_check_nonsolution, checks.ybe_residual, bad, d),
                  {"d": d, "top": False, "input": "non-solution"}))
    ops.append(Op("braid.check_algebraic_yang_baxter",
                  functools.partial(check_algebraic_yang_baxter, bad, d),
                  functools.partial(_check_nonsolution, checks.algebraic_residual, bad, d),
                  {"d": d, "top": False, "input": "non-solution"}))
    top = max(cfg["braids"], key=lambda dn: (dn[0] ** dn[1], dn[1]))
    for d, n in cfg["braids"]:
        r = checks.phase_swap(_unimodular(rng, (d, d)))
        ops.append(Op("braid.check_braid_relations",
                      functools.partial(check_braid_relations, r, d, n),
                      _check_relations,
                      {"d": d, "strands": n, "top": (d, n) == top},
                      lambda rep: {"reported": len(rep.checks)}))
    if not trace:
        return ops, []
    big = max(cfg["ybe_dims"])
    r_big = checks.phase_swap(_unimodular(rng, (big, big)))
    cols, values = checks.entangler_layout(largest, "theorem")
    dense = np.zeros((largest.size, largest.size), dtype=np.complex128)
    dense[np.arange(largest.size), cols] = values
    probes = [
        Op("tensorops.is_unitary", functools.partial(is_unitary, dense),
           lambda res: [] if res[0] else ["dense gate of unimodular phases is not unitary"],
           {"n": largest.size}),
        Op("tensorops.kron", functools.partial(kron, r_big, np.eye(big)),
           lambda out, n=big**3: [] if out.shape == (n, n) else [f"kron shape {out.shape}"],
           {"d": big}),
    ]
    return ops, probes


def _algebraic_of_braided(r, d):
    return check_algebraic_yang_baxter(to_algebraic(r, d), d)


# --- cli -----------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


def run_python(args) -> CliResult:
    proc = subprocess.run([sys.executable, *args], capture_output=True, timeout=120)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _cli(argv) -> CliResult:
    return run_python(["-m", "braidgate.cli", *argv])


def _cli_bytes(res: CliResult) -> dict:
    return {"stdout_bytes": len(res.stdout), "stderr_bytes": len(res.stderr)}


def _payload(res: CliResult, code: int):
    """The parsed stdout, or the problems that stop it being checked."""
    if res.code != code:
        return None, [f"exit code {res.code}, expected {code}"]
    try:
        return json.loads(res.stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _cli_check(code, check):
    def run(res):
        payload, problems = _payload(res, code)
        if payload is None:
            return problems
        try:
            return check(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed payload: {exc!r}"]
    return run


def _check_random(dims, seed, p):
    want = checks.seeded_phases(dims, seed)
    if p["dims"] != list(dims) or not checks.same_bits(checks.pairs(p["entries"]), want):
        return ["random tensor differs from the seeded generator"]
    return []


def _check_construct_payload(entries, p):
    n = entries.size
    cols, values = checks.entangler_layout(entries, "theorem")
    out = [] if p["convention"] == "theorem" and p["n"] == n else ["wrong convention or n"]
    for key, want_cols, want_values in (("R", cols, values),
                                        ("P", cols, np.ones(n, dtype=np.complex128)),
                                        ("tau", np.arange(n), values)):
        got_cols, got_values = checks.monomial_rows(p[key])
        if got_cols is None:
            out.append(f"{key} rows are not numbered 1..n")
        else:
            out += checks.check_monomial(got_cols, got_values, want_cols, want_values, key)
    return out


def _check_entangle_payload(entries, p):
    if checks.same_bits(checks.pairs(p["amplitudes"]), entries):
        return []
    return ["entangle amplitudes differ from the coefficients"]


def _check_separability_payload(ref, p):
    w = p["witness"]
    witness = None if w is None else (w["j"], w["k"], w["l"])
    out = checks.check_verdict(ref, p["separable"], p["max_violation"], witness, False)
    oracle = p["separable"] == bool(p["oracle_agrees"])
    out += checks.check_oracle(ref, oracle)
    if p["oracle_agrees"] is not True:
        out.append("oracle_agrees is not true")
    return out


def _check_generators_payload(count, p):
    if p["count"] != count or len(p["generators"]) != count:
        return [f"{p['count']} generators ({len(p['generators'])} listed), expected {count}"]
    return []


def _check_ybe_payload(d, form, ref, p):
    out = checks.check_ybe(p["residual"], p["passed"], ref)
    if p["dim"] != d or p["form"] != form:
        out.append(f"payload dim/form {p['dim']}/{p['form']}, expected {d}/{form}")
    return out


def _check_braid_payload(n, p):
    rel = [(x["kind"], x["i"], x["j"], x["residual"], x["passed"]) for x in p["relations"]]
    return checks.check_relations(p["strands"], p["passed"], rel) + (
        [] if p["strands"] == n else [f"strands {p['strands']}, expected {n}"])


def _write(path, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _cli_round(rng, cfg, seed, workdir, r, trace):
    tdims = cfg["tensor"]
    arr = _gauss(rng, tdims)
    entries = arr.reshape(-1)
    tensor_file = _write(os.path.join(workdir, f"tensor-{r}.json"),
                         {"dims": list(tdims),
                          "entries": [[z.real, z.imag] for z in entries.tolist()]})
    d = cfg["nonsolution_dim"]
    bad = _gauss(rng, (d * d, d * d)) / d
    matrix_file = _write(os.path.join(workdir, f"matrix-{r}.json"),
                         {"rows": [[[z.real, z.imag] for z in row] for row in bad.tolist()]})
    rdims = ",".join(map(str, tdims))
    gdims = cfg["generators"]
    ad = cfg["algebraic_dim"]
    bd, bn = cfg["braid"]
    ops = [
        Op("cli.random", functools.partial(_cli, ["random", "--dims", rdims, "--seed", str(seed)]),
           _cli_check(0, functools.partial(_check_random, tdims, seed))),
        Op("cli.construct", functools.partial(_cli, ["construct", "--input", tensor_file]),
           _cli_check(0, functools.partial(_check_construct_payload, entries))),
        Op("cli.entangle", functools.partial(_cli, ["entangle", "--input", tensor_file]),
           _cli_check(0, functools.partial(_check_entangle_payload, entries))),
        Op("cli.separability", functools.partial(_cli, ["separability", "--input", tensor_file]),
           _cli_check(0, functools.partial(_check_separability_payload,
                                           checks.Reference(arr)))),
        Op("cli.generators",
           functools.partial(_cli, ["generators", "--dims", ",".join(map(str, gdims))]),
           _cli_check(0, lambda p: _check_generators_payload(
               checks.distinct_minor_count(gdims), p))),
        Op("cli.ybe", functools.partial(_cli, ["ybe", "--input", matrix_file]),
           _cli_check(1, lambda p: _check_ybe_payload(
               d, "braided", checks.ybe_residual(bad, d), p))),
        Op("cli.ybe_algebraic",
           functools.partial(_cli, ["ybe", "--form", "algebraic", "--phases",
                                    "--dims", f"{ad},{ad}", "--seed", str(seed)]),
           _cli_check(0, lambda p: _check_ybe_payload(ad, "algebraic", None, p))),
        Op("cli.braid",
           functools.partial(_cli, ["braid", "--phases", "--dims", f"{bd},{bd}",
                                    "--seed", str(seed), "--strands", str(bn)]),
           _cli_check(0, functools.partial(_check_braid_payload, bn))),
    ]
    for op in ops:
        op.counts = _cli_bytes
    if not trace:
        return ops, []
    gens = {"dims": list(gdims), "generators": [serialize.generator_to_payload(g)
                                                for g in quadric_generators(gdims)]}
    probes = [
        Op("cli.interpreter", functools.partial(run_python, ["-c", "pass"]),
           lambda res: [] if res.code == 0 else ["python -c pass failed"]),
        Op("cli.import", functools.partial(run_python, ["-c", "import braidgate"]),
           lambda res: [] if res.code == 0 else ["import braidgate failed"]),
        Op("serialize.parse", functools.partial(_parse_inputs, tensor_file, matrix_file),
           lambda got: [] if checks.same_bits(got[0].entries, entries)
           and checks.same_bits(got[1], bad) else ["parsed inputs differ from the written ones"]),
        Op("serialize.emit",
           functools.partial(serialize.emit_json, gens,
                             os.path.join(workdir, f"emit-{r}.json")),
           lambda _: []),
    ]
    return ops, probes


def _parse_inputs(tensor_file, matrix_file):
    return (serialize.tensor_from_payload(serialize.load_json(tensor_file)),
            serialize.matrix_from_payload(serialize.load_json(matrix_file)))

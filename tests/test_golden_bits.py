"""Golden bits: the exact outputs of a fixed, seeded corpus.

``golden_bits.json`` holds, per named case, what the library returned for
it: every float as ``float.hex``, every flag, and every witness as
``[slot, k, l]``. The cases cover each shape of the benchmark's
``sep-ladder`` and ``gates`` workloads with Gaussian, GHZ, near-product and
unimodular inputs (separability verdicts, the rank-1 oracle and
certificates under both conventions), the Yang-Baxter and algebraic
residuals of the d = 2..8 phase swaps and of one dense d = 3 R, the
residuals of the two-slot gates read as R, and the braid relations of the
workload's (d, strands) pairs. A change that moves any bit fails the case
that holds it, by name.

The inputs are drawn when the test runs, from numpy's PCG64 generator with
fixed seeds. Only a deliberate change of bits, named in CHANGES.md, may
write the file again:

    PYTHONPATH=src python tests/test_golden_bits.py --write
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from braidgate import (
    CoefficientTensor,
    certify_entangler,
    check_algebraic_yang_baxter,
    check_braid_relations,
    check_yang_baxter,
    construct_entangler,
    is_fully_separable,
    r_from_phase_matrix,
    rank1_oracle,
    to_algebraic,
)

CORPUS = pathlib.Path(__file__).with_name("golden_bits.json")
SEED = 2026

# the shapes of the sep-ladder workload, which include every gates shape
SHAPES = [(2, 2), (3, 3), (4, 4), (6, 6), (2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 4, 4),
          (5, 5, 5), (6, 6, 6), (2, 2, 2, 2), (3, 3, 3, 3), (2,) * 6, (3,) * 5, (2,) * 8]
KINDS = ("gaussian", "ghz", "near-product", "unimodular")
CONVENTIONS = ("theorem", "paper-matrix")
YBE_DIMS = range(2, 9)
BRAIDS = [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5), (4, 3),
          (4, 4)]


def gauss(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def unimodular(rng, shape):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))


def tensor(dims, kind):
    rng = np.random.default_rng([SEED, *dims, KINDS.index(kind)])
    if kind == "gaussian":
        arr = gauss(rng, dims)
    elif kind == "unimodular":
        arr = unimodular(rng, dims)
    elif kind == "ghz":
        arr = np.zeros(dims, dtype=np.complex128)
        for i in range(min(dims)):
            arr[(i,) * len(dims)] = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    else:
        product = np.ones((), dtype=np.complex128)
        for d in dims:
            product = np.multiply.outer(product, gauss(rng, d))
        arr = product / np.abs(product).max() + 1e-3 * gauss(rng, dims)
    return CoefficientTensor.from_array(arr)


def hexed(x):
    return float(x).hex()


def verdict(v):
    w = v.witness
    return [v.separable, hexed(v.max_violation), None if w is None else [w.slot, w.k, w.l]]


def separability_case(dims, kind):
    t = tensor(dims, kind)
    return {"verdict": verdict(is_fully_separable(t)), "rank1_oracle": rank1_oracle(t)}


def certify_case(dims, kind, convention):
    rep = certify_entangler(tensor(dims, kind), convention)
    return {"unitary": rep.unitary, "unitarity_residual": hexed(rep.unitarity_residual),
            "entangling": verdict(rep.entangling), "coefficient": verdict(rep.coefficient_verdict)}


def ybe_pair(r, d):
    return {"ybe": hexed(check_yang_baxter(r, d).residual),
            "algebraic": hexed(check_algebraic_yang_baxter(to_algebraic(r, d), d).residual),
            "algebraic_of_r": hexed(check_algebraic_yang_baxter(r, d).residual)}


def phase_swap_case(d, kind):
    rng = np.random.default_rng([SEED, d, 100 + ("unimodular", "gaussian").index(kind)])
    phases = unimodular(rng, (d, d)) if kind == "unimodular" else gauss(rng, (d, d))
    return ybe_pair(r_from_phase_matrix(phases), d)


def dense_case():
    rng = np.random.default_rng([SEED, 3, 200])
    return ybe_pair(gauss(rng, (9, 9)) / 3, 3)


def gate_ybe_case(dims, kind, convention):
    r = construct_entangler(tensor(dims, kind), convention).dense()
    return {"ybe": hexed(check_yang_baxter(r, dims[0]).residual)}


def relations_case(d, n):
    rng = np.random.default_rng([SEED, d, n, 300])
    rep = check_braid_relations(r_from_phase_matrix(unimodular(rng, (d, d))), d, n)
    return {"passed": rep.passed,
            "checks": [[c.kind, c.i, c.j, hexed(c.residual), c.passed] for c in rep.checks]}


def cases():
    """Every case of the corpus: its name and a call that computes its record."""
    out = {}
    for dims in SHAPES:
        for kind in KINDS:
            out[f"separability {dims} {kind}"] = lambda dims=dims, kind=kind: (
                separability_case(dims, kind))
            if len(set(dims)) > 1:
                continue
            for conv in CONVENTIONS:
                out[f"certify {dims} {kind} {conv}"] = lambda dims=dims, kind=kind, conv=conv: (
                    certify_case(dims, kind, conv))
                if len(dims) == 2:
                    out[f"gate ybe {dims} {kind} {conv}"] = (
                        lambda dims=dims, kind=kind, conv=conv: gate_ybe_case(dims, kind, conv))
    for d in YBE_DIMS:
        for kind in ("unimodular", "gaussian"):
            out[f"phase swap d={d} {kind}"] = lambda d=d, kind=kind: phase_swap_case(d, kind)
    out["dense d=3"] = dense_case
    for d, n in BRAIDS:
        out[f"relations d={d} n={n}"] = lambda d=d, n=n: relations_case(d, n)
    return out


CASES = cases()


def record(name):
    # through JSON, so tuples compare as the lists the file holds
    return json.loads(json.dumps(CASES[name]()))


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_names_every_case(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bits(corpus, name):
    assert record(name) == corpus[name]


def test_corpus_reaches_both_yang_baxter_paths_and_empty_rows():
    # the dense R has no zero entry, and a GHZ gate read as R has all-zero
    # rows (monomial with empty rows)
    rng = np.random.default_rng([SEED, 3, 200])
    assert np.all(gauss(rng, (9, 9)) != 0)
    gate = construct_entangler(tensor((3, 3), "ghz"), "theorem").dense()
    assert (np.abs(gate).sum(axis=1) == 0).any()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    # one case a line, so a change of bits shows as the lines of its cases
    lines = (f"{json.dumps(name)}: {json.dumps(record(name))}" for name in sorted(CASES))
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")

"""End-to-end CLI behavior: JSON schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidgate
import braidgate.cli as cli_module
import braidgate.entangler as entangler_module
from braidgate import (
    CoefficientTensor,
    is_fully_separable,
    pattern_permutation,
    phase_gate,
    random_phases,
)
from braidgate.cli import main
from braidgate.segre import _generator_table
from braidgate.serialize import (
    matrix_from_payload,
    matrix_to_payload,
    monomial_to_payload,
    tensor_from_payload,
    tensor_to_payload,
    verdict_to_payload,
)

BELL_PAYLOAD = {"dims": [2, 2], "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
# (1,1,2) (x) (1,1,1) as a flat lex-ordered tensor
PRODUCT_PAYLOAD = {
    "dims": [3, 3],
    "entries": [[1, 0]] * 6 + [[2, 0]] * 3,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_random_is_deterministic_and_unimodular(capsys):
    code1, out1, _ = run_cli(capsys, "random", "--dims", "3,3", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "random", "--dims", "3,3", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["dims"] == [3, 3]
    moduli = [abs(complex(re, im)) for re, im in payload["entries"]]
    assert max(abs(m - 1.0) for m in moduli) < 1e-15


def test_random_round_trips_bit_identically(capsys):
    _, out, _ = run_cli(capsys, "random", "--dims", "2,3,2", "--seed", "7")
    parsed = tensor_from_payload(json.loads(out))
    direct = random_phases((2, 3, 2), 7)
    assert np.array_equal(parsed.entries, direct.entries)


def test_construct_emits_golden_triples(tmp_path, capsys):
    markers = {
        "dims": [3, 3],
        "entries": [[float(v), 0.0] for v in range(1, 10)],
    }
    path = write_json(tmp_path, "markers.json", markers)
    code, out, _ = run_cli(
        capsys, "construct", "--input", path, "--convention", "paper-matrix"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 9
    triples = [(row["row"], row["col"], row["value"][0]) for row in payload["R"]["rows"]]
    assert triples == [
        (1, 1, 1.0), (2, 8, 8.0), (3, 7, 7.0), (4, 6, 6.0), (5, 5, 5.0),
        (6, 4, 4.0), (7, 3, 3.0), (8, 2, 2.0), (9, 9, 9.0),
    ]
    p_triples = [(row["row"], row["col"], row["value"][0]) for row in payload["P"]["rows"]]
    assert p_triples == [
        (1, 1, 1.0), (2, 8, 1.0), (3, 7, 1.0), (4, 6, 1.0), (5, 5, 1.0),
        (6, 4, 1.0), (7, 3, 1.0), (8, 2, 1.0), (9, 9, 1.0),
    ]
    tau_values = [row["value"][0] for row in payload["tau"]["rows"]]
    assert tau_values == [1.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 9.0]
    assert all(row["row"] == row["col"] for row in payload["tau"]["rows"])


def test_construct_theorem_tau_is_lex_ordered(tmp_path, capsys):
    markers = {"dims": [3, 3], "entries": [[float(v), 0.0] for v in range(1, 10)]}
    path = write_json(tmp_path, "markers.json", markers)
    code, out, _ = run_cli(capsys, "construct", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert [row["value"][0] for row in payload["tau"]["rows"]] == [float(v) for v in range(1, 10)]


def test_construct_builds_the_gate_once_with_unchanged_bytes(tmp_path, capsys, monkeypatch):
    calls = []
    build = entangler_module.construct_entangler

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    rng = np.random.default_rng(91)
    for dims in [(3, 3), (2, 2, 2)]:
        entries = rng.normal(size=(math.prod(dims), 2))
        entries[1] = [-0.0, 0.5]
        entries[2] = [0.25, -0.0]
        path = write_json(tmp_path, "t.json", {"dims": list(dims), "entries": entries.tolist()})
        tensor = tensor_from_payload(json.loads(Path(path).read_text()))
        for conv in ("paper-matrix", "theorem"):
            # the payload as assembled before tau was read from the built gate
            gate = build(tensor, conv)
            expected = json.dumps({
                "convention": conv,
                "n": gate.n,
                "R": monomial_to_payload(gate),
                "P": monomial_to_payload(pattern_permutation(gate.n)),
                "tau": monomial_to_payload(phase_gate(tensor, conv)),
            }, indent=2) + "\n"
            with monkeypatch.context() as m:
                m.setattr(cli_module, "construct_entangler", counting)
                m.setattr(entangler_module, "construct_entangler", counting)
                calls.clear()
                code, out, _ = run_cli(capsys, "construct", "--input", path, "--convention", conv)
            assert code == 0
            assert len(calls) == 1
            assert out == expected


def test_construct_rejects_non_uniform_dims(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"dims": [2, 3], "entries": [[1, 0]] * 6})
    code, _, err = run_cli(capsys, "construct", "--input", path)
    assert code == 2
    assert "error" in err


def test_entangle_theorem_returns_entries(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "random", "--dims", "3,3", "--seed", "3")
    tensor_payload = json.loads(out)
    path = write_json(tmp_path, "t.json", tensor_payload)
    code, out, _ = run_cli(capsys, "entangle", "--input", path)
    assert code == 0
    state = json.loads(out)
    assert state["dims"] == [3, 3]
    assert state["amplitudes"] == tensor_payload["entries"]


def test_entangle_keeps_the_sign_of_zero(tmp_path, capsys):
    entries = [[-0.0, -1.0], [0.5, -0.0], [1.0, 0.0], [-0.0, -0.0]]
    path = write_json(tmp_path, "zeros.json", {"dims": [2, 2], "entries": entries})
    code, out, _ = run_cli(capsys, "entangle", "--input", path)
    assert code == 0
    amplitudes = json.loads(out)["amplitudes"]
    assert [[math.copysign(1.0, x) for x in pair] for pair in amplitudes] == [
        [math.copysign(1.0, x) for x in pair] for pair in entries
    ]


def test_separability_bell(tmp_path, capsys):
    path = write_json(tmp_path, "bell.json", BELL_PAYLOAD)
    code, out, _ = run_cli(capsys, "separability", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is False
    assert payload["max_violation"] == 1.0
    assert payload["witness"] == {"j": 1, "k": [1, 1], "l": [2, 2]}
    assert payload["oracle_agrees"] is True
    assert payload["marginal"] is False


def test_separability_product_state(tmp_path, capsys):
    path = write_json(tmp_path, "prod.json", PRODUCT_PAYLOAD)
    code, out, _ = run_cli(capsys, "separability", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is True
    assert payload["witness"] is None
    assert payload["oracle_agrees"] is True


def test_divergence_probe_via_cli_pipeline(tmp_path, capsys):
    path = write_json(tmp_path, "prod.json", PRODUCT_PAYLOAD)
    code, out, _ = run_cli(
        capsys, "entangle", "--input", path, "--convention", "paper-matrix"
    )
    assert code == 0
    state = json.loads(out)
    entangled_file = write_json(
        tmp_path, "out.json", {"dims": state["dims"], "entries": state["amplitudes"]}
    )
    code, out, _ = run_cli(capsys, "separability", "--input", entangled_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is False
    assert payload["max_violation"] == 0.5


def test_generators_counts(capsys):
    code, out, _ = run_cli(capsys, "generators", "--dims", "2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["generators"] == [{"j": 1, "k": [1, 1], "l": [2, 2]}]
    code, out, _ = run_cli(capsys, "generators", "--dims", "3,3")
    assert code == 0
    assert json.loads(out)["count"] == 9


def test_generators_zero_count_shape_allocates_nothing(capsys):
    _generator_table.cache_clear()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "generators", "--dims", "10000000,1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert json.loads(out) == {"dims": [10000000, 1], "count": 0, "generators": []}
    assert peak < 2**20


def test_ybe_from_seeded_phases(capsys):
    code, out, _ = run_cli(
        capsys, "ybe", "--phases", "--dims", "3,3", "--seed", "42"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["residual"] < 1e-12
    assert payload["dim"] == 3
    assert payload["form"] == "braided"


def test_ybe_swap_and_perturbed_swap(tmp_path, capsys):
    path = write_json(tmp_path, "swap.json", {"rows": [
        [[1, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0], [0, 0]],
        [[0, 0], [1, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [1, 0]],
    ]})
    code, out, _ = run_cli(capsys, "ybe", "--input", path)
    assert code == 0
    assert json.loads(out)["residual"] == 0.0

    # a structurally new nonzero breaks the YBE with residual eps^2
    perturbed = write_json(tmp_path, "swap_bad.json", {"rows": [
        [[1, 0], [0.001, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0], [0, 0]],
        [[0, 0], [1, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [1, 0]],
    ]})
    code, out, _ = run_cli(capsys, "ybe", "--input", perturbed)
    assert code == 1
    assert json.loads(out)["residual"] >= 1e-7


def test_ybe_from_entangler_tensor(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "signs.json",
        {"dims": [2, 2], "entries": [[1, 0], [1, 0], [1, 0], [-1, 0]]},
    )
    code, out, _ = run_cli(capsys, "ybe", "--input", path)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-12


def test_ybe_algebraic_form(capsys):
    code, out, _ = run_cli(
        capsys, "ybe", "--phases", "--dims", "2,2", "--seed", "5", "--form", "algebraic"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["form"] == "algebraic"
    assert payload["passed"] is True


def test_ybe_forms_differ_only_in_label(tmp_path, capsys):
    # one residual serves both forms: the algebraic residual of swap @ R is
    # the braided residual of R
    rng = np.random.default_rng(17)
    gaussian = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    inputs = [
        write_json(tmp_path, "gaussian.json", matrix_to_payload(gaussian)),
        write_json(tmp_path, "t33.json", {
            "dims": [3, 3],
            "entries": [[float(x), float(y)] for x, y in rng.normal(size=(9, 2))],
        }),
    ]
    for path in inputs:
        code_b, out_b, err_b = run_cli(capsys, "ybe", "--input", path, "--form", "braided")
        code_a, out_a, err_a = run_cli(capsys, "ybe", "--input", path, "--form", "algebraic")
        braided, algebraic = json.loads(out_b), json.loads(out_a)
        assert braided["residual"] > 0.0
        assert code_b == code_a == 1 and err_b == err_a == ""
        assert (braided.pop("form"), algebraic.pop("form")) == ("braided", "algebraic")
        assert braided == algebraic
        assert out_b.replace('"braided"', '"algebraic"') == out_a


def test_ybe_rejects_non_square_sizes(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "odd.json",
        {"rows": [[[1, 0]] * 3 for _ in range(3)]},
    )
    code, _, err = run_cli(capsys, "ybe", "--input", path)
    assert code == 2
    assert "error" in err
    path = write_json(tmp_path, "threeslot.json", {"dims": [2, 2, 2], "entries": [[1, 0]] * 8})
    code, _, err = run_cli(capsys, "ybe", "--input", path)
    assert code == 2


def test_braid_command_passes_for_delta_form(capsys):
    for strands in ("3", "4"):
        code, out, _ = run_cli(
            capsys, "braid", "--phases", "--dims", "2,2", "--seed", "11",
            "--strands", strands,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["strands"] == int(strands)


def test_braid_command_fails_for_non_ybe_matrix(tmp_path, capsys):
    rng = np.random.default_rng(13)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = write_json(tmp_path, "r.json", matrix_to_payload(r))
    code, out, _ = run_cli(capsys, "braid", "--input", path, "--strands", "4")
    assert code == 1
    payload = json.loads(out)
    far = [c for c in payload["relations"] if c["kind"] == "far_commutation"]
    assert far and all(c["passed"] for c in far)
    assert any(not c["passed"] for c in payload["relations"] if c["kind"] == "braid")


def test_braid_command_refuses_oversized_representation(capsys):
    code, out, err = run_cli(
        capsys, "braid", "--phases", "--dims", "2,2", "--seed", "1", "--strands", "13"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "random", "--dims", "2,2", "--seed", "1", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["dims"] == [2, 2]


def test_bad_inputs_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "separability", "--input", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, _, err = run_cli(capsys, "separability", "--input", str(garbage))
    assert code == 2 and "error" in err

    schema = write_json(tmp_path, "schema.json", {"dims": [2, 2]})
    code, _, err = run_cli(capsys, "separability", "--input", schema)
    assert code == 2 and "error" in err

    code, _, err = run_cli(capsys, "random", "--dims", "2,2", "--seed", "-4")
    assert code == 2 and "error" in err

    code, _, err = run_cli(capsys, "ybe", "--phases", "--dims", "2,3", "--seed", "1")
    assert code == 2 and "error" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["random", "--dims", "2,2"])  # missing required --seed
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["separability", "--input", "x.json", "--tol", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("dims", [[1, 3], [3, 1]])
def test_separability_size_one_slot(tmp_path, capsys, dims):
    path = write_json(tmp_path, "thin.json", {"dims": dims, "entries": [[1, 0]] * 3})
    code, out, _ = run_cli(capsys, "separability", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is True
    assert payload["max_violation"] == 0.0
    assert payload["witness"] is None
    assert payload["oracle_agrees"] is True


def test_generators_refuses_oversized_shape(capsys):
    code, out, err = run_cli(capsys, "generators", "--dims", ",".join(["2"] * 11))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def run_python(*args):
    src = str(Path(braidgate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_module_entry_point_is_quiet():
    proc = run_python("-m", "braidgate.cli", "random", "--dims", "2,2", "--seed", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["dims"] == [2, 2]


def test_library_does_not_import_cli():
    proc = run_python("-c", "import sys, braidgate; print('braidgate.cli' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_non_finite_tolerance_is_a_usage_error(tmp_path, capsys):
    # --tol nan once called this product state entangled and printed NaN
    path = write_json(tmp_path, "product.json",
                      {"dims": [2, 2], "entries": [[1, 0], [2, 0], [3, 0], [6, 0]]})
    for tol in ("nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as exc:
            main(["separability", "--input", path, f"--tol={tol}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "tolerance must be finite and positive" in captured.err
    code, out, _ = run_cli(capsys, "separability", "--input", path, "--tol", "1e-9")
    assert code == 0 and json.loads(out)["separable"] is True


@pytest.mark.parametrize("argv", [
    ("ybe", "--phases", "--dims", "40,40", "--seed", "1"),
    ("braid", "--phases", "--dims", "3,3", "--seed", "1", "--strands", "10000"),
    ("braid", "--phases", "--dims", "65,65", "--seed", "1", "--strands", "2"),
])
def test_phases_are_refused_before_r_is_built(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: representation size") and err.count("\n") == 1
    assert peak < 2**20


def test_braid_command_bounds_the_strands_of_a_one_by_one_r(tmp_path, capsys):
    path = write_json(tmp_path, "one.json", {"rows": [[[1, 0]]]})
    code, out, _ = run_cli(capsys, "braid", "--input", path, "--strands", "13")
    assert code == 0 and len(json.loads(out)["relations"]) == 66
    code, out, err = run_cli(capsys, "braid", "--input", path, "--strands", "14")
    assert code == 2 and out == ""
    assert err == "error: representation size 1**14 exceeds cap 4096\n"


def test_overflowing_r_exits_two_without_numpy_warnings(tmp_path):
    x = 1e103 * np.random.default_rng(0).normal(size=(4, 4))
    path = write_json(tmp_path, "huge.json", matrix_to_payload(x))
    for command in ("ybe", "braid"):
        proc = run_python("-m", "braidgate.cli", command, "--input", path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: the Yang-Baxter products of R overflow\n"


def test_unreadable_json_numbers_and_bytes_exit_two(tmp_path, capsys):
    huge = "1" + "0" * 400
    files = {
        "entries.json": '{"dims": [2], "entries": [[%s, 0], [1, 0]]}' % huge,
        "rows.json": '{"rows": [[[1, 0], [0, 0]], [[0, %s], [1, 0]]]}' % huge,
        "digits.json": '{"rows": [[[%s, 0]]]}' % ("7" * 5000),
        "deep.json": "[" * 100_000 + "]" * 100_000,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "bytes.json").write_bytes(b'{"dims": [1], "entries": [[1, 0]]}\xff')
    for argv in (
        ("separability", "--input", str(tmp_path / "entries.json")),
        ("ybe", "--input", str(tmp_path / "rows.json")),
        ("ybe", "--input", str(tmp_path / "digits.json")),
        ("ybe", "--input", str(tmp_path / "deep.json")),
        ("construct", "--input", str(tmp_path / "bytes.json")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    _, _, err = run_cli(capsys, "separability", "--input", str(tmp_path / "entries.json"))
    assert err == "error: entries[0]: number too large for a float\n"


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def flat_tensors(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    pairs = draw(st.lists(st.tuples(finite, finite), min_size=math.prod(dims),
                          max_size=math.prod(dims)))
    return CoefficientTensor(dims, np.array([complex(re, im) for re, im in pairs]))


@settings(max_examples=60, deadline=None)
@given(flat_tensors())
def test_tensor_and_matrix_json_round_trips_are_bit_identical(tensor):
    text = json.dumps(tensor_to_payload(tensor), indent=2)
    back = tensor_from_payload(json.loads(text))
    assert back.dims == tensor.dims and same_bits(back.entries, tensor.entries)
    matrix = tensor.entries.reshape(tensor.dims[0], -1)
    back = matrix_from_payload(json.loads(json.dumps(matrix_to_payload(matrix), indent=2)))
    assert same_bits(back, matrix)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-9, 1.0]), st.integers(-60, 60))
def test_verdict_json_round_trip_is_bit_identical(dims, seed, noise, exponent):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
    arr = np.multiply.outer(vectors[0], vectors[1])
    for v in vectors[2:]:
        arr = np.multiply.outer(arr, v)
    arr = 2.0**exponent * (arr + noise * rng.normal(size=arr.shape))
    verdict = is_fully_separable(CoefficientTensor.from_array(arr))
    payload = json.loads(json.dumps(verdict_to_payload(verdict, True), indent=2))
    assert payload["max_violation"].hex() == verdict.max_violation.hex()
    assert payload["tolerance"].hex() == verdict.tolerance_used.hex()
    assert payload["separable"] is verdict.separable
    if verdict.witness is None:
        assert payload["witness"] is None
    else:
        w = verdict.witness
        assert payload["witness"] == {"j": w.slot, "k": list(w.k), "l": list(w.l)}

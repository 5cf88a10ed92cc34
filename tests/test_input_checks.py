"""Each kind of input is checked by one private function, once per call.

Tolerances go through ``tensorops._as_tol``, the two-factor operator R
through ``braid._operator`` and the strand count through
``braid._check_strands``. The counts below are taken by patching each check
in every module that calls it.
"""

import json

import numpy as np
import pytest

import braidgate.braid as braid_module
import braidgate.cli as cli_module
import braidgate.entangler as entangler_module
import braidgate.segre as segre_module
import braidgate.tensorops as tensorops_module
from braidgate import (
    BraidWord,
    InputError,
    braid_generator_rep,
    certify_entangler,
    check_algebraic_yang_baxter,
    check_braid_relations,
    check_yang_baxter,
    evaluate_braid_word,
    is_fully_separable,
    is_unitary,
    r_from_phase_matrix,
    random_phases,
    rank1_oracle,
    swap_gate,
    to_algebraic,
)
from braidgate.serialize import matrix_to_payload, tensor_to_payload

CHECKS = {
    "_as_tol": tensorops_module._as_tol,
    "_operator": braid_module._operator,
    "_check_strands": braid_module._check_strands,
}
MODULES = (tensorops_module, braid_module, segre_module, entangler_module, cli_module)

R = r_from_phase_matrix(random_phases((2, 2), 3).as_array())
T = random_phases((2, 2), 4)

# (call, tolerances checked in order, R checks, strand checks)
LIBRARY_CALLS = {
    "swap_gate": (lambda: swap_gate(2), [], 0, 1),
    "r_from_phase_matrix": (lambda: r_from_phase_matrix(np.ones((2, 2))), [], 0, 1),
    "check_yang_baxter": (lambda: check_yang_baxter(R, 2, 1e-9), [1e-9], 1, 1),
    "check_algebraic_yang_baxter": (lambda: check_algebraic_yang_baxter(R, 2, 1e-9), [1e-9], 1, 1),
    "to_algebraic": (lambda: to_algebraic(R, 2), [], 1, 0),
    "braid_generator_rep": (lambda: braid_generator_rep(R, 2, 3, 2), [], 1, 1),
    "evaluate_braid_word": (lambda: evaluate_braid_word(BraidWord(3, (1, -2)), R, 2), [], 1, 1),
    "check_braid_relations": (lambda: check_braid_relations(R, 2, 4, 1e-9), [1e-9], 1, 1),
    "is_fully_separable": (lambda: is_fully_separable(T, 1e-9), [1e-9], 0, 0),
    "rank1_oracle": (lambda: rank1_oracle(T, 1e-9), [1e-9], 0, 0),
    "certify_entangler theorem": (
        lambda: certify_entangler(T, "theorem", 1e-11, 1e-9), [1e-11, 1e-9], 0, 0),
    # two scans share the one checked separability tolerance
    "certify_entangler paper-matrix": (
        lambda: certify_entangler(T, "paper-matrix", 1e-11, 1e-9), [1e-11, 1e-9], 0, 0),
    "is_unitary": (lambda: is_unitary(R, 1e-9), [1e-9], 0, 0),
}


@pytest.fixture
def calls(monkeypatch):
    seen = {name: [] for name in CHECKS}
    for name, check in CHECKS.items():
        def counting(*args, _name=name, _check=check, **kwargs):
            seen[_name].append(args[0])
            return _check(*args, **kwargs)

        for module in MODULES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return seen


@pytest.mark.parametrize("name", list(LIBRARY_CALLS))
def test_public_calls_check_each_input_once(calls, name):
    call, tolerances, operators, strands = LIBRARY_CALLS[name]
    call()
    assert calls["_as_tol"] == tolerances
    assert len(calls["_operator"]) == operators
    assert len(calls["_check_strands"]) == strands


@pytest.fixture
def files(tmp_path):
    paths = {
        "matrix": tmp_path / "r.json",
        "tensor": tmp_path / "t.json",
    }
    paths["matrix"].write_text(json.dumps(matrix_to_payload(R)))
    paths["tensor"].write_text(json.dumps(tensor_to_payload(T)))
    return {k: str(v) for k, v in paths.items()}


# R read from a matrix file is outside input and is checked as R; R built from
# --phases or from a tensor file is the package's own output and is not.
CLI_CALLS = {
    "ybe matrix": (["ybe", "--input", "{matrix}", "--tol", "1e-9"], 1, 1, 1),
    "ybe tensor": (["ybe", "--input", "{tensor}", "--tol", "1e-9"], 1, 0, 1),
    "ybe phases": (["ybe", "--phases", "--dims", "2,2", "--seed", "1", "--tol", "1e-9"], 1, 0, 1),
    "ybe algebraic": (["ybe", "--form", "algebraic", "--input", "{matrix}", "--tol", "1e-9"],
                      1, 1, 1),
    "braid matrix": (["braid", "--input", "{matrix}", "--strands", "4", "--tol", "1e-9"], 1, 1, 1),
    "braid tensor": (["braid", "--input", "{tensor}", "--strands", "4", "--tol", "1e-9"], 1, 0, 1),
    "braid phases": (["braid", "--phases", "--dims", "2,2", "--seed", "1", "--strands", "4",
                      "--tol", "1e-9"], 1, 0, 1),
    "separability": (["separability", "--input", "{tensor}", "--tol", "1e-9"], 1, 0, 0),
    "construct": (["construct", "--input", "{tensor}"], 0, 0, 0),
    "entangle": (["entangle", "--input", "{tensor}"], 0, 0, 0),
    "generators": (["generators", "--dims", "2,2"], 0, 0, 0),
    "random": (["random", "--dims", "2,2", "--seed", "1"], 0, 0, 0),
}


@pytest.mark.parametrize("name", list(CLI_CALLS))
def test_cli_subcommands_check_each_input_once(calls, files, capsys, name):
    argv, tolerances, operators, strands = CLI_CALLS[name]
    code = cli_module.main([a.format(**files) for a in argv])
    capsys.readouterr()
    assert code in (0, 1)
    assert len(calls["_as_tol"]) == tolerances
    assert len(calls["_operator"]) == operators
    assert len(calls["_check_strands"]) == strands


TOLERANCE_CALLS = {
    "check_yang_baxter": lambda tol: check_yang_baxter(R, 2, tol),
    "check_algebraic_yang_baxter": lambda tol: check_algebraic_yang_baxter(R, 2, tol),
    "check_braid_relations": lambda tol: check_braid_relations(R, 2, 3, tol),
    "is_fully_separable": lambda tol: is_fully_separable(T, tol),
    "rank1_oracle": lambda tol: rank1_oracle(T, tol),
    "certify_entangler unitary_tol": lambda tol: certify_entangler(T, unitary_tol=tol),
    "certify_entangler separability_tol": lambda tol: certify_entangler(T, separability_tol=tol),
    "is_unitary": lambda tol: is_unitary(R, tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
@pytest.mark.parametrize("name", list(TOLERANCE_CALLS))
def test_tolerances_must_be_finite_and_positive(name, tol):
    # nan made every comparison false (a unimodular gate "not unitary", a product
    # state "entangled"); inf made every comparison true
    with pytest.raises(InputError, match="tolerance must be finite and positive"):
        TOLERANCE_CALLS[name](tol)

"""Each kind of input is checked by one private function, once per call.

Tolerances go through ``tensorops._as_tol``, the two-factor operator R
through ``braid._operator`` and the strand count through
``braid._check_strands``. The counts below are taken by patching each check
in every module that calls it. Integer arguments go through
``tensorops._as_int``, array arguments through ``tensorops._as_array`` and
arguments of a package type through ``tensorops._check_type``.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

import braidgate.braid as braid_module
import braidgate.cli as cli_module
import braidgate.entangler as entangler_module
import braidgate.segre as segre_module
import braidgate.tensorops as tensorops_module
from braidgate import (
    BraidWord,
    CoefficientTensor,
    InputError,
    MonomialGateMatrix,
    QuadricGenerator,
    ResourceLimitError,
    StateVector,
    YbeReport,
    apply_entangler,
    certify_entangler,
    check_algebraic_yang_baxter,
    check_braid_relations,
    check_yang_baxter,
    construct_entangler,
    evaluate_braid_word,
    evaluate_quadric,
    is_fully_separable,
    is_unitary,
    kron,
    lex_index,
    pattern_permutation,
    phase_gate,
    r_from_phase_matrix,
    random_phases,
    rank1_oracle,
    segre_map,
    to_algebraic,
)
from braidgate.serialize import matrix_to_payload, tensor_to_payload
from braidgate.tensorops import TENSOR_SIZE_CAP

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
    "r_from_phase_matrix": (lambda: r_from_phase_matrix(np.ones((2, 2))), [], 0, 1),
    "check_yang_baxter": (lambda: check_yang_baxter(R, 2, 1e-9), [1e-9], 1, 1),
    "check_algebraic_yang_baxter": (lambda: check_algebraic_yang_baxter(R, 2, 1e-9), [1e-9], 1, 1),
    # R is refused by its shape as the 2-strand representation
    "to_algebraic": (lambda: to_algebraic(R, 2), [], 1, 1),
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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9, "a", None, 1j])
@pytest.mark.parametrize("name", list(TOLERANCE_CALLS))
def test_tolerances_must_be_finite_and_positive(name, tol):
    # nan made every comparison false (a unimodular gate "not unitary", a product
    # state "entangled"); inf made every comparison true; "a", None and 1j
    # raised ValueError or TypeError
    with pytest.raises(InputError, match="tolerance must be finite and positive"):
        TOLERANCE_CALLS[name](tol)


# integer arguments are checked by tensorops._as_int: int() once truncated 1.7
# to 1 and 3.7 strands to 3, and raised TypeError or ValueError on others
INTEGER_CALLS = {
    "lex_index digit": lambda: lex_index((1.7, 1), (3, 3)),
    "lex_index dims": lambda: lex_index((1, 1), (3, float("inf"))),
    "random_phases dims": lambda: random_phases((2.5, 2), 1),
    "random_phases seed": lambda: random_phases((2, 2), "a"),
    "random_phases float seed": lambda: random_phases((2, 2), 1.5),
    "CoefficientTensor dims": lambda: CoefficientTensor((2, 2.5), np.ones(4)),
    "check_yang_baxter dim": lambda: check_yang_baxter(R, 2.5),
    "check_yang_baxter dim string": lambda: check_yang_baxter(R, "two"),
    "check_braid_relations strands": lambda: check_braid_relations(R, 2, 3.7),
    "check_braid_relations nan strands": lambda: check_braid_relations(R, 2, float("nan")),
    "evaluate_braid_word dim": lambda: evaluate_braid_word(BraidWord(3, (1,)), R, 2.5),
    "BraidWord strands": lambda: BraidWord(2.5, (1,)),
    "BraidWord letter": lambda: BraidWord(3, (1.5,)),
    "QuadricGenerator slot": lambda: QuadricGenerator(1.5, (1, 1), (2, 2), (2, 2)),
    "pattern_permutation": lambda: pattern_permutation(2.5),
    "MonomialGateMatrix": lambda: MonomialGateMatrix(2.5, [0, 1], [1, 1]),
    # column 1.5 was once cast to 1, which made this the identity
    "MonomialGateMatrix col_of_row": lambda: MonomialGateMatrix(2, [0, 1.5], [1, 1]),
    "MonomialGateMatrix float array": lambda: MonomialGateMatrix(2, np.array([1.5, 0.0]), [1, 1]),
}


@pytest.mark.parametrize("name", list(INTEGER_CALLS))
def test_integer_arguments_are_checked_not_truncated(name):
    with pytest.raises(InputError, match="must be (an integer|a sequence of integers), got"):
        INTEGER_CALLS[name]()


def test_integral_values_and_decimal_strings_are_integers():
    assert lex_index((2.0, np.int64(3)), ("3", 3)) == 6
    assert random_phases(("2", "2"), "5").dims == (2, 2)
    assert check_braid_relations(R, np.int64(2), 3.0).n_strands == 3
    assert BraidWord(3.0, (1.0, -2)).letters == (1, -2)
    assert QuadricGenerator(2.0, (1, 1), (2, 2), (2, 2)).slot == 2
    assert MonomialGateMatrix(2, [1.0, "0"], [1, 1]).col_of_row.tolist() == [1, 0]


# Python and numpy take a bool as the number 1 or 0: each of these calls once
# ran on True as 1, as dims (1, 2), seed 1, the word (1,), dim 1 or tolerance 1.0
BOOL_CALLS = {
    "random_phases dims": lambda b: random_phases((b, 2), 0),
    "random_phases seed": lambda b: random_phases((2, 2), b),
    "CoefficientTensor dims": lambda b: CoefficientTensor((b, 2), np.ones(2)),
    "lex_index digits": lambda b: lex_index([b, b], [2, 2]),
    "QuadricGenerator slot": lambda b: QuadricGenerator(b, (1, 1), (2, 2), (2, 2)),
    "BraidWord letter": lambda b: BraidWord(3, (b,)),
    "check_yang_baxter dim": lambda b: check_yang_baxter(np.eye(1), b),
    "evaluate_braid_word dim": lambda b: evaluate_braid_word(BraidWord(2, (1,)), np.eye(1), b),
    "MonomialGateMatrix n": lambda b: MonomialGateMatrix(b, [0], [1]),
    "MonomialGateMatrix col_of_row": lambda b: MonomialGateMatrix(2, [b, 0], [1, 1]),
    "MonomialGateMatrix bool array": lambda b: MonomialGateMatrix(2, np.array([b, not b]), [1, 1]),
    "is_fully_separable tol": lambda b: is_fully_separable(T, b),
    "rank1_oracle tol": lambda b: rank1_oracle(T, b),
    "check_yang_baxter tol": lambda b: check_yang_baxter(R, 2, b),
    "certify_entangler unitary_tol": lambda b: certify_entangler(T, unitary_tol=b),
    "is_unitary tol": lambda b: is_unitary(R, b),
}


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy bool"])
@pytest.mark.parametrize("name", list(BOOL_CALLS))
def test_a_bool_is_not_an_integer_or_a_tolerance(name, value):
    with pytest.raises(InputError, match="must be (an integer|a sequence of integers), got|"
                                         "tolerance must be finite and positive"):
        BOOL_CALLS[name](value)


@pytest.mark.parametrize("word", [(3, (1,)), [3, [1]], None, "b1"])
def test_braid_words_must_be_braid_words(word):
    # a tuple once raised AttributeError from the strand check
    with pytest.raises(InputError, match="word must be a BraidWord"):
        evaluate_braid_word(word, R, 2)


@pytest.mark.parametrize("call", [
    lambda: random_phases("22", 1),
    lambda: random_phases(b"22", 1),
    lambda: lex_index("12", (2, 2)),
    lambda: CoefficientTensor("4", np.ones(4)),
    lambda: BraidWord(3, "12"),
])
def test_a_bare_string_is_not_a_sequence_of_integers(call):
    # "22" was once read character by character, as the dims (2, 2)
    with pytest.raises(InputError, match="must be a sequence of integers, got"):
        call()


# numpy's own conversion errors once escaped as ValueError or TypeError
ARRAY_CALLS = {
    "check_yang_baxter": check_yang_baxter,
    "to_algebraic": to_algebraic,
    "evaluate_braid_word": lambda x: evaluate_braid_word(BraidWord(3, (1,)), x, 2),
    "is_unitary": is_unitary,
    "kron": lambda x: kron(np.eye(2), x),
    "r_from_phase_matrix": r_from_phase_matrix,
    "CoefficientTensor": lambda x: CoefficientTensor((2,), x),
    "from_array": CoefficientTensor.from_array,
    "StateVector": lambda x: StateVector((2,), x),
    "MonomialGateMatrix columns": lambda x: MonomialGateMatrix(2, x, [1, 1]),
    "MonomialGateMatrix values": lambda x: MonomialGateMatrix(2, [0, 1], x),
    "segre_map": lambda x: segre_map([[1, 2], x]),
}
UNREADABLE = {"ragged": [[1, 0], [0]], "malformed string": "ab", "object": object()}
# a string or an object was already refused here, by the shape or integer check
READ_BEFORE = {("r_from_phase_matrix", "malformed string"), ("r_from_phase_matrix", "object"),
               ("MonomialGateMatrix columns", "malformed string"),
               ("MonomialGateMatrix columns", "object")}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in ARRAY_CALLS for bad in UNREADABLE if (name, bad) not in READ_BEFORE
])
def test_arrays_numpy_cannot_read_as_numbers_are_input_errors(name, bad):
    # columns are integers, read by the integer check
    message = "must be (an array of numbers|a sequence of integers, got .*)$"
    with pytest.raises(InputError, match=message):
        ARRAY_CALLS[name](UNREADABLE[bad])


@pytest.mark.parametrize("kind", ["list", "ndarray"])
@pytest.mark.parametrize("call", [is_unitary, r_from_phase_matrix], ids=lambda f: f.__name__)
def test_an_array_argument_is_converted_once(monkeypatch, call, kind):
    # a list went through _as_array twice, each pass a conversion and a
    # finiteness check; an ndarray is converted once it is within the cap
    seen, as_array = [], tensorops_module._as_array

    def counting(*args, **kwargs):
        seen.append(args[0])
        return as_array(*args, **kwargs)

    for module in (tensorops_module, braid_module):
        monkeypatch.setattr(module, "_as_array", counting)
    arg = np.eye(4) if kind == "ndarray" else np.eye(4).tolist()
    call(arg)
    assert len(seen) == 1 and seen[0] is arg


# With TENSOR_SIZE_CAP at 2**12: wrong numbers of axes, non-square shapes,
# the largest R (dim 4) and phase and unitary matrices (64 x 64) and tensors
# (4096 entries) within the cap, and one past each. A zero-length axis hides
# the axes after it from .tolist(), so no shape has one.
SHAPES = [(4,), (16,), (4, 4, 1), (1, 4, 4), (2, 3), (16, 15), (9, 9), (15, 15), (16, 16),
          (25, 25), (8, 8), (64, 64), (65, 65), (4096,), (4097,), (64, 64, 1)]
SAME_ANSWER_CALLS = [is_unitary, r_from_phase_matrix, check_yang_baxter,
                     CoefficientTensor.from_array]


def answer(call, arg):
    """The result's bits, or the refusal's type and message."""
    try:
        out = call(arg)
    except (InputError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    if isinstance(out, np.ndarray):
        return out.tobytes()
    if isinstance(out, CoefficientTensor):
        return out.dims, out.entries.tobytes()
    if isinstance(out, YbeReport):
        return out.residual.hex(), out.passed
    return out[0], out[1].hex()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SHAPES) | array_shapes(min_dims=1, max_dims=3, max_side=5),
       st.sampled_from([np.int64, np.float64, np.complex128]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_a_list_and_an_ndarray_get_the_same_answer(shape, dtype, nan, seed):
    # an ndarray is checked by its shape before it is converted, a list after;
    # both see the same checks in the same order
    arr = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    if nan and dtype is not np.int64:
        arr.flat[0] = np.nan
    with mock.patch.object(tensorops_module, "TENSOR_SIZE_CAP", 2**12):
        for call in SAME_ANSWER_CALLS:
            assert answer(call, arr) == answer(call, arr.tolist()), (call.__name__, shape)


PAST = np.broadcast_to(np.complex128(0), (TENSOR_SIZE_CAP + 1,))
TENSOR_PAST = r"^tensor of shape \(16777217,\) exceeds cap 16777216 entries$"
NAN_ROW = [[np.nan, 0, 0]]


@pytest.mark.parametrize("call, error, message", [
    # arrays past the cap were copied (up to 512 MiB) and then accepted or
    # refused by a later check
    (lambda: CoefficientTensor.from_array(PAST), ResourceLimitError, TENSOR_PAST),
    (lambda: CoefficientTensor(PAST.shape, PAST), ResourceLimitError, TENSOR_PAST),
    (lambda: StateVector(PAST.shape, PAST), ResourceLimitError, TENSOR_PAST),
    (lambda: segre_map([PAST]), ResourceLimitError,
     r"^factor 1 of shape \(16777217,\) exceeds cap 16777216 entries$"),
    (lambda: kron(np.broadcast_to(0j, (4097, 4097)), np.ones((1, 1))), ResourceLimitError,
     r"^left factor of shape \(4097, 4097\) exceeds cap 16777216 entries$"),
    (lambda: matrix_to_payload(np.broadcast_to(0j, (4097, 4097))), ResourceLimitError,
     r"^matrix of shape \(4097, 4097\) exceeds cap 16777216 entries$"),
    (lambda: to_algebraic(np.broadcast_to(0j, (4100, 4100))), InputError,
     r"^matrix size 4100 is not dim\^2 for dim=64$"),
    (lambda: to_algebraic(np.broadcast_to(0j, (4225, 4225))), ResourceLimitError,
     r"^representation size 65\*\*2 exceeds cap 16777216 entries$"),
    (lambda: check_yang_baxter(np.broadcast_to(0j, (4096, 4096))), ResourceLimitError,
     r"^representation size 64\*\*3 exceeds cap 16777216 entries$"),
    # the shape is checked before the entries, for a list as for an ndarray
    (lambda: check_yang_baxter(NAN_ROW), InputError, r"^R must be square, got \(1, 3\)$"),
    (lambda: is_unitary(NAN_ROW), InputError,
     r"^unitarity check needs a nonempty square matrix, got \(1, 3\)$"),
    (lambda: r_from_phase_matrix(NAN_ROW), InputError,
     r"^phase matrix must be square and nonempty, got shape \(1, 3\)$"),
    (lambda: MonomialGateMatrix(3, [0, 1, 2], NAN_ROW), InputError,
     "^column and value arrays must both have length n >= 1$"),
    # and, for an ndarray, before its entries are read as numbers
    (lambda: segre_map([np.array([[1, "a"]], dtype=object)]), InputError,
     r"^factor 1 must be one-dimensional, got \(1, 2\)$"),
    # the strand count is read before R, which is refused with it
    (lambda: check_braid_relations(np.zeros((4, 4, 1)), 2, "x"), InputError,
     "^n_strands must be an integer, got 'x'$"),
])
def test_array_arguments_are_refused_by_their_shape_before_copying(call, error, message):
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


GEN = QuadricGenerator(1, (1, 1), (2, 2), (2, 2))
# a tuple, list or array where a package type belongs once raised AttributeError
TYPED_CALLS = {
    "is_fully_separable": lambda: is_fully_separable(T.as_array()),
    "rank1_oracle": lambda: rank1_oracle(T.entries),
    "construct_entangler": lambda: construct_entangler(T.as_array()),
    "phase_gate": lambda: phase_gate(T.as_array()),
    "apply_entangler": lambda: apply_entangler(T.as_array().tolist()),
    "certify_entangler": lambda: certify_entangler(T.as_array()),
    "evaluate_quadric tensor": lambda: evaluate_quadric(GEN, T.as_array()),
    "evaluate_quadric generator": lambda: evaluate_quadric((1, (1, 1), (2, 2)), T),
}


@pytest.mark.parametrize("name", list(TYPED_CALLS))
def test_package_types_must_be_package_types(name):
    with pytest.raises(InputError, match="^(tensor must be a CoefficientTensor|"
                                         "generator must be a QuadricGenerator), got "):
        TYPED_CALLS[name]()


@pytest.mark.parametrize("factors", [5, None, np.array(5)])
def test_segre_map_factors_must_be_a_sequence(factors):
    # each raised TypeError from the factor loop
    with pytest.raises(InputError, match="^factors must be a sequence of vectors"):
        segre_map(factors)


def test_arrays_are_read_in_c_order():
    # a Fortran-ordered array is copied into C order once, at the boundary
    f = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    assert CoefficientTensor.from_array(f).entries.tolist() == list(range(6))
    assert tensorops_module._as_array(f, "f").flags.c_contiguous
    c = np.arange(4, dtype=np.complex128)
    assert tensorops_module._as_array(c, "c") is c


@pytest.mark.parametrize("call, message", [
    (is_unitary, "^unitarity check needs a nonempty square matrix, got \\(0, 0\\)$"),
    (r_from_phase_matrix, "^phase matrix must be square and nonempty, got shape \\(0, 0\\)$"),
], ids=["is_unitary", "r_from_phase_matrix"])
def test_an_empty_matrix_is_an_input_error(call, message):
    # is_unitary raised numpy's bare ValueError from its max over no entries,
    # and r_from_phase_matrix returned a 0x0 R that check_yang_baxter refuses
    with pytest.raises(InputError, match=message):
        call(np.zeros((0, 0)))
    with pytest.raises(InputError, match="^matrix size 0 is not dim\\^2"):
        check_yang_baxter(np.zeros((0, 0)))

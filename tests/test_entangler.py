"""Monomial entangler construction, the pattern permutation, and certification."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import braidgate.cli as cli_module
import braidgate.entangler as entangler_module
from braidgate import (
    CoefficientTensor,
    Convention,
    InputError,
    MonomialGateMatrix,
    QuadricGenerator,
    ResourceLimitError,
    apply_entangler,
    certify_entangler,
    construct_entangler,
    evaluate_quadric,
    is_fully_separable,
    is_unitary,
    lex_index,
    pattern_permutation,
    phase_gate,
    random_phases,
    segre_map,
)
from braidgate.serialize import tensor_to_payload
from braidgate.tensorops import TENSOR_SIZE_CAP

MARKERS_9 = CoefficientTensor((3, 3), np.arange(1, 10))


def random_tensor(dims, rng):
    n = int(np.prod(dims))
    return CoefficientTensor(dims, rng.normal(size=n) + 1j * rng.normal(size=n))


def test_paper_matrix_9x9_layout():
    gate = construct_entangler(MARKERS_9, "paper-matrix")
    assert gate.nonzeros() == [
        (1, 1, 1), (2, 8, 8), (3, 7, 7), (4, 6, 6), (5, 5, 5),
        (6, 4, 4), (7, 3, 3), (8, 2, 2), (9, 9, 9),
    ]


def test_theorem_9x9_layout():
    gate = construct_entangler(MARKERS_9, Convention.THEOREM)
    # row 2 holds the (1,2) coefficient at column 8
    assert gate.nonzeros()[1] == (2, 8, 2)
    assert [r for r, _, _ in gate.nonzeros()] == list(range(1, 10))
    assert np.array_equal(gate.value_of_row, MARKERS_9.entries)


def test_two_level_paper_matrix_dense():
    t = CoefficientTensor((2, 2), [11, 12, 21, 22])
    dense = construct_entangler(t, "paper-matrix").dense()
    expected = np.array(
        [
            [11, 0, 0, 0],
            [0, 0, 21, 0],
            [0, 12, 0, 0],
            [0, 0, 0, 22],
        ],
        dtype=complex,
    )
    assert np.array_equal(dense, expected)


def test_construction_rejects_bad_inputs():
    with pytest.raises(InputError):
        construct_entangler(CoefficientTensor((2, 3), np.ones(6)))
    with pytest.raises(InputError):
        construct_entangler(CoefficientTensor((1, 1), [1.0]))
    with pytest.raises(InputError):
        construct_entangler(MARKERS_9, "no-such-convention")


def test_monomial_structure_for_random_inputs():
    rng = np.random.default_rng(31)
    for dims in [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3)]:
        t = random_tensor(dims, rng)
        for conv in Convention:
            gate = construct_entangler(t, conv)
            cols = gate.col_of_row
            assert np.array_equal(np.sort(cols), np.arange(gate.n))
            assert cols[0] == 0 and cols[-1] == gate.n - 1
            for r in range(1, gate.n - 1):
                assert cols[r] == gate.n - 1 - r


def test_monomial_type_operations():
    with pytest.raises(InputError):
        MonomialGateMatrix(3, [0, 0, 2], [1, 1, 1])
    message = "^column and value arrays must both have length n >= 1$"
    for n, cols, values in ((3, [0, 1], [1, 1, 1]), (2, [0, 1], [1, 1, 1]), (0, [], [])):
        with pytest.raises(InputError, match=message):
            MonomialGateMatrix(n, cols, values)


def test_pattern_permutation_matches_swap_pattern():
    p = pattern_permutation(9)
    expected = np.zeros((9, 9))
    expected[0, 0] = expected[8, 8] = 1
    for r in range(1, 8):
        expected[r, 8 - r] = 1
    assert np.array_equal(p.dense(), expected)
    assert np.array_equal(pattern_permutation(2).dense(), np.eye(2))
    with pytest.raises(InputError):
        pattern_permutation(1)


def test_oversized_pattern_permutations_are_refused_before_allocating():
    # 2**40 rows once reached numpy, which raised a bare MemoryError for 8 TiB
    for n in (2**40, TENSOR_SIZE_CAP + 1):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match=rf"^pattern permutation of size {n} exceeds cap 16777216 entries$"):
                pattern_permutation(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_dense_gates_over_the_tensor_cap_are_refused_before_allocating():
    # 2**20 rows once reached numpy, which raised a bare MemoryError for 16 TiB
    with pytest.raises(ResourceLimitError, match=r"^dense gate of size 1048576x1048576 "):
        pattern_permutation(2**20).dense()
    # 4097**2 is the first size past TENSOR_SIZE_CAP; 4096 is the largest R the CLI densifies
    gate = pattern_permutation(4097)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"^dense gate of size 4097x4097 "):
            gate.dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert 4096**2 == TENSOR_SIZE_CAP


def test_conventions_are_read_from_their_tokens():
    for conv in Convention:
        assert entangler_module.as_convention(conv) is conv
        assert entangler_module.as_convention(conv.value) is conv
        assert entangler_module.as_convention(np.str_(conv.value)) is conv
    t = random_phases((2, 2), 1)
    for bad in ("paper", "THEOREM", b"theorem", None, 1, [], {}):
        for call in (construct_entangler, phase_gate, apply_entangler, certify_entangler):
            with pytest.raises(InputError, match=r"^unknown convention .* "
                                                 r"\(expected one of: paper-matrix, theorem\)$"):
                call(t, bad)


@pytest.mark.parametrize("n", list(range(2, 82)))
def test_pattern_permutation_is_involution(n):
    # phase_gate reads R @ P from R's values because P @ P = I
    p = pattern_permutation(n).dense()
    assert np.array_equal(p @ p, np.eye(n))


def test_phase_gate_is_diagonal_and_composition_exact():
    rng = np.random.default_rng(33)
    for conv in Convention:
        t = random_tensor((3, 3), rng)
        tau = phase_gate(t, conv)
        assert tau.is_diagonal
        gate = construct_entangler(t, conv)
        p = pattern_permutation(gate.n)
        assert np.array_equal(gate.dense() @ p.dense(), tau.dense())
        assert np.array_equal(tau.value_of_row, gate.value_of_row)


def test_phase_gate_marker_diagonals():
    tau = phase_gate(MARKERS_9, "paper-matrix")
    assert np.array_equal(tau.value_of_row, [1, 8, 7, 6, 5, 4, 3, 2, 9])
    tau = phase_gate(MARKERS_9, "theorem")
    assert np.array_equal(tau.value_of_row, np.arange(1, 10))


def test_apply_entangler_theorem_is_bit_identical():
    rng = np.random.default_rng(34)
    for dims in [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3)]:
        t = random_tensor(dims, rng)
        out = apply_entangler(t, "theorem")
        assert np.array_equal(out.amplitudes, t.entries)


SIGNED_ZEROS = [
    complex(-0.0, -1.0), complex(0.5, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0),
    complex(0.0, -0.0), complex(-1.0, -0.0), complex(-0.0, 2.0), complex(3.0, 0.0),
    complex(0.0, 0.0),
]


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
@pytest.mark.parametrize("conv", list(Convention))
def test_state_and_phase_gate_are_the_gate_values_bit_for_bit(dims, conv):
    n = math.prod(dims)
    t = CoefficientTensor(dims, (SIGNED_ZEROS * 2)[:n])
    values = construct_entangler(t, conv).value_of_row
    assert apply_entangler(t, conv).amplitudes.tobytes() == values.tobytes()
    assert phase_gate(t, conv).value_of_row.tobytes() == values.tobytes()
    if conv is Convention.THEOREM:
        assert values.tobytes() == t.entries.tobytes()


def test_only_construct_builds_the_gate(monkeypatch, tmp_path, capsys):
    # each question once built R and read its values back from it
    calls = []

    def counting(build):
        def wrapper(*args, **kwargs):
            calls.append(build.__name__)
            return build(*args, **kwargs)
        return wrapper

    for name in ("construct_entangler", "_entangler_pattern"):
        monkeypatch.setattr(entangler_module, name, counting(getattr(entangler_module, name)))
    # the CLI imported construct_entangler by name
    monkeypatch.setattr(cli_module, "construct_entangler", entangler_module.construct_entangler)
    t = random_phases((3, 3), 7)
    for conv in Convention:
        for question in (apply_entangler, phase_gate, certify_entangler):
            calls.clear()
            question(t, conv)
            assert calls == [], question.__name__
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor_to_payload(t)))
    for conv in Convention:
        calls.clear()
        assert cli_module.main(["construct", "--input", str(path), "--convention", conv.value]) == 0
        # R's pattern, then P's
        assert calls == ["construct_entangler", "_entangler_pattern", "_entangler_pattern"]
    capsys.readouterr()


def test_apply_entangler_paper_matrix_reflects_middle():
    rng = np.random.default_rng(35)
    for dims in [(3, 3), (2, 2, 2), (3, 3, 3)]:
        t = random_tensor(dims, rng)
        out = apply_entangler(t, "paper-matrix")
        n = t.size
        for r in range(1, n + 1):
            x = tuple(int(k) + 1 for k in np.unravel_index(r - 1, dims))
            if r not in (1, n):
                x = tuple(d + 1 - k for k, d in zip(x, dims))  # every digit reflected
            assert out.amplitudes[r - 1] == t.at(x)


def test_sign_flip_coefficients_entangle():
    t = CoefficientTensor((2, 2), [1, 1, 1, -1])
    for conv in Convention:
        out = apply_entangler(t, conv).to_tensor()
        gen = QuadricGenerator(1, (1, 1), (2, 2), (2, 2))
        assert abs(evaluate_quadric(gen, out)) == 2.0
        report = certify_entangler(t, conv)
        assert report.unitary
        assert not report.entangling.separable


def test_all_ones_gate_is_unitary_but_not_entangling():
    t = CoefficientTensor((2, 2), np.ones(4))
    report = certify_entangler(t)
    assert report.unitary and report.unitarity_residual < 1e-15
    assert report.entangling.separable
    assert report.coefficient_verdict.separable


def test_unitarity_iff_unimodular_coefficients():
    rng = np.random.default_rng(36)
    dims_cycle = [(2, 2), (3, 3), (2, 2, 2)]
    for i in range(20):
        dims = dims_cycle[i % len(dims_cycle)]
        if i % 2:
            t = random_phases(dims, 1000 + i)
            expected = True
        else:
            t = random_tensor(dims, rng)
            expected = bool(np.max(np.abs(np.abs(t.entries) - 1.0)) <= 1e-12)
        report = certify_entangler(t)
        assert report.unitary == expected
        gate = construct_entangler(t)
        ok, residual = is_unitary(gate.dense(), 1e-12)
        shortcut = np.max(np.abs(np.abs(gate.value_of_row) ** 2 - 1.0))
        assert abs(residual - shortcut) < 1e-14
        assert ok == report.unitary


def test_unitarity_residual_is_the_unimodularity_defect():
    rng = np.random.default_rng(38)
    for dims in [(2, 2), (3, 3), (2, 2, 2), (4, 4)]:
        n = math.prod(dims)
        for _ in range(5):
            phases = np.exp(2j * np.pi * rng.uniform(size=n))
            for entries in (
                phases,
                rng.normal(size=n) + 1j * rng.normal(size=n),
                phases * (1 + 1e-13 * rng.normal(size=n)),
                phases * (1 + 1e-11 * rng.normal(size=n)),
            ):
                t = CoefficientTensor(dims, entries)
                defect = max(abs(c.real * c.real + c.imag * c.imag - 1.0) for c in entries)
                for conv in Convention:
                    report = certify_entangler(t, conv)
                    assert report.unitarity_residual == defect
                    ok, _ = is_unitary(construct_entangler(t, conv).dense(), 1e-12)
                    assert report.unitary == ok


def test_values_too_large_to_square_are_not_unitary():
    # the squared modulus overflows to inf: not unitary, and no numpy warning
    report = certify_entangler(CoefficientTensor((2, 2), [1e200, 1, 1, 1]))
    assert not report.unitary and report.unitarity_residual == math.inf


def test_tensors_beyond_the_float_range_are_certified_entangling():
    # the separability scan once read the first separable and divided the
    # second's subnormal peak into an overflow
    z = 1.5e308 + 1.5e308j
    for entries in ([z, z, 0, z], [1e-320, 2e-320, 3e-320, 1e-320]):
        t = CoefficientTensor((2, 2), entries)
        for conv in ("theorem", "paper-matrix"):
            report = certify_entangler(t, conv)
            assert not report.coefficient_verdict.separable
            assert not report.entangling.separable
            assert not report.unitary


def test_convention_divergence_witness():
    # rank-1 input whose paper-matrix image is entangled
    t = segre_map([(1, 1, 2), (1, 1, 1)])
    paper = certify_entangler(t, "paper-matrix")
    assert paper.coefficient_verdict.separable
    assert not paper.entangling.separable
    assert paper.entangling.max_violation == 0.5
    theorem = certify_entangler(t, "theorem")
    assert theorem.coefficient_verdict.separable
    assert theorem.entangling.separable


def test_theorem_verdicts_always_coincide():
    rng = np.random.default_rng(37)
    for dims in [(2, 2), (3, 3), (2, 2, 2)]:
        for _ in range(5):
            t = random_tensor(dims, rng)
            report = certify_entangler(t, "theorem")
            assert report.entangling.separable == report.coefficient_verdict.separable
            assert report.entangling.max_violation == report.coefficient_verdict.max_violation
            assert report.entangling is report.coefficient_verdict


@st.composite
def small_tensors(draw):
    dims = draw(st.sampled_from([(2, 2), (3, 3), (2, 2, 2)]))
    parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
    entries = draw(st.lists(st.builds(complex, parts, parts),
                            min_size=math.prod(dims), max_size=math.prod(dims)))
    assume(any(entries))
    return CoefficientTensor(dims, entries)


@settings(max_examples=80, deadline=None)
@given(small_tensors())
def test_paper_matrix_entangling_is_the_output_state_verdict(t):
    report = certify_entangler(t, "paper-matrix")
    state = apply_entangler(t, "paper-matrix").to_tensor()
    assert report.entangling == is_fully_separable(state)

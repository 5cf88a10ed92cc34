"""Yang-Baxter residuals, the strand representation, and braid words."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidgate import (
    BraidWord,
    CoefficientTensor,
    InputError,
    ResourceLimitError,
    check_algebraic_yang_baxter,
    check_braid_relations,
    check_yang_baxter,
    construct_entangler,
    evaluate_braid_word,
    is_unitary,
    r_from_phase_matrix,
    random_phases,
    to_algebraic,
)
import braidgate.braid as braid_module
from braidgate.braid import _apply_on_strands, _dense_ybe_residual


def phase_matrix(n, seed):
    return random_phases((n, n), seed).as_array()


def swap(d):
    """The tensor swap |a,b> -> |b,a> on C^d (x) C^d: the identity's rows, (a, b) moved to (b, a)."""
    return np.eye(d * d).reshape(d, d, -1).transpose(1, 0, 2).reshape(d * d, -1)


def test_r_from_all_ones_is_swap():
    for n in (2, 3):
        assert np.array_equal(r_from_phase_matrix(np.ones((n, n))), swap(n))


def test_r_from_phase_matrix_basis_action():
    n = 3
    m = phase_matrix(n, 41)
    r = r_from_phase_matrix(m)
    for row in range(n):
        for col in range(n):
            e = np.zeros(n * n)
            e[row * n + col] = 1.0  # |row+1, col+1>
            out = r @ e
            expected = np.zeros(n * n, dtype=complex)
            expected[col * n + row] = m[col, row]
            assert np.array_equal(out, expected)
    with pytest.raises(InputError):
        r_from_phase_matrix(np.ones((2, 3)))


def test_delta_form_solves_ybe_and_is_unitary():
    for seed, n in [(0, 2), (1, 3), (2, 4)]:
        r = r_from_phase_matrix(phase_matrix(n, seed))
        report = check_yang_baxter(r, n)
        assert report.passed and report.residual < 1e-12
        ok, residual = is_unitary(r, 1e-12)
        assert ok and residual < 1e-12


def test_non_unimodular_phases_still_solve_ybe():
    rng = np.random.default_rng(42)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    r = r_from_phase_matrix(m)
    assert check_yang_baxter(r, 3).passed
    assert not is_unitary(r, 1e-12)[0]


def test_trivial_ybe_solutions():
    assert check_yang_baxter(np.eye(9), 3).residual == 0.0
    assert check_yang_baxter(swap(3), 3).residual == 0.0


def test_sign_flip_entangler_solves_ybe():
    t = CoefficientTensor((2, 2), [1, 1, 1, -1])
    for conv in ("paper-matrix", "theorem"):
        r = construct_entangler(t, conv).dense()
        report = check_yang_baxter(r, 2)
        assert report.passed and report.residual < 1e-12


def test_perturbed_swap_fails_ybe():
    # bumping a structurally zero entry breaks the phase-decorated-swap form;
    # the induced residual is quadratic in the perturbation (exactly eps^2
    # here), while bumping a supported entry leaves an exact solution
    r = swap(2)
    r[0, 1] = 1e-3
    report = check_yang_baxter(r, 2)
    assert not report.passed
    assert report.residual == pytest.approx(1e-6, rel=1e-9)

    still_solution = swap(2)
    still_solution[0, 0] = 1.0 + 1e-3
    assert check_yang_baxter(still_solution, 2).residual == 0.0


def test_ybe_size_validation():
    with pytest.raises(InputError):
        check_yang_baxter(np.eye(5))
    with pytest.raises(InputError):
        check_yang_baxter(np.eye(9), 2)
    with pytest.raises(InputError, match=r"^R must be square, got \(4, 2\)$"):
        check_yang_baxter(np.ones((4, 2)))
    with pytest.raises(ResourceLimitError):
        check_yang_baxter(np.eye(32 * 32), 32)


def test_braid_generator_rep_placement():
    # the one-letter word b_i is the generator's representation tau(b_i)
    r = swap(2)
    # n=2, i=1 is R itself
    assert np.array_equal(evaluate_braid_word(BraidWord(2, (1,)), r, 2), r)
    # n=3, i=1 swaps the first two factors of a basis state
    rep = evaluate_braid_word(BraidWord(3, (1,)), r, 2)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                e = np.zeros(8)
                e[(a * 2 + b) * 2 + c] = 1.0
                out = rep @ e
                expected = np.zeros(8)
                expected[(b * 2 + a) * 2 + c] = 1.0
                assert np.array_equal(out, expected)
    with pytest.raises(InputError):
        BraidWord(3, (3,))
    with pytest.raises(ResourceLimitError):
        evaluate_braid_word(BraidWord(13, (1,)), r, 2)


def test_delta_form_representation_is_unitary_on_three_strands():
    r = r_from_phase_matrix(phase_matrix(2, 5))
    rep = evaluate_braid_word(BraidWord(3, (2,)), r, 2)
    assert rep.shape == (8, 8)
    assert is_unitary(rep, 1e-12)[0]


def test_braid_word_evaluation():
    r = r_from_phase_matrix(phase_matrix(2, 6))
    empty = evaluate_braid_word(BraidWord(3, ()), r, 2)
    assert np.array_equal(empty, np.eye(8))
    cancel = evaluate_braid_word(BraidWord(3, (1, -1)), r, 2)
    assert np.max(np.abs(cancel - np.eye(8))) < 1e-12
    lhs = evaluate_braid_word(BraidWord(3, (1, 2, 1)), r, 2)
    rhs = evaluate_braid_word(BraidWord(3, (2, 1, 2)), r, 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_braid_word_inverse_coherence():
    r = r_from_phase_matrix(phase_matrix(2, 7))
    letters = (1, 2, -1, 2, 1)
    undo = tuple(-x for x in reversed(letters))
    total = evaluate_braid_word(BraidWord(3, letters + undo), r, 2)
    assert np.max(np.abs(total - np.eye(8))) < 1e-11


def test_braid_word_validation_and_singular_r():
    with pytest.raises(InputError):
        BraidWord(3, (0,))
    with pytest.raises(InputError):
        BraidWord(3, (3,))
    with pytest.raises(InputError):
        BraidWord(1, ())
    singular = np.zeros((4, 4))
    singular[0, 0] = 1.0
    with pytest.raises(InputError):
        evaluate_braid_word(BraidWord(3, (-1,)), singular, 2)


def test_braid_relations_for_symmetric_group():
    report = check_braid_relations(swap(2), 2, 4)
    assert report.passed
    assert report.max_residual == 0.0
    kinds = {(c.kind, c.i, c.j) for c in report.checks}
    assert ("far_commutation", 1, 3) in kinds
    assert ("braid", 1, None) in kinds and ("braid", 2, None) in kinds


def test_braid_relations_for_delta_form():
    r = r_from_phase_matrix(phase_matrix(2, 8))
    for n_strands in (3, 4):
        report = check_braid_relations(r, 2, n_strands)
        assert report.passed
        assert report.max_residual < 1e-12


def test_ybe_pass_implies_braid_relation_within_factor_ten():
    for seed in range(5):
        r = r_from_phase_matrix(phase_matrix(2, 100 + seed))
        ybe = check_yang_baxter(r, 2)
        assert ybe.passed
        report = check_braid_relations(r, 2, 3, tol=10 * ybe.tolerance)
        assert report.passed


def test_far_commutation_holds_even_without_ybe():
    rng = np.random.default_rng(9)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert not check_yang_baxter(r, 2).passed
    report = check_braid_relations(r, 2, 4)
    far = [c for c in report.checks if c.kind == "far_commutation"]
    braids = [c for c in report.checks if c.kind == "braid"]
    assert far and all(c.passed for c in far)
    assert any(not c.passed for c in braids)
    assert not report.passed


def test_algebraic_form_of_delta_solution_is_diagonal_and_passes():
    r = r_from_phase_matrix(phase_matrix(3, 10))
    tau = to_algebraic(r, 3)
    assert np.count_nonzero(tau - np.diag(np.diagonal(tau))) == 0
    report = check_algebraic_yang_baxter(tau, 3)
    # diagonal factors commute; only association order of the complex
    # products survives as rounding noise
    assert report.passed and report.residual < 1e-15


def test_algebraic_checker_on_plain_swap():
    report = check_algebraic_yang_baxter(swap(2), 2)
    assert report.passed and report.residual == 0.0


# --- the relation and algebraic checks against the dense products they replace


EPS = np.finfo(float).eps
RELATION_SIZES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3)]


def gaussian_matrix(n, rng):
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)


def dense_relation_residuals(r, dim, n_strands):
    """Each Artin relation multiplied out in the strand representation."""
    reps = {i: dense_generator_rep(r, dim, n_strands, i) for i in range(1, n_strands)}
    out = []
    for i in range(1, n_strands):
        for j in range(i + 2, n_strands):
            residual = np.max(np.abs(reps[i] @ reps[j] - reps[j] @ reps[i]))
            out.append(("far_commutation", i, j, residual))
    for i in range(1, n_strands - 1):
        lhs = reps[i] @ reps[i + 1] @ reps[i]
        rhs = reps[i + 1] @ reps[i] @ reps[i + 1]
        out.append(("braid", i, None, np.max(np.abs(lhs - rhs))))
    return out


def dense_algebraic_residual(x, dim):
    """X12 X13 X23 - X23 X13 X12 multiplied out on three factors."""
    eye = np.eye(dim)
    x12 = np.kron(x, eye)
    x23 = np.kron(eye, x)
    s23 = np.kron(eye, swap(dim))
    x13 = s23 @ x12 @ s23
    return np.max(np.abs(x12 @ x13 @ x23 - x23 @ x13 @ x12))


@pytest.mark.parametrize("dim,n_strands", RELATION_SIZES)
def test_relation_residuals_match_dense_products(dim, n_strands):
    rng = np.random.default_rng([dim, n_strands])
    for seed in range(3):
        phase_swap = r_from_phase_matrix(phase_matrix(dim, 200 + seed))
        for r in (phase_swap, gaussian_matrix(dim * dim, rng)):
            report = check_braid_relations(r, dim, n_strands)
            dense = dense_relation_residuals(r, dim, n_strands)
            assert [(c.kind, c.i, c.j) for c in report.checks] == [d[:3] for d in dense]
            for c, (kind, _, _, ref) in zip(report.checks, dense):
                if kind == "far_commutation":
                    assert c.residual == 0.0 and ref <= 1e-15
                elif ref <= 1e-12:
                    # a phase swap: both residuals are rounding noise
                    assert c.residual <= 1e-15 and ref <= 1e-15
                else:
                    assert abs(c.residual - ref) <= 4 * EPS * ref
                assert c.passed == (ref <= report.tolerance)


def test_algebraic_residual_matches_dense_products():
    rng = np.random.default_rng(77)
    for dim in (2, 3, 4, 5):
        for _ in range(10):
            x = gaussian_matrix(dim * dim, rng)
            ref = dense_algebraic_residual(x, dim)
            report = check_algebraic_yang_baxter(x, dim)
            assert abs(report.residual - ref) <= 4 * EPS * ref
            assert not report.passed


def test_algebraic_residual_of_braided_form_is_bitwise_the_ybe_residual():
    rng = np.random.default_rng(78)
    for k in range(50):
        dim = 2 + k % 3
        if k % 2:
            r = r_from_phase_matrix(phase_matrix(dim, 300 + k))
        else:
            r = gaussian_matrix(dim * dim, rng)
        ybe = check_yang_baxter(r, dim)
        algebraic = check_algebraic_yang_baxter(to_algebraic(r, dim), dim)
        assert algebraic.residual == ybe.residual
        assert algebraic.passed == ybe.passed


def test_to_algebraic_is_the_swap_product():
    rng = np.random.default_rng(79)
    for dim in (1, 2, 3, 4):
        r = gaussian_matrix(dim * dim, rng)
        assert np.array_equal(to_algebraic(r, dim), swap(dim) @ r)


def test_far_commutation_is_exactly_zero_for_phase_swaps():
    for seed in range(20):
        report = check_braid_relations(r_from_phase_matrix(phase_matrix(3, seed)), 3, 5)
        far = [c.residual for c in report.checks if c.kind == "far_commutation"]
        assert len(far) == 3 and all(x == 0.0 for x in far)


def test_relations_at_the_representation_cap_stay_small():
    r = r_from_phase_matrix(phase_matrix(4, 4))
    tracemalloc.start()
    try:
        report = check_braid_relations(r, 4, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.checks) == 10 and report.passed
    assert peak < 8 * 2**20
    with pytest.raises(ResourceLimitError):
        check_braid_relations(swap(2), 2, 13)


# --- the strand-local kernel against the dense Kronecker products it replaced


def dense_generator_rep(r, dim, n_strands, i):
    """I_a (x) R (x) I_b as a dense dim**n_strands square matrix."""
    left = np.eye(dim ** (i - 1), dtype=np.complex128)
    right = np.eye(dim ** (n_strands - i - 1), dtype=np.complex128)
    return np.kron(np.kron(left, r), right)


def dense_ybe_residual(r, dim):
    """R12 R23 R12 - R23 R12 R23 multiplied out as dim**3 square matrices."""
    eye = np.eye(dim, dtype=np.complex128)
    a = np.kron(r, eye)
    b = np.kron(eye, r)
    return float(np.max(np.abs(a @ b @ a - b @ a @ b)))


def dense_word(word, r, dim):
    """One dense representation matrix per letter, multiplied left to right."""
    r_inv = np.linalg.inv(r)
    out = np.eye(dim**word.n_strands, dtype=np.complex128)
    for letter in word.letters:
        factor = r if letter > 0 else r_inv
        out = out @ dense_generator_rep(factor, dim, word.n_strands, abs(letter))
    return out


def gaussian_integers(draw, shape):
    parts = draw(st.lists(st.integers(-3, 3), min_size=2 * math.prod(shape),
                          max_size=2 * math.prod(shape)))
    return (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(shape)


@st.composite
def strand_cases(draw):
    # Gaussian-integer entries keep every product exact, so the kernel and
    # the dense references must agree bit for bit
    dim = draw(st.integers(1, 4))
    n_strands = draw(st.integers(2, 5))
    i = draw(st.integers(1, n_strands - 1))
    cols = draw(st.integers(1, 3))
    r = gaussian_integers(draw, (dim * dim, dim * dim))
    m = gaussian_integers(draw, (dim**n_strands, cols))
    return dim, n_strands, i, r, m


@settings(max_examples=60, deadline=None)
@given(strand_cases())
def test_strand_kernel_matches_dense_kronecker_products(case):
    dim, n_strands, i, r, m = case
    dense = dense_generator_rep(r, dim, n_strands, i)
    assert np.array_equal(_apply_on_strands(r, m, dim ** (i - 1)), dense @ m)
    assert np.array_equal(_apply_on_strands(r.T, m.T, m.shape[1] * dim ** (i - 1)), m.T @ dense)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_ybe_residual_within_four_ulp_of_the_dense_residual(dim, seed, phase_swap):
    rng = np.random.default_rng(seed)
    if phase_swap:
        # a solution: both residuals are rounding noise on unimodular entries
        r = r_from_phase_matrix(np.exp(2j * np.pi * rng.random((dim, dim))))
        scale = 1.0
    else:
        r = gaussian_matrix(dim * dim, rng)
        scale = dense_ybe_residual(r, dim)
    ref = dense_ybe_residual(r, dim)
    report = check_yang_baxter(r, dim)
    assert abs(report.residual - ref) <= 4 * np.spacing(scale)
    assert report.passed == (ref <= report.tolerance)


@st.composite
def gaussian_integer_operators(draw):
    dim = draw(st.integers(1, 4))
    return dim, gaussian_integers(draw, (dim * dim, dim * dim))


@settings(max_examples=60, deadline=None)
@given(gaussian_integer_operators())
def test_ybe_residual_is_bitwise_the_dense_residual_for_exact_products(case):
    # Gaussian-integer entries keep every product and sum exact, so reading
    # the first factors from R and contracting one strand index must give
    # the dense products' residual bit for bit
    dim, r = case
    assert check_yang_baxter(r, dim).residual == dense_ybe_residual(r, dim)


def monomial(values, perm):
    """The R whose column c holds values[c] on row perm[c]."""
    r = np.zeros((len(perm), len(perm)), dtype=np.complex128)
    r[perm, np.arange(len(perm))] = values
    return r


@st.composite
def monomial_gaussian_integer_operators(draw):
    dim = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(dim * dim)))
    # a zero value leaves an all-zero row and column, still read as monomial
    return dim, monomial(gaussian_integers(draw, (dim * dim,)), perm)


@settings(max_examples=60, deadline=None)
@given(monomial_gaussian_integer_operators())
def test_monomial_ybe_residual_is_bitwise_the_dense_residual_for_exact_products(case):
    # every three-factor product of Gaussian integers is exact, so reading
    # the residual from R's permutation and values must give the dense bits
    dim, r = case
    assert check_yang_baxter(r, dim).residual == dense_ybe_residual(r, dim)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
def test_monomial_ybe_residual_within_four_ulp_of_the_dense_kernel(dim, seed, phase_swap):
    # the same single products the dense kernel sums with exact zeros, in
    # another rounding order: ulps are taken at the products' scale
    rng = np.random.default_rng(seed)
    n = dim * dim
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    # the phase swap's pattern with Gaussian values solves the YBE
    perm = swap(dim).argmax(axis=0) if phase_swap else rng.permutation(n)
    r = monomial(values, perm)
    ref = _dense_ybe_residual(r, dim)
    report = check_yang_baxter(r, dim)
    assert abs(report.residual - ref) <= 4 * np.spacing(np.max(np.abs(values)) ** 3)
    assert report.passed == (ref <= report.tolerance)


@pytest.mark.parametrize("convention", ["theorem", "paper-matrix"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_monomial_core_reads_a_gate_with_zero_values(dim, convention):
    # a zero coefficient leaves an all-zero row; the monomial core reads the
    # gate's own arrays as they are, and the public path and the dense kernel
    # give the same residual bit for bit (Gaussian-integer products are exact)
    rng = np.random.default_rng(dim)
    coeffs = np.array([1, 1j]) @ rng.integers(-3, 4, size=(2, dim * dim))
    coeffs[[1, dim * dim - 2]] = 0
    gate = construct_entangler(CoefficientTensor((dim, dim), coeffs), convention)
    residual = braid_module._monomial_ybe_residual(gate.col_of_row, gate.value_of_row, dim)
    assert check_yang_baxter(gate.dense(), dim).residual == residual
    assert _dense_ybe_residual(gate.dense(), dim) == residual


def test_only_monomial_r_is_read_as_a_permutation(monkeypatch):
    taken = []
    for name in ("_monomial_ybe_residual", "_dense_ybe_residual"):
        def core(*args, _name=name, _core=getattr(braid_module, name)):
            taken.append(_name)
            return _core(*args)

        monkeypatch.setattr(braid_module, name, core)
    two_in_row_zero = swap(3)
    two_in_row_zero[0, 1] = 1e-3
    all_in_row_zero = np.zeros((9, 9))
    all_in_row_zero[0] = 1.0  # one nonzero per column, but eight all-zero rows
    one_zeroed = swap(3)
    one_zeroed[4, 4] = 0.0  # an all-zero row and column
    ghz = construct_entangler(CoefficientTensor((4, 4), np.eye(4).reshape(-1))).dense()
    cases = [
        (r_from_phase_matrix(phase_matrix(3, 1)), "_monomial_ybe_residual"),
        (np.diag(np.arange(1.0, 10.0)), "_monomial_ybe_residual"),
        (two_in_row_zero, "_dense_ybe_residual"),
        (two_in_row_zero.T, "_dense_ybe_residual"),
        (all_in_row_zero, "_dense_ybe_residual"),
        (all_in_row_zero.T, "_dense_ybe_residual"),
        (one_zeroed, "_monomial_ybe_residual"),
        (np.zeros((9, 9)), "_monomial_ybe_residual"),
        (ghz, "_monomial_ybe_residual"),
    ]
    for r, path in cases:
        taken.clear()
        check_yang_baxter(r)
        assert taken == [path]


def test_overflowing_monomial_products_are_an_input_error():
    # the three-factor products reach 1e309: inf on both sides, nan apart
    r = 1e103 * swap(3)
    for call in (
        lambda: check_yang_baxter(r),
        lambda: check_algebraic_yang_baxter(to_algebraic(r, 3)),
        lambda: check_braid_relations(r, 3, 4),
    ):
        with pytest.raises(InputError, match="overflow"):
            call()
    assert check_yang_baxter(1e102 * swap(3)).residual == 0.0
    # one side overflows in the imaginary part only
    phases = np.ones((3, 3), dtype=np.complex128)
    phases[0, 1] = 1e103j
    with pytest.raises(InputError, match="overflow"):
        check_yang_baxter(1e103 * r_from_phase_matrix(phases))


def test_ybe_at_dim_twelve_stays_within_forty_megabytes():
    # the dense check held three 1728 x 1728 complex products (over 140 MB)
    r = r_from_phase_matrix(phase_matrix(12, 12))
    tracemalloc.start()
    try:
        report = check_yang_baxter(r, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.residual < 1e-15
    assert peak < 40 * 2**20


def test_ybe_at_the_dim_sixteen_cap_stays_within_ninety_six_megabytes():
    # the dense check would hold three 4096 x 4096 complex products (768 MB)
    r = r_from_phase_matrix(phase_matrix(16, 16))
    report, peak = peak_of(lambda: check_yang_baxter(r, 16))
    assert report.passed and report.residual < 1e-15
    assert peak < 96 * 2**20


def off_pattern_phase_swap(dim):
    """A phase swap with one entry off its pattern: R for the dense kernel."""
    r = r_from_phase_matrix(phase_matrix(dim, dim))
    r[0, 1] = 1e-3
    return r


def test_dense_ybe_at_dim_twelve_stays_within_forty_megabytes():
    r = off_pattern_phase_swap(12)
    report, peak = peak_of(lambda: check_yang_baxter(r, 12))
    assert not report.passed
    assert peak < 40 * 2**20


def test_dense_ybe_at_the_dim_sixteen_cap_stays_within_ninety_six_megabytes():
    r = off_pattern_phase_swap(16)
    report, peak = peak_of(lambda: check_yang_baxter(r, 16))
    assert not report.passed
    assert peak < 96 * 2**20


def test_braid_word_with_inverse_letters_matches_dense_products():
    word = BraidWord(5, (1, -2, 3, 4, -1))
    rng = np.random.default_rng(80)
    for r in (r_from_phase_matrix(phase_matrix(2, 81)), gaussian_matrix(4, rng)):
        ref = dense_word(word, r, 2)
        out = evaluate_braid_word(word, r, 2)
        assert np.array_equal(out != 0, ref != 0)
        # the same products summed in another order: last-ulp differences
        assert np.max(np.abs(out - ref)) <= 8 * EPS * np.max(np.abs(ref))


def test_refusals_come_before_allocation():
    big = np.eye(32 * 32, dtype=np.complex128)
    singular = np.zeros((4, 4), dtype=np.complex128)
    singular[0, 0] = 1.0
    refusals = [
        (ResourceLimitError, lambda: check_yang_baxter(big, 32)),
        (ResourceLimitError, lambda: evaluate_braid_word(BraidWord(13, (1,)), swap(2), 2)),
        (ResourceLimitError, lambda: check_braid_relations(swap(2), 2, 13)),
        # the 4096 x 4096 identity (256 MB) is never made for a singular R
        (InputError, lambda: evaluate_braid_word(BraidWord(12, (2, -1)), singular, 2)),
    ]
    for error, call in refusals:
        tracemalloc.start()
        try:
            with pytest.raises(error):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # validating the 16 MB input takes a 1 MB finiteness mask at most
        assert peak < 2 * 2**20


def peak_of(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_overflowing_products_are_an_input_error():
    # max(0.0, nan) is 0.0: the residual of this R once read 0.0, passed
    x = 1e103 * np.random.default_rng(0).normal(size=(4, 4))
    for call in (
        lambda: check_yang_baxter(x),
        lambda: check_algebraic_yang_baxter(x),
        lambda: check_braid_relations(x, 2, 3),
    ):
        with pytest.raises(InputError, match="overflow"):
            call()
    unscaled = check_yang_baxter(x / 1e103)
    assert 6.8 < unscaled.residual < 6.9 and not unscaled.passed


def test_overflowing_braid_words_are_an_input_error():
    word = BraidWord(3, (1, 2, 1))
    with pytest.raises(InputError, match="overflow"):
        evaluate_braid_word(word, 1e200 * swap(2), 2)
    # three letters of 1e100 reach 1e300: finite, and the swap word's pattern
    out = evaluate_braid_word(word, 1e100 * swap(2), 2)
    assert np.isfinite(out).all()
    assert np.array_equal(out != 0, evaluate_braid_word(word, swap(2), 2) != 0)


def test_strand_count_is_bounded_for_dimension_one():
    one = np.ones((1, 1))
    assert len(check_braid_relations(one, 1, 13).checks) == 55 + 11
    for strands in (1, 0, -3):
        with pytest.raises(InputError, match="^need at least 2 strands$"):
            check_braid_relations(one, 1, strands)
    for call in (
        lambda: check_braid_relations(one, 1, 14),
        lambda: check_braid_relations(one, 1, 3000),
        lambda: evaluate_braid_word(BraidWord(14, (1,)), one, 1),
    ):
        with pytest.raises(ResourceLimitError, match=r"^representation size 1\*\*\d+ exceeds cap"):
            call()
    # the message names the size without computing it
    with pytest.raises(ResourceLimitError, match=r"^representation size 3\*\*10000 exceeds"):
        check_braid_relations(swap(3), 3, 10000)
    with pytest.raises(ResourceLimitError, match=r"^representation size 17\*\*3 exceeds cap 4096$"):
        check_yang_baxter(np.eye(17 * 17), 17)


def test_empty_or_negative_factor_dimension_is_an_input_error():
    with pytest.raises(InputError):
        check_yang_baxter(np.zeros((0, 0)))
    with pytest.raises(InputError):
        check_yang_baxter(np.eye(4), -2)
    # a numpy integer dim is a Python int before any power is taken
    with pytest.raises(ResourceLimitError, match=r"^representation size 29\*\*13 exceeds"):
        evaluate_braid_word(BraidWord(13, (1,)), np.eye(841), np.int64(29))


def test_phase_swaps_above_the_two_strand_cap_are_refused_before_allocating():
    for call in (
        lambda: r_from_phase_matrix(np.ones((65, 65))),
        lambda: r_from_phase_matrix(np.broadcast_to(1.0, (65, 65))),
        lambda: r_from_phase_matrix(np.broadcast_to(1.0, (1000, 1000))),
    ):
        _, peak = peak_of(lambda: pytest.raises(ResourceLimitError, call))
        assert peak < 2**20
    assert r_from_phase_matrix(np.ones((64, 64))).shape == (4096, 4096)


def test_braid_words_of_a_fortran_ordered_r_are_those_of_its_c_ordered_copy():
    # R is read in C order whatever its memory layout, so every product sees
    # the same operand; a Fortran-ordered R once took other BLAS paths
    for dim in (2, 3, 4):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            r = gaussian_matrix(dim * dim, rng)
            word = BraidWord(3, tuple(int(x) for x in rng.choice([1, 2, -1, -2], size=4)))
            fortran = evaluate_braid_word(word, np.asfortranarray(r), dim)
            assert np.array_equal(fortran, evaluate_braid_word(word, r, dim))


def test_braid_word_is_written_back_into_one_buffer():
    word = BraidWord(10, (1, 5, 9, -3, -1))
    r = gaussian_matrix(4, np.random.default_rng(82))
    r_inv = np.linalg.inv(r)
    out, peak = peak_of(lambda: evaluate_braid_word(word, r, 2))
    ref = np.eye(2**10, dtype=np.complex128)
    for letter in word.letters:
        factor = r if letter > 0 else r_inv
        ref = _apply_on_strands(factor.T, ref, ref.shape[0] * 2 ** (abs(letter) - 1))
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    # the result alone is 16 MB; one product per letter held 32 MB
    assert peak < 24 * 2**20


# --- non-monomial solutions: the dense kernel where its cancellations matter

# Kauffman and Lomonaco's Bell-basis change, a unitary solution
BELL = np.array([[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]]) / math.sqrt(2)


def interleaved(r1, d1, r2, d2):
    """R1 (x) R2 on (C^d1 (x) C^d2)^(x2), rows read (a1 a2)(b1 b2): again a solution."""
    d = d1 * d2
    return np.kron(r1, r2).reshape((d1, d1, d2, d2) * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7) \
        .reshape(d * d, d * d)


def conjugated(r, d, seed):
    """(U (x) U) R (U (x) U)^dagger, U unitary from the QR of a seeded complex Gaussian."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    uu = np.kron(u, u)
    return uu @ r @ uu.conj().T


NON_MONOMIAL_SOLUTIONS = {
    "bell": lambda: (BELL, 2),
    "bell x phase swap": lambda: (interleaved(BELL, 2, r_from_phase_matrix(phase_matrix(3, 1)), 3),
                                  6),
    "bell x bell": lambda: (interleaved(BELL, 2, BELL, 2), 4),
    "conjugated phase swap 3": lambda: (conjugated(r_from_phase_matrix(phase_matrix(3, 2)), 3, 3),
                                        3),
    "conjugated phase swap 5": lambda: (conjugated(r_from_phase_matrix(phase_matrix(5, 2)), 5, 5),
                                        5),
    "conjugated phase swap 8": lambda: (conjugated(r_from_phase_matrix(phase_matrix(8, 2)), 8, 8),
                                        8),
}


@pytest.mark.parametrize("name", list(NON_MONOMIAL_SOLUTIONS))
def test_non_monomial_solutions_pass_on_the_dense_kernel(monkeypatch, name):
    r, dim = NON_MONOMIAL_SOLUTIONS[name]()
    taken = []
    for core in ("_monomial_ybe_residual", "_dense_ybe_residual"):
        def counting(*args, _name=core, _core=getattr(braid_module, core)):
            taken.append(_name)
            return _core(*args)

        monkeypatch.setattr(braid_module, core, counting)
    assert check_yang_baxter(r, dim).passed
    assert check_braid_relations(r, dim, 3).passed
    assert check_algebraic_yang_baxter(to_algebraic(r, dim), dim).passed
    assert set(taken) == {"_dense_ybe_residual"}
    assert is_unitary(r)[0]
    nudged = r.copy()
    nudged[0, 1] += 1e-6
    assert not check_yang_baxter(nudged, dim).passed

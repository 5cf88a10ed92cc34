"""Multi-index arithmetic, tensor types, and small dense linear algebra."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidgate.segre as segre_module
import braidgate.tensorops as tensorops_module
from braidgate import (
    CoefficientTensor,
    InputError,
    QuadricGenerator,
    ResourceLimitError,
    StateVector,
    digit_complement,
    evaluate_quadric,
    flatten_mode,
    is_unitary,
    kron,
    lex_index,
    multi_index,
    random_phases,
    uniform_product_state,
)

ALL_DIMS = [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 3, 4), (10, 10, 10, 10)]


def all_indices(dims):
    return itertools.product(*[range(1, d + 1) for d in dims])


def test_lex_index_examples():
    assert lex_index((1, 1), (3, 3)) == 1
    assert lex_index((3, 3), (3, 3)) == 9
    # row 4 of the 9x9 gate holds the (2,3) coefficient at column 6
    assert lex_index((2, 3), (3, 3)) == 6


def test_multi_index_examples():
    assert multi_index(1, (3, 3)) == (1, 1)
    assert multi_index(8, (3, 3)) == (3, 2)


@pytest.mark.parametrize("dims", ALL_DIMS)
def test_lex_multi_roundtrip_exhaustive(dims):
    total = math.prod(dims)
    seen = set()
    for k in all_indices(dims):
        r = lex_index(k, dims)
        assert 1 <= r <= total
        assert multi_index(r, dims) == k
        seen.add(r)
    assert len(seen) == total


def test_index_validation_errors():
    with pytest.raises(InputError):
        lex_index((0, 1), (3, 3))
    with pytest.raises(InputError):
        lex_index((1, 4), (3, 3))
    with pytest.raises(InputError):
        lex_index((1, 1, 1), (3, 3))
    with pytest.raises(InputError):
        multi_index(0, (3, 3))
    with pytest.raises(InputError):
        multi_index(10, (3, 3))


def test_index_helpers_check_dims_once_with_unchanged_messages(monkeypatch):
    calls = []
    as_dims = tensorops_module._as_dims

    def counting(dims):
        calls.append(dims)
        return as_dims(dims)

    monkeypatch.setattr(tensorops_module, "_as_dims", counting)
    monkeypatch.setattr(segre_module, "_as_dims", counting)
    for build in (
        lambda: lex_index((2, 3), (3, 3)),
        lambda: digit_complement((2, 3), (3, 3)),
        lambda: QuadricGenerator(1, (1, 1), (2, 2), (2, 2)),
    ):
        calls.clear()
        build()
        assert len(calls) == 1

    cases = [
        (lambda: lex_index((0, 1), (3, 3)), "digit 0 at slot 1 outside 1..3"),
        (lambda: lex_index((1, 1, 1), (3, 3)), "multi-index (1, 1, 1) has 3 digits, expected 2"),
        (lambda: lex_index((1, 1), (3, 0)), "dims must be non-empty and positive, got (3, 0)"),
        (lambda: lex_index((1,), None), "dims must be a sequence of integers, got None"),
        (lambda: digit_complement((1, 4), (3, 3)), "digit 4 at slot 2 outside 1..3"),
        (lambda: digit_complement((1, 1), ()), "dims must be non-empty and positive, got ()"),
        (lambda: QuadricGenerator(1, (1, 1), (2, 3), (2, 2)), "digit 3 at slot 2 outside 1..2"),
        (lambda: QuadricGenerator(1, (1,), (2, 2), (2, 2)),
         "multi-index (1,) has 1 digits, expected 2"),
        (lambda: QuadricGenerator(1, (1, 1), (2, 2), ("a", 2)),
         "dims must be a sequence of integers, got ('a', 2)"),
    ]
    for call, message in cases:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()


def test_digit_complement_examples():
    assert digit_complement((1, 1), (3, 3)) == (3, 3)
    assert digit_complement((2, 2), (3, 3)) == (2, 2)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3)])
def test_complement_reverses_lex_order(dims):
    total = math.prod(dims)
    for k in all_indices(dims):
        comp = digit_complement(k, dims)
        assert digit_complement(comp, dims) == k
        assert lex_index(comp, dims) + lex_index(k, dims) == total + 1


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    b = np.array([[1 + 2j, 3], [0, -1j]])
    assert np.array_equal(kron(np.array([[2.5j]]), b), 2.5j * b)


def test_kron_associativity():
    rng = np.random.default_rng(7)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    a, b, c = mats
    lhs = kron(kron(a, b), c)
    rhs = kron(a, kron(b, c))
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_kron_mixed_product_with_vectors():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    lhs = kron(a, b) @ np.kron(v, w)
    rhs = np.kron(a @ v, b @ w)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_kron_size_cap():
    with pytest.raises(ResourceLimitError):
        kron(np.eye(200), np.eye(200), max_dim=10_000)


def test_is_unitary():
    ok, residual = is_unitary(np.eye(9))
    assert ok and residual == 0.0
    ok, residual = is_unitary(np.diag([2.0, 1.0, 1.0]))
    assert not ok and residual == pytest.approx(3.0)
    with pytest.raises(InputError):
        is_unitary(np.ones((2, 3)))


def test_monomial_pattern_with_unimodular_values_is_unitary():
    rng = np.random.default_rng(10)
    n = 9
    perm = rng.permutation(n)
    mat = np.zeros((n, n), dtype=complex)
    values = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    mat[np.arange(n), perm] = values
    ok, residual = is_unitary(mat, 1e-12)
    assert ok
    # the residual is exactly the worst |value|^2 deviation
    expected = np.max(np.abs(np.abs(values) ** 2 - 1.0))
    assert abs(residual - expected) < 1e-14


def test_flatten_mode_rank1_has_zero_minors():
    u = np.array([1.0, 2.0, -1.5])
    v = np.array([0.5 - 1j, 2.0, 1j])
    tensor = CoefficientTensor.from_array(np.multiply.outer(u, v))
    for slot in (1, 2):
        mat = flatten_mode(tensor, slot)
        for r1, r2 in itertools.combinations(range(mat.shape[0]), 2):
            for c1, c2 in itertools.combinations(range(mat.shape[1]), 2):
                minor = mat[r1, c1] * mat[r2, c2] - mat[r1, c2] * mat[r2, c1]
                assert abs(minor) < 1e-13


def test_flatten_mode_identity_layout():
    tensor = CoefficientTensor((2, 2), [1, 0, 0, 1])
    assert np.array_equal(flatten_mode(tensor, 1), np.eye(2))


def test_flatten_mode_matches_element_access():
    dims = (2, 3, 2)
    rng = np.random.default_rng(11)
    tensor = CoefficientTensor(dims, rng.normal(size=12) + 1j * rng.normal(size=12))
    for slot in (1, 2, 3):
        mat = flatten_mode(tensor, slot)
        rest_dims = dims[: slot - 1] + dims[slot:]
        for k in all_indices(dims):
            rest = k[: slot - 1] + k[slot:]
            col = lex_index(rest, rest_dims) - 1
            assert mat[k[slot - 1] - 1, col] == tensor.at(k)
    with pytest.raises(InputError):
        flatten_mode(tensor, 0)
    with pytest.raises(InputError):
        flatten_mode(tensor, 4)


def test_uniform_product_state():
    assert np.array_equal(uniform_product_state((3, 3)).amplitudes, np.ones(9))
    assert np.array_equal(uniform_product_state((2,)).amplitudes, np.ones(2))
    assert np.array_equal(uniform_product_state((3, 3, 3)).amplitudes, np.ones(27))


def test_coefficient_tensor_validation():
    with pytest.raises(InputError):
        CoefficientTensor((2, 2), [1, 2, 3])
    with pytest.raises(InputError):
        CoefficientTensor((2, 2), [1, 2, 3, np.nan])
    with pytest.raises(InputError):
        CoefficientTensor((0, 2), [])
    t = CoefficientTensor((2, 3), np.arange(6))
    assert t.at((1, 3)) == 2
    assert t.as_array().shape == (2, 3)
    with pytest.raises(ValueError):
        t.entries[0] = 5.0  # frozen storage


@st.composite
def shapes_and_digits(draw):
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
    return dims, tuple(draw(st.integers(1, n)) for n in dims), draw(st.integers(1, math.prod(dims)))


@settings(max_examples=100, deadline=None)
@given(shapes_and_digits())
def test_lex_index_and_multi_index_invert_each_other(case):
    dims, digits, rank = case
    assert multi_index(lex_index(digits, dims), dims) == digits
    assert lex_index(multi_index(rank, dims), dims) == rank


def test_entry_lookup_does_not_check_dims_again(monkeypatch):
    tensor = CoefficientTensor((2, 3), np.arange(6))
    gen = QuadricGenerator(1, (1, 1), (2, 2), (2, 3))
    calls = []
    for module in (tensorops_module, segre_module):
        monkeypatch.setattr(module, "_as_dims", calls.append)
    assert tensor.at((2, 3)) == 5
    assert evaluate_quadric(gen, tensor) == 0 * 4 - 3 * 1
    assert calls == []
    with pytest.raises(InputError, match="^digit 4 at slot 2 outside 1..3$"):
        tensor.at((1, 4))


def test_states_and_random_tensors_share_the_tensor_checks():
    with pytest.raises(InputError, match="^3 entries incompatible with dims"):
        StateVector((2, 2), [1, 2, 3])
    with pytest.raises(InputError, match="^tensor entries contain non-finite values$"):
        StateVector((2,), [1, np.inf])
    with pytest.raises(InputError, match="^dims must be non-empty and positive"):
        random_phases((2, -1), 1)

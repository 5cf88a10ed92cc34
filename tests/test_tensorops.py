"""Multi-index arithmetic, tensor types, and small dense linear algebra."""

import itertools
import math
import re
import tracemalloc

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
    evaluate_quadric,
    is_fully_separable,
    is_unitary,
    kron,
    lex_index,
    quadric_generators,
    random_phases,
    rank1_oracle,
    segre_map,
)

ALL_DIMS = [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 3, 4), (10, 10, 10, 10)]


def all_indices(dims):
    return itertools.product(*[range(1, d + 1) for d in dims])


def multi_index(rank, dims):
    """Reference inverse of lex_index: lex order is numpy's C order, 1-based."""
    return tuple(int(x) + 1 for x in np.unravel_index(rank - 1, dims))


def digit_complement(digits, dims):
    """Reference reflection of every digit: k_j -> dims[j] + 1 - k_j."""
    return tuple(n + 1 - d for d, n in zip(digits, dims))


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
        (lambda: lex_index((1, 4), (3, 3)), "digit 4 at slot 2 outside 1..3"),
        (lambda: lex_index((1, 1), ()), "dims must be non-empty and positive, got ()"),
        (lambda: QuadricGenerator(1, (1, 1), (2, 3), (2, 2)), "digit 3 at slot 2 outside 1..2"),
        (lambda: QuadricGenerator(3, (1, 1), (2, 2), (2, 2)), "slot 3 outside 1..2"),
        (lambda: QuadricGenerator(0, (1, 1), (2, 2), (2, 2)), "slot 0 outside 1..2"),
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
        kron(np.eye(200), np.eye(200))


def test_an_overflowing_unitarity_product_is_an_input_error():
    with pytest.raises(InputError, match="overflow"):
        is_unitary(1e200 * np.eye(2))
    assert is_unitary(1e150 * np.eye(2)) == (False, 1e150 * 1e150 - 1.0)


def test_an_overflowing_kronecker_product_is_an_input_error():
    with pytest.raises(InputError, match="overflow"):
        kron(1e200 * np.eye(2), 1e200 * np.eye(2))
    assert np.array_equal(kron(1e150 * np.eye(2), 1e150 * np.eye(2)), 1e150 * 1e150 * np.eye(4))


def test_oversized_tensors_are_refused_before_allocating():
    wide = np.ones(10**6, dtype=np.complex128)  # two of them multiply out to 16 TB
    for call in (
        lambda: random_phases((10**7, 10**7), 1),
        lambda: random_phases((2, 2**23 + 1), 1),
        lambda: segre_map([wide, wide]),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"exceeds cap 16777216 entries$"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_tensors_of_more_than_64_slots_have_no_array_form():
    # numpy's bare ValueError on a 65th axis once leaked from these calls
    t = CoefficientTensor((1,) * 65, [2 - 1j])
    with pytest.raises(InputError, match="^a tensor of 65 slots has no array form"):
        t.as_array()
    with pytest.raises(InputError, match="^65 factors exceed numpy's 64 axes$"):
        segre_map([[1.0]] * 65)
    assert t.at((1,) * 65) == 2 - 1j
    assert CoefficientTensor((1,) * 64, [3]).as_array().shape == (1,) * 64
    # the calls that never needed the array form keep working
    assert is_fully_separable(t).separable and rank1_oracle(t)
    assert quadric_generators((1,) * 65) == () and lex_index((1,) * 65, (1,) * 65) == 1
    wide = CoefficientTensor((1,) * 40 + (2,) + (1,) * 40, [5, 7])
    assert wide.at((1,) * 40 + (2,) + (1,) * 40) == 7


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

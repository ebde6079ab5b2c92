"""Permutation utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import (
    identity_permutation,
    invert_permutation,
    is_permutation,
    random_permutation,
)


class TestIsPermutation:
    def test_valid(self):
        assert is_permutation([2, 0, 1])

    def test_duplicate(self):
        assert not is_permutation([0, 0, 1])

    def test_out_of_range(self):
        assert not is_permutation([0, 1, 3])

    def test_length_mismatch(self):
        assert not is_permutation([0, 1], n=3)

    def test_empty(self):
        assert is_permutation([])

    @pytest.mark.parametrize(
        "perm", [[0.0, 1.0], [True, False], [[0, 1]], "10", [0, -1]],
        ids=["float", "bool", "2d", "str", "negative"],
    )
    def test_false_not_an_exception(self, perm):
        assert is_permutation(perm) is False

    def test_accepts_any_integer_array(self):
        assert is_permutation(np.array([1, 0, 2], dtype=np.uint8))
        assert is_permutation(np.arange(100_000)[::-1], n=100_000)


class TestInvert:
    def test_identity(self):
        p = identity_permutation(4)
        assert np.array_equal(invert_permutation(p), p)

    def test_inverse_property(self):
        p = np.array([2, 0, 3, 1])
        inv = invert_permutation(p)
        assert np.array_equal(inv[p], np.arange(4))
        assert np.array_equal(p[inv], np.arange(4))

    @given(st.integers(1, 50), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_double_inverse(self, n, seed):
        p = random_permutation(n, seed)
        assert np.array_equal(invert_permutation(invert_permutation(p)), p)


class TestRandom:
    def test_is_permutation(self):
        assert is_permutation(random_permutation(20, seed=3))

    def test_deterministic(self):
        assert np.array_equal(random_permutation(10, 5), random_permutation(10, 5))

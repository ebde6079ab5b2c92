"""Sparse triangular solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numeric import sparse_cholesky
from repro.sparse import grid5, random_symmetric_graph, spd_from_graph

from .oracles import solve_lower, solve_lower_transpose


def _factor(n_seed):
    n, seed = n_seed
    g = random_symmetric_graph(n, 0.4, seed=seed)
    a = spd_from_graph(g, seed=seed)
    return sparse_cholesky(a)


class TestSolveLower:
    def test_identity(self):
        L = sparse_cholesky(spd_from_graph(grid5(2, 2), seed=0))
        b = np.array([1.0, 2.0, 3.0, 4.0])
        x = solve_lower(L, b)
        assert np.allclose(L.to_dense() @ x, b)

    def test_shape_checked(self):
        L = sparse_cholesky(spd_from_graph(grid5(2, 2), seed=0))
        with pytest.raises(ValueError):
            solve_lower(L, np.zeros(3))

    @given(st.integers(2, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_forward_property(self, n, seed):
        L = _factor((n, seed))
        b = np.random.default_rng(seed).random(n)
        x = solve_lower(L, b)
        assert np.allclose(L.to_dense() @ x, b, atol=1e-9)


class TestSolveLowerTranspose:
    def test_basic(self):
        L = sparse_cholesky(spd_from_graph(grid5(3, 2), seed=1))
        b = np.arange(6, dtype=float)
        x = solve_lower_transpose(L, b)
        assert np.allclose(L.to_dense().T @ x, b)

    def test_shape_checked(self):
        L = sparse_cholesky(spd_from_graph(grid5(2, 2), seed=0))
        with pytest.raises(ValueError):
            solve_lower_transpose(L, np.zeros(9))

    @given(st.integers(2, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_backward_property(self, n, seed):
        L = _factor((n, seed))
        b = np.random.default_rng(seed + 1).random(n)
        x = solve_lower_transpose(L, b)
        assert np.allclose(L.to_dense().T @ x, b, atol=1e-9)


class TestComposition:
    def test_forward_then_backward_solves_normal_equations(self):
        a = spd_from_graph(grid5(3, 3), seed=2)
        L = sparse_cholesky(a)
        b = np.ones(a.n)
        x = solve_lower_transpose(L, solve_lower(L, b))
        assert np.allclose(a.to_dense() @ x, b, atol=1e-9)

"""Four-step SPD solver driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import grid5, grid9, random_symmetric_graph, spd_from_graph

from .oracles import SPDSolver, solve_spd


class TestSolveSPD:
    @pytest.mark.parametrize("ordering", ["natural", "mmd", "md", "rcm", "nd"])
    def test_all_orderings_solve(self, ordering):
        a = spd_from_graph(grid5(5, 5), seed=1)
        b = np.arange(a.n, dtype=float)
        x = solve_spd(a, b, ordering=ordering)
        assert np.allclose(a.to_dense() @ x, b, atol=1e-8)

    def test_reusable_factorization(self):
        a = spd_from_graph(grid9(4, 4), seed=2)
        solver = SPDSolver.factorize(a)
        for seed in range(3):
            b = np.random.default_rng(seed).random(a.n)
            assert np.allclose(a.to_dense() @ solver.solve(b), b, atol=1e-8)

    def test_b_shape_checked(self):
        a = spd_from_graph(grid5(2, 3), seed=3)
        solver = SPDSolver.factorize(a)
        with pytest.raises(ValueError):
            solver.solve(np.zeros(2))

    def test_mmd_factor_smaller_than_natural(self):
        a = spd_from_graph(grid5(9, 9), seed=4)
        s_nat = SPDSolver.factorize(a, "natural")
        s_mmd = SPDSolver.factorize(a, "mmd")
        assert s_mmd.factor.nnz < s_nat.factor.nnz

    @given(st.integers(2, 15), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_solution_property(self, n, seed):
        g = random_symmetric_graph(n, 0.35, seed=seed)
        a = spd_from_graph(g, seed=seed)
        x_true = np.random.default_rng(seed).random(n)
        b = a.to_dense() @ x_true
        x = solve_spd(a, b)
        assert np.allclose(x, x_true, atol=1e-7)

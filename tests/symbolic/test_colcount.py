"""Column/row counts and the work formula."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import grid5, grid9, path_graph
from repro.symbolic import symbolic_cholesky

from ..conftest import random_connected_graph
from .oracles import column_counts, factor_nnz, row_counts, sequential_work


class TestColumnCounts:
    def test_path(self):
        assert column_counts(path_graph(4)).tolist() == [2, 2, 2, 1]

    def test_matches_full_symbolic_grid(self):
        g = grid5(5, 5)
        f = symbolic_cholesky(g)
        assert np.array_equal(column_counts(g), f.column_counts())

    def test_with_permutation(self):
        g = grid5(4, 4)
        perm = np.arange(g.n)[::-1].copy()
        f = symbolic_cholesky(g, perm)
        assert np.array_equal(column_counts(g, perm), f.column_counts())

    @given(st.integers(2, 20), st.integers(0, 25), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_symbolic_random(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert np.array_equal(column_counts(g), symbolic_cholesky(g).column_counts())


class TestRowCounts:
    def test_sum_equals_nnz(self):
        g = grid5(5, 4)
        assert int(row_counts(g).sum()) == factor_nnz(g)

    def test_first_row_single(self):
        g = grid5(3, 3)
        assert row_counts(g)[0] == 1


class TestWorkFormula:
    def test_formula_matches_updates(self):
        """sequential_work must equal 2 * #pair-updates + nnz(L)."""
        from repro.symbolic import enumerate_updates

        g = grid5(5, 5)
        f = symbolic_cholesky(g)
        ups = enumerate_updates(f.pattern)
        assert sequential_work(g) == 2 * ups.num_pair_updates + f.nnz

    def test_lap30_total_work_near_paper(self):
        from repro.ordering import multiple_minimum_degree

        g = grid9(30, 30)
        w = sequential_work(g, multiple_minimum_degree(g))
        # Paper: 434577 with Liu's MMD; allow ordering slack.
        assert 350_000 <= w <= 600_000

    @given(st.integers(2, 15), st.integers(0, 15), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_formula_property(self, n, extra, seed):
        from repro.symbolic import enumerate_updates

        g = random_connected_graph(n, extra, seed)
        f = symbolic_cholesky(g)
        ups = enumerate_updates(f.pattern)
        assert sequential_work(g) == ups.total_work()

"""Approximate minimum degree."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import (
    approximate_minimum_degree,
    is_permutation,
    multiple_minimum_degree,
)
from repro.sparse import grid5, grid9, path_graph, star_graph
from repro.sparse.pattern import SymmetricGraph
from repro.symbolic import fill_in

from ..conftest import random_connected_graph


class TestAMD:
    def test_path_no_fill(self):
        g = path_graph(12)
        perm = approximate_minimum_degree(g)
        assert is_permutation(perm)
        assert fill_in(g, perm) == 0

    def test_star_no_fill(self):
        g = star_graph(9)
        assert fill_in(g, approximate_minimum_degree(g)) == 0

    def test_empty(self):
        assert len(approximate_minimum_degree(SymmetricGraph.empty(0))) == 0

    def test_isolated_nodes(self):
        g = SymmetricGraph.empty(5)
        assert is_permutation(approximate_minimum_degree(g))

    def test_grid_fill_comparable_to_mmd(self):
        g = grid9(12, 12)
        f_amd = fill_in(g, approximate_minimum_degree(g))
        f_mmd = fill_in(g, multiple_minimum_degree(g))
        # AMD's degree is an upper bound, so fill can differ, but must
        # stay in the same class.
        assert f_amd <= 1.5 * f_mmd

    def test_beats_natural_on_grid(self):
        g = grid5(10, 10)
        natural = fill_in(g, np.arange(g.n))
        assert fill_in(g, approximate_minimum_degree(g)) < 0.6 * natural

    def test_deterministic(self):
        g = grid9(7, 7)
        assert np.array_equal(
            approximate_minimum_degree(g), approximate_minimum_degree(g)
        )

    def test_registry_exposes_amd(self):
        from repro.ordering import order

        g = grid5(5, 5)
        assert is_permutation(order(g, "amd"))

    @given(st.integers(2, 25), st.integers(0, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_a_permutation(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert is_permutation(approximate_minimum_degree(g), g.n)

    @given(st.integers(3, 18), st.integers(0, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fill_bounded_property(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        f = fill_in(g, approximate_minimum_degree(g))
        assert 0 <= f <= n * (n - 1) // 2

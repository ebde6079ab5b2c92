"""Minimum degree and multiple minimum degree orderings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import (
    is_permutation,
    minimum_degree,
    multiple_minimum_degree,
    multiple_minimum_degree_reference,
)
from repro.sparse import band_graph, band_lower_pattern, grid5, grid9, path_graph, star_graph
from repro.sparse import harwell_boeing as hb
from repro.sparse.pattern import SymmetricGraph
from repro.symbolic import fill_in

from ..conftest import random_connected_graph


class TestMinimumDegree:
    def test_path_no_fill(self):
        g = path_graph(10)
        perm = minimum_degree(g)
        assert is_permutation(perm)
        assert fill_in(g, perm) == 0

    def test_star_no_fill(self):
        # Eliminating leaves first leaves the hub for last: zero fill.
        g = star_graph(8)
        perm = minimum_degree(g)
        assert fill_in(g, perm) == 0
        # The hub is eliminated only once it reaches minimum degree —
        # among the last two nodes remaining.
        assert 0 in perm[-2:]

    def test_empty_graph(self):
        g = SymmetricGraph.empty(5)
        assert is_permutation(minimum_degree(g))

    def test_reduces_grid_fill_vs_natural(self):
        g = grid5(8, 8)
        natural = fill_in(g, np.arange(g.n))
        md = fill_in(g, minimum_degree(g))
        assert md < natural

    @given(st.integers(2, 25), st.integers(0, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_always_a_permutation(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert is_permutation(minimum_degree(g), g.n)


class TestMultipleMinimumDegree:
    def test_path_no_fill(self):
        g = path_graph(12)
        assert fill_in(g, multiple_minimum_degree(g)) == 0

    def test_tree_no_fill(self):
        g = random_connected_graph(40, 0, seed=3)  # a random tree
        assert fill_in(g, multiple_minimum_degree(g)) == 0

    def test_empty_n(self):
        assert len(multiple_minimum_degree(SymmetricGraph.empty(0))) == 0

    def test_isolated_nodes(self):
        g = SymmetricGraph.empty(4)
        assert is_permutation(multiple_minimum_degree(g))

    def test_comparable_to_md_on_grid(self):
        g = grid5(10, 10)
        f_md = fill_in(g, minimum_degree(g))
        f_mmd = fill_in(g, multiple_minimum_degree(g))
        # MMD's multiple elimination may differ slightly but must stay in
        # the same fill class (well under natural-ordering fill).
        natural = fill_in(g, np.arange(g.n))
        assert f_mmd < natural / 2
        assert f_mmd <= 2 * max(f_md, 1)

    def test_lap30_fill_near_paper(self):
        from repro.symbolic import factor_nnz

        g = grid9(30, 30)
        nnzl = factor_nnz(g, multiple_minimum_degree(g))
        # Paper: 16697 with Liu's code; tie-breaking differences allowed.
        assert 14000 <= nnzl <= 20000

    def test_delta_parameter(self):
        g = grid5(6, 6)
        for delta in (0, 1, 2):
            assert is_permutation(multiple_minimum_degree(g, delta=delta))

    def test_deterministic(self):
        g = grid9(7, 7)
        assert np.array_equal(
            multiple_minimum_degree(g), multiple_minimum_degree(g)
        )

    @given(st.integers(2, 25), st.integers(0, 25), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_always_a_permutation(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert is_permutation(multiple_minimum_degree(g), g.n)

    @given(st.integers(3, 15), st.integers(0, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_never_worse_than_reverse_natural_much(self, n, extra, seed):
        """MMD fill is bounded by a dense factor (sanity envelope)."""
        g = random_connected_graph(n, extra, seed)
        f = fill_in(g, multiple_minimum_degree(g))
        assert 0 <= f <= n * (n - 1) // 2


class TestMMDIdentity:
    """The fast MMD must return the identical permutation to the
    set-based reference — same passes, tie-breaking, and merge order."""

    @pytest.mark.parametrize("name", hb.names())
    def test_identical_on_paper_matrices(self, name):
        g = hb.load(name)
        np.testing.assert_array_equal(
            multiple_minimum_degree(g), multiple_minimum_degree_reference(g)
        )

    @pytest.mark.parametrize("delta", [0, 1, 2])
    def test_identical_on_band_graph(self, delta):
        g = band_graph(220, 13)
        np.testing.assert_array_equal(
            multiple_minimum_degree(g, delta=delta),
            multiple_minimum_degree_reference(g, delta=delta),
        )

    def test_identical_on_band_pattern_graph(self):
        g = band_lower_pattern(150, 9).to_symmetric_graph()
        np.testing.assert_array_equal(
            multiple_minimum_degree(g), multiple_minimum_degree_reference(g)
        )

    @given(
        st.integers(2, 40),
        st.integers(0, 60),
        st.integers(0, 2**31 - 1),
        st.integers(0, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_identical_on_random_graphs(self, n, extra, seed, delta):
        g = random_connected_graph(n, extra, seed)
        np.testing.assert_array_equal(
            multiple_minimum_degree(g, delta=delta),
            multiple_minimum_degree_reference(g, delta=delta),
        )

    @pytest.mark.parametrize("name", ["DWT512", "CANN1072"])
    def test_arena_path_identical(self, name, monkeypatch):
        """Force the CSR-arena path (normally n > _BITSET_MAX_N) and
        check it too matches the reference."""
        from repro.ordering import mmd as mmd_mod

        monkeypatch.setattr(mmd_mod, "_BITSET_MAX_N", 0)
        g = hb.load(name)
        np.testing.assert_array_equal(
            multiple_minimum_degree(g), multiple_minimum_degree_reference(g)
        )

    def test_arena_path_identical_random(self, monkeypatch):
        from repro.ordering import mmd as mmd_mod

        monkeypatch.setattr(mmd_mod, "_BITSET_MAX_N", 0)
        for seed in range(6):
            g = random_connected_graph(30, 45, seed)
            for delta in (0, 1, 2):
                np.testing.assert_array_equal(
                    multiple_minimum_degree(g, delta=delta),
                    multiple_minimum_degree_reference(g, delta=delta),
                )

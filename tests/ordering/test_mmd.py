"""Minimum degree and multiple minimum degree orderings."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace as obs
from repro.ordering import (
    is_permutation,
    minimum_degree,
    multiple_minimum_degree,
    multiple_minimum_degree_reference,
)
from repro.ordering import mmd as mmd_mod
from repro.sparse import (
    band_graph,
    band_lower_pattern,
    grid5,
    grid9,
    path_graph,
    social_graph,
    star_graph,
)
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
        monkeypatch.setattr(mmd_mod, "_BITSET_MAX_N", 0)
        g = hb.load(name)
        np.testing.assert_array_equal(
            multiple_minimum_degree(g), multiple_minimum_degree_reference(g)
        )

    def test_arena_path_identical_random(self, monkeypatch):
        monkeypatch.setattr(mmd_mod, "_BITSET_MAX_N", 0)
        for seed in range(6):
            g = random_connected_graph(30, 45, seed)
            for delta in (0, 1, 2):
                np.testing.assert_array_equal(
                    multiple_minimum_degree(g, delta=delta),
                    multiple_minimum_degree_reference(g, delta=delta),
                )


@pytest.fixture
def arena(monkeypatch):
    """``multiple_minimum_degree`` forced onto the CSR-arena tier."""
    monkeypatch.setattr(mmd_mod, "_BITSET_MAX_N", 0)
    return mmd_mod.multiple_minimum_degree


def _counted(order, graph, delta=0):
    """The permutation and the ``perf.order.*`` counters of one call."""
    with obs.enabled() as rec:
        perm = order(graph, delta)
    counters = {k: v for k, v in rec.counters.items() if k.startswith("perf.order.")}
    counters.pop("perf.order.compactions", None)  # the bitset tier has none
    return perm, counters


def complete_graph(n):
    us, vs = zip(*combinations(range(n), 2))
    return SymmetricGraph.from_edges(n, np.asarray(us), np.asarray(vs))


class TestNegativeDelta:
    """A threshold below the minimum degree selects nothing: refused, not
    an endless pass loop."""

    @pytest.mark.parametrize("tier", ["reference", "bitset", "arena"])
    def test_raises(self, tier, monkeypatch):
        order = multiple_minimum_degree
        if tier == "reference":
            order = multiple_minimum_degree_reference
        elif tier == "arena":
            monkeypatch.setattr(mmd_mod, "_BITSET_MAX_N", 0)
        with pytest.raises(ValueError, match="delta"):
            order(grid9(6, 6), delta=-1)


class TestArenaTier:
    """The CSR arena (n > ``_BITSET_MAX_N``) against the bitset tier and
    the reference, at merge densities like the ``network`` workload's."""

    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize("chords", [0.3, 0.8, 1.8])
    @pytest.mark.parametrize("n", [50, 300, 1000])
    def test_identical_to_bitset_on_social_graphs(self, arena, n, chords, delta):
        for seed in range(3):
            g = social_graph(n, chords, max_len=64, seed=seed)
            perm, counters = _counted(arena, g, delta)
            want, want_counters = _counted(mmd_mod._mmd_bitset, g, delta)
            np.testing.assert_array_equal(perm, want)
            assert counters == want_counters

    def test_identical_to_bitset_on_network_input(self, arena):
        g = social_graph(20000, 0.8, max_len=64, seed=0)
        perm, counters = _counted(arena, g)
        want, want_counters = _counted(mmd_mod._mmd_bitset, g)
        np.testing.assert_array_equal(perm, want)
        assert counters == want_counters
        assert counters["perf.order.supernodes_merged"] > 1000

    @given(
        st.integers(2, 60),
        st.integers(0, 150),
        st.integers(0, 2**31 - 1),
        st.integers(0, 2),
    )
    @settings(deadline=None)
    def test_identical_on_random_graphs(self, n, extra, seed, delta):
        g = random_connected_graph(n, extra, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mmd_mod, "_BITSET_MAX_N", 0)
            perm, counters = _counted(mmd_mod.multiple_minimum_degree, g, delta)
        want, want_counters = _counted(mmd_mod._mmd_bitset, g, delta)
        np.testing.assert_array_equal(perm, want)
        assert counters == want_counters
        np.testing.assert_array_equal(
            perm, multiple_minimum_degree_reference(g, delta=delta)
        )

    @pytest.mark.parametrize("n, merged", [(3, 1), (4, 1), (5, 2), (6, 3)])
    def test_merge_counts_on_complete_graphs(self, monkeypatch, n, merged):
        """After node 0 goes, the n - 1 twins share one closure, but a
        merge changes the closure the next twin sees: they merge in pairs
        (the reference's frozen dictionary keys), so K5 merges twice."""
        g = complete_graph(n)
        bitset = _counted(multiple_minimum_degree, g)
        monkeypatch.setattr(mmd_mod, "_BITSET_MAX_N", 0)
        for perm, counters in (bitset, _counted(multiple_minimum_degree, g)):
            assert counters["perf.order.supernodes_merged"] == merged
            np.testing.assert_array_equal(perm, multiple_minimum_degree_reference(g))

    def test_forced_hash_collisions(self, arena, monkeypatch):
        """Every content code equal: rows of one size share a hash, so
        the exact split of a colliding group decides every class."""
        monkeypatch.setattr(
            mmd_mod, "_splitmix64", lambda x: np.full(len(x), 12345, dtype=np.uint64)
        )
        graphs = [random_connected_graph(40, 60, seed) for seed in range(10)]
        graphs += [grid9(12, 12), complete_graph(7), social_graph(300, 0.8, max_len=64)]
        for g in graphs:
            for delta in (0, 1):
                np.testing.assert_array_equal(
                    arena(g, delta), multiple_minimum_degree_reference(g, delta=delta)
                )

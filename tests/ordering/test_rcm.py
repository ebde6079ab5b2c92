"""Reverse Cuthill-McKee."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import (
    bandwidth,
    is_permutation,
    pseudo_peripheral_node,
    random_permutation,
    reverse_cuthill_mckee,
)
from repro.sparse import grid5, path_graph
from repro.sparse.pattern import SymmetricGraph

from ..conftest import random_connected_graph


class TestBandwidth:
    def test_path_natural(self):
        assert bandwidth(path_graph(6)) == 1

    def test_empty(self):
        assert bandwidth(SymmetricGraph.empty(4)) == 0

    def test_permuted(self):
        g = path_graph(4)
        assert bandwidth(g, perm=[0, 2, 1, 3]) == 2


class TestPseudoPeripheral:
    def test_path_finds_endpoint(self):
        g = path_graph(9)
        assert pseudo_peripheral_node(g, 4) in (0, 8)

    def test_returns_start_on_star(self):
        from repro.sparse import star_graph

        g = star_graph(5)
        node = pseudo_peripheral_node(g, 0)
        assert 0 <= node < 5


class TestRCM:
    def test_is_permutation(self):
        g = grid5(6, 4)
        assert is_permutation(reverse_cuthill_mckee(g))

    def test_reduces_bandwidth_vs_random(self):
        g = grid5(8, 8)
        shuffled = g.permute(random_permutation(g.n, seed=1))
        before = bandwidth(shuffled)
        after = bandwidth(shuffled, perm=reverse_cuthill_mckee(shuffled))
        assert after < before

    def test_grid_bandwidth_near_optimal(self):
        g = grid5(10, 5)
        # Optimal bandwidth of a 10x5 grid is 5; RCM should be close.
        assert bandwidth(g, perm=reverse_cuthill_mckee(g)) <= 8

    def test_disconnected(self):
        g = SymmetricGraph.from_edges(6, [0, 3], [1, 4])
        assert is_permutation(reverse_cuthill_mckee(g))

    def test_isolated_nodes(self):
        assert is_permutation(reverse_cuthill_mckee(SymmetricGraph.empty(3)))

    @given(st.integers(2, 30), st.integers(0, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_always_a_permutation(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert is_permutation(reverse_cuthill_mckee(g), g.n)

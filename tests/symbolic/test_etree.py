"""Elimination tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import grid5, path_graph, star_graph
from repro.symbolic import tree_levels

from ..conftest import brute_force_etree, random_connected_graph
from .oracles import children_lists, etree, postorder


class TestEtree:
    def test_path(self):
        parent = etree(path_graph(5))
        assert parent.tolist() == [1, 2, 3, 4, -1]

    def test_star_hub_last_in_natural(self):
        # Natural order on a star: node 0 (hub) eliminated first, so all
        # later nodes chain through the fill.
        parent = etree(star_graph(4))
        assert parent[0] == 1

    def test_empty(self):
        from repro.sparse.pattern import SymmetricGraph

        parent = etree(SymmetricGraph.empty(3))
        assert parent.tolist() == [-1, -1, -1]

    def test_matches_brute_force_grid(self):
        g = grid5(4, 4)
        expected = brute_force_etree(np.tril(g.to_dense_bool()))
        assert np.array_equal(etree(g), expected)

    @given(st.integers(2, 20), st.integers(0, 25), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_random(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        expected = brute_force_etree(np.tril(g.to_dense_bool()))
        assert np.array_equal(etree(g), expected)

    @given(st.integers(2, 20), st.integers(0, 25), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_parent_always_greater(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        parent = etree(g)
        for j, p in enumerate(parent.tolist()):
            assert p == -1 or p > j


class TestPostorder:
    def test_children_before_parents(self):
        g = grid5(4, 3)
        parent = etree(g)
        post = postorder(parent)
        position = np.empty(len(post), dtype=int)
        position[post] = np.arange(len(post))
        for j, p in enumerate(parent.tolist()):
            if p >= 0:
                assert position[j] < position[p]

    def test_is_permutation(self):
        g = grid5(5, 4)
        post = postorder(etree(g))
        assert sorted(post.tolist()) == list(range(g.n))

    def test_forest(self):
        parent = np.array([-1, -1, 0, 0, 1], dtype=np.int64)
        post = postorder(parent)
        assert sorted(post.tolist()) == list(range(5))


class TestTreeHelpers:
    def test_children_lists(self):
        parent = np.array([2, 2, -1], dtype=np.int64)
        ch = children_lists(parent)
        assert ch == [[], [], [0, 1]]

    def test_tree_levels(self):
        parent = np.array([1, 2, -1], dtype=np.int64)
        assert tree_levels(parent).tolist() == [2, 1, 0]

    def test_levels_forest(self):
        parent = np.array([-1, 0, -1, 2], dtype=np.int64)
        assert tree_levels(parent).tolist() == [0, 1, 0, 1]

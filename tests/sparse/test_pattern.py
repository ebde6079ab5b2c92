"""Tests for SymmetricGraph and LowerPattern."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.pattern import LowerPattern, SymmetricGraph


class TestSymmetricGraphConstruction:
    def test_from_edges_basic(self):
        g = SymmetricGraph.from_edges(4, [0, 1, 2], [1, 2, 3])
        assert g.n == 4
        assert g.num_edges == 3
        assert list(g.neighbors(1)) == [0, 2]

    def test_from_edges_dedupes(self):
        g = SymmetricGraph.from_edges(3, [0, 1, 0], [1, 0, 1])
        assert g.num_edges == 1

    def test_from_edges_drops_self_loops(self):
        g = SymmetricGraph.from_edges(3, [0, 1], [0, 2])
        assert g.num_edges == 1
        assert g.has_edge(1, 2)

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SymmetricGraph.from_edges(3, [0], [3])

    def test_empty_graph(self):
        g = SymmetricGraph.empty(5)
        assert g.n == 5
        assert g.num_edges == 0
        assert g.nnz_lower == 5

    def test_from_dense_roundtrip(self):
        a = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        g = SymmetricGraph.from_dense(a)
        assert g.num_edges == 2
        mask = g.to_dense_bool()
        assert mask[0, 1] and mask[1, 2] and not mask[0, 2]
        assert not mask[0, 0]  # diagonal excluded

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricGraph.from_dense(np.array([[0, 1], [0, 0]]))

    def test_from_dense_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricGraph.from_dense(np.zeros((2, 3)))


class TestSymmetricGraphQueries:
    def test_degree(self):
        g = SymmetricGraph.from_edges(4, [0, 0, 0], [1, 2, 3])
        assert g.degree(0) == 3
        assert list(g.degree()) == [3, 1, 1, 1]

    def test_has_edge_symmetric(self):
        g = SymmetricGraph.from_edges(3, [0], [2])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_edges_canonical_orientation(self):
        g = SymmetricGraph.from_edges(4, [3, 2], [1, 0])
        u, v = g.edges()
        assert (u < v).all()
        assert len(u) == 2

    def test_nnz_lower(self):
        g = SymmetricGraph.from_edges(4, [0, 1], [1, 2])
        assert g.nnz_lower == 4 + 2


class TestSymmetricGraphPermute:
    def test_permute_identity(self):
        g = SymmetricGraph.from_edges(4, [0, 1], [1, 3])
        assert g.permute([0, 1, 2, 3]) == g

    def test_permute_relabels(self):
        g = SymmetricGraph.from_edges(3, [0], [1])
        # perm[k] = old index of new node k; reverse everything.
        p = g.permute([2, 1, 0])
        assert p.has_edge(2, 1)
        assert not p.has_edge(0, 1)

    def test_permute_rejects_non_permutation(self):
        g = SymmetricGraph.empty(3)
        with pytest.raises(ValueError):
            g.permute([0, 0, 1])

    @pytest.mark.parametrize(
        "perm", [[0.0, 1.0, 2.0], [True, False, 2], [0, 1], [0, 1, 3]],
        ids=["float", "bool", "short", "out_of_range"],
    )
    def test_permute_validates_not_coerces(self, perm):
        g = SymmetricGraph.empty(3)
        with pytest.raises(ValueError, match="perm is not a permutation"):
            g.permute(perm)

    @given(st.integers(2, 12), st.integers(0, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permute_preserves_edges(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, size=extra)
        v = rng.integers(0, n, size=extra)
        g = SymmetricGraph.from_edges(n, u, v)
        perm = rng.permutation(n)
        pg = g.permute(perm)
        assert pg.num_edges == g.num_edges
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)
        for a, b in zip(*g.edges()):
            assert pg.has_edge(inv[a], inv[b])


class TestLowerPattern:
    def test_from_entries_adds_diagonal(self):
        p = LowerPattern.from_entries(3, [2], [0])
        assert p.nnz == 4
        assert p.has(0, 0) and p.has(1, 1) and p.has(2, 2) and p.has(2, 0)

    def test_from_entries_rejects_upper(self):
        with pytest.raises(ValueError):
            LowerPattern.from_entries(3, [0], [2])

    def test_from_entries_dedupes(self):
        p = LowerPattern.from_entries(2, [1, 1], [0, 0])
        assert p.nnz == 3

    def test_col_sorted_with_diag_first(self):
        p = LowerPattern.from_entries(5, [4, 2, 3], [1, 1, 1])
        assert list(p.col(1)) == [1, 2, 3, 4]

    def test_element_id_lookup(self):
        p = LowerPattern.from_entries(3, [2, 1], [0, 0])
        for e in range(p.nnz):
            i = int(p.rowidx[e])
            j = int(p.element_cols()[e])
            assert p.element_id(i, j) == e
        assert p.element_id(2, 1) == -1

    def test_dense_constructor(self):
        p = LowerPattern.dense(4)
        assert p.nnz == 10
        assert p.col_count(0) == 4
        assert p.col_count(3) == 1

    def test_from_dense(self):
        a = np.array([[1.0, 0, 0], [2.0, 3.0, 0], [0, 0, 4.0]])
        p = LowerPattern.from_dense(a)
        assert p.has(1, 0)
        assert not p.has(2, 0)

    def test_offdiag_count(self):
        p = LowerPattern.from_entries(3, [1, 2], [0, 0])
        assert p.offdiag_count(0) == 2
        assert p.offdiag_count(1) == 0
        assert list(p.offdiag_count()) == [2, 0, 0]

    def test_element_cols_matches_indptr(self):
        p = LowerPattern.from_entries(4, [1, 2, 3, 3], [0, 0, 1, 2])
        cols = p.element_cols()
        for e in range(p.nnz):
            j = int(cols[e])
            assert p.indptr[j] <= e < p.indptr[j + 1]

    def test_to_symmetric_graph_roundtrip(self):
        g = SymmetricGraph.from_edges(5, [0, 1, 2], [4, 3, 4])
        assert g.lower().to_symmetric_graph() == g

    def test_contains(self):
        big = LowerPattern.from_entries(3, [1, 2], [0, 0])
        small = LowerPattern.from_entries(3, [1], [0])
        assert big.contains(small)
        assert not small.contains(big)

    def test_missing_diagonal_rejected(self):
        with pytest.raises(ValueError):
            LowerPattern(2, np.array([0, 1, 2]), np.array([1, 1]))

    @given(st.integers(1, 10), st.integers(0, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dense_roundtrip_property(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=extra)
        cols = rng.integers(0, n, size=extra)
        keep = rows >= cols
        p = LowerPattern.from_entries(n, rows[keep], cols[keep])
        assert LowerPattern.from_dense(p.to_dense_bool()) == p

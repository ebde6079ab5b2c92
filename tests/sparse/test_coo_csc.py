"""Tests for the COO builder and numeric CSC containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import COOBuilder, LowerCSC, SymmetricCSC, grid9, spd_from_graph
from repro.sparse.pattern import LowerPattern


class TestCOOBuilder:
    def test_build_simple(self):
        b = COOBuilder(3)
        b.add(0, 0, 2.0)
        b.add(1, 0, -1.0)
        a = b.build()
        assert a.get(0, 0) == 2.0
        assert a.get(1, 0) == -1.0
        assert a.get(0, 1) == -1.0  # symmetry

    def test_duplicates_summed(self):
        b = COOBuilder(2)
        b.add(1, 0, 1.0)
        b.add(0, 1, 2.5)  # mirrored entry folds into the same slot
        a = b.build()
        assert a.get(1, 0) == 3.5

    def test_out_of_range_rejected(self):
        b = COOBuilder(2)
        with pytest.raises(IndexError):
            b.add(2, 0, 1.0)

    def test_add_many(self):
        b = COOBuilder(4)
        b.add_many([1, 2, 3], [0, 1, 2], [1.0, 2.0, 3.0])
        assert len(b) == 3
        a = b.build()
        assert a.get(2, 1) == 2.0

    def test_add_many_length_mismatch(self):
        b = COOBuilder(4)
        with pytest.raises(ValueError):
            b.add_many([1], [0, 1], [1.0, 2.0])

    def test_build_graph(self):
        b = COOBuilder(3)
        b.add(0, 0, 5.0)  # diagonal ignored in the graph
        b.add(2, 0, 1.0)
        g = b.build_graph()
        assert g.num_edges == 1
        assert g.has_edge(0, 2)


class TestSymmetricCSC:
    def test_from_dense_roundtrip(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        m = SymmetricCSC.from_dense(a)
        assert np.allclose(m.to_dense(), a)

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricCSC.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_get_symmetric(self):
        m = SymmetricCSC.from_entries(2, [1], [0], [7.0])
        assert m.get(0, 1) == 7.0
        assert m.get(1, 0) == 7.0
        assert m.get(0, 0) == 0.0  # structurally present, numerically zero

    def test_diagonal(self):
        a = np.diag([1.0, 2.0, 3.0])
        m = SymmetricCSC.from_dense(a)
        assert np.allclose(m.diagonal(), [1, 2, 3])

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        d = rng.random((6, 6))
        a = (d + d.T) * (rng.random((6, 6)) < 0.4)
        a = np.tril(a) + np.tril(a, -1).T
        m = SymmetricCSC.from_dense(a)
        x = rng.random(6)
        assert np.allclose(m.matvec(x), a @ x)

    def test_permute_matches_dense(self):
        rng = np.random.default_rng(5)
        d = rng.random((5, 5))
        a = np.tril(d) + np.tril(d, -1).T
        m = SymmetricCSC.from_dense(a)
        perm = np.array([3, 1, 4, 0, 2])
        pm = m.permute(perm)
        assert np.allclose(pm.to_dense(), a[np.ix_(perm, perm)])

    @pytest.mark.parametrize(
        "perm",
        [[0, 0, 1, 2, 3, 4, 5, 6, 7], np.arange(9) + 0.5, np.arange(8), np.arange(1, 10)],
        ids=["repeated", "float", "short", "out_of_range"],
    )
    def test_permute_rejects_non_permutation(self, perm):
        """A repeated index used to read an uninitialised inverse and
        return a matrix with entries missing."""
        m = spd_from_graph(grid9(3, 3), 0)
        with pytest.raises(ValueError, match="perm is not a permutation"):
            m.permute(perm)

    def test_values_length_checked(self):
        p = LowerPattern.from_entries(2, [1], [0])
        with pytest.raises(ValueError):
            SymmetricCSC(p, np.zeros(2))

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matvec_property(self, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        a = np.tril(d) + np.tril(d, -1).T
        m = SymmetricCSC.from_dense(a)
        x = rng.random(n)
        assert np.allclose(m.matvec(x), a @ x)


class TestLowerCSC:
    def test_to_dense_and_get(self):
        p = LowerPattern.from_entries(3, [1, 2], [0, 1])
        vals = np.array([2.0, -1.0, 3.0, -0.5, 1.5])
        L = LowerCSC(p, vals)
        d = L.to_dense()
        assert d[1, 0] == L.get(1, 0)
        assert np.allclose(np.triu(d, 1), 0)

    def test_length_checked(self):
        p = LowerPattern.from_entries(2, [], [])
        with pytest.raises(ValueError):
            LowerCSC(p, np.zeros(5))

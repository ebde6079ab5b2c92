"""Sparse numerical Cholesky."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numeric import NotPositiveDefiniteError, sparse_cholesky
from repro.sparse import SymmetricCSC, grid5, random_symmetric_graph, spd_from_graph
from repro.symbolic import symbolic_cholesky


class TestSparseCholesky:
    def test_matches_dense_on_grid(self):
        a = spd_from_graph(grid5(4, 4), seed=3)
        L = sparse_cholesky(a)
        assert np.allclose(L.to_dense(), np.linalg.cholesky(a.to_dense()))

    def test_explicit_symbolic(self):
        a = spd_from_graph(grid5(3, 5), seed=4)
        sym = symbolic_cholesky(a.graph())
        L = sparse_cholesky(a, sym)
        assert L.pattern is sym.pattern
        assert np.allclose(L.to_dense() @ L.to_dense().T, a.to_dense())

    def test_diagonal_matrix(self):
        a = SymmetricCSC.from_entries(3, [0, 1, 2], [0, 1, 2], [4.0, 9.0, 16.0])
        L = sparse_cholesky(a)
        assert np.allclose(np.diag(L.to_dense()), [2, 3, 4])

    def test_rejects_indefinite(self):
        a = SymmetricCSC.from_entries(2, [0, 1, 1], [0, 0, 1], [1.0, 2.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            sparse_cholesky(a)

    def test_fill_entries_computed(self):
        """A 4-cycle ordered naturally fills (3,1); the numeric factor
        must populate it."""
        from repro.sparse.pattern import SymmetricGraph

        g = SymmetricGraph.from_edges(4, [0, 1, 2, 0], [1, 2, 3, 3])
        a = spd_from_graph(g, seed=5)
        L = sparse_cholesky(a)
        assert L.get(3, 1) != 0.0
        assert np.allclose(L.to_dense(), np.linalg.cholesky(a.to_dense()))

    @given(st.integers(2, 15), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, n, seed):
        g = random_symmetric_graph(n, 0.4, seed=seed)
        a = spd_from_graph(g, seed=seed)
        L = sparse_cholesky(a).to_dense()
        assert np.allclose(L @ L.T, a.to_dense(), atol=1e-10)

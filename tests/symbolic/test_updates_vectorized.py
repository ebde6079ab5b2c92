"""Vectorized enumerate_updates vs the per-column oracle.

The run enumeration promises that its expansion is *array-for-array*
the oracle's (``tests/symbolic/oracles.py``) — not just the same
multiset of updates but the same order (column-major, then
np.tril_indices order within a column) — so these tests assert exact
equality on every output array, across random generator matrices, the
paper's HB sample, and both lookup branches (dense table and global
searchsorted).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import band_graph, band_lower_pattern, grid5, grid9
from repro.sparse.pattern import LowerPattern
from repro.symbolic import enumerate_updates, symbolic_cholesky
from repro.symbolic import updates as updates_mod

from ..conftest import random_connected_graph
from .oracles import enumerate_updates_oracle


def assert_identical(pattern: LowerPattern) -> None:
    fast = enumerate_updates(pattern)
    ref = enumerate_updates_oracle(pattern)
    np.testing.assert_array_equal(fast.target, ref.target)
    np.testing.assert_array_equal(fast.source_i, ref.source_i)
    np.testing.assert_array_equal(fast.source_j, ref.source_j)
    np.testing.assert_array_equal(fast.source_col, ref.source_col)


class TestVectorizedMatchesReference:
    def test_dense(self):
        assert_identical(LowerPattern.dense(6))

    def test_diagonal(self):
        assert_identical(LowerPattern.from_entries(5, [], []))

    def test_grid5(self):
        assert_identical(symbolic_cholesky(grid5(5, 4)).pattern)

    def test_grid9(self):
        assert_identical(symbolic_cholesky(grid9(6, 6)).pattern)

    def test_band(self):
        assert_identical(band_lower_pattern(300, 9))

    def test_hb_sample(self, prepared_lap30):
        assert_identical(prepared_lap30.pattern)

    @given(st.integers(2, 16), st.integers(0, 24), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_generator_matrices(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert_identical(symbolic_cholesky(g).pattern)


class TestSearchsortedBranch:
    """Force the sparse lookup path that normally needs n > 4096."""

    @pytest.fixture(autouse=True)
    def _force_sparse_lookup(self, monkeypatch):
        monkeypatch.setattr(updates_mod, "_DENSE_LOOKUP_LIMIT", 0)

    def test_grid9(self):
        assert_identical(symbolic_cholesky(grid9(5, 7)).pattern)

    def test_band(self):
        assert_identical(band_lower_pattern(150, 6))

    @given(st.integers(2, 12), st.integers(0, 16), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert_identical(symbolic_cholesky(g).pattern)

    def test_non_closed_rejected_with_column(self):
        p = LowerPattern.from_entries(3, [1, 2], [0, 0])
        with pytest.raises(ValueError, match="column 0"):
            enumerate_updates(p)


class TestDenseBranchErrors:
    def test_non_closed_rejected_with_column(self):
        # Fill-closed except column 2: (3,2) and (4,2) present, (4,3) missing.
        p = LowerPattern.from_entries(5, [3, 4], [2, 2])
        with pytest.raises(ValueError, match="column 2"):
            enumerate_updates(p)


class TestBandGenerators:
    def test_band_pattern_is_factor_of_band_graph(self):
        f = symbolic_cholesky(band_graph(60, 5))  # natural order
        direct = band_lower_pattern(60, 5)
        np.testing.assert_array_equal(f.pattern.indptr, direct.indptr)
        np.testing.assert_array_equal(f.pattern.rowidx, direct.rowidx)

    def test_band_graph_degree(self):
        g = band_graph(20, 3)
        # Interior node 10 sees i +/- 1..3 on both sides.
        assert sorted(g.neighbors(10).tolist()) == [7, 8, 9, 11, 12, 13]

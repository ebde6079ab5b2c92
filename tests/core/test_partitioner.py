"""Unit-block partitioning (paper §3.2, Figure 3)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import block_mapping, chunk_bounds, find_clusters, partition_factor
from repro.core.blocks import BlockKind
from repro.core.partitioner import rectangle_grid, triangle_split_count
from repro.sparse.pattern import LowerPattern
from repro.symbolic import symbolic_cholesky

from ..conftest import random_connected_graph


class TestChunkBounds:
    def test_even_split(self):
        assert chunk_bounds(0, 5, 3) == [(0, 1), (2, 3), (4, 5)]

    def test_remainder_goes_first(self):
        assert chunk_bounds(0, 6, 3) == [(0, 2), (3, 4), (5, 6)]

    def test_single_chunk(self):
        assert chunk_bounds(3, 9, 1) == [(3, 9)]

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            chunk_bounds(0, 2, 4)

    @given(st.integers(0, 50), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_cover_property(self, lo, length, parts):
        hi = lo + length - 1
        if parts > length:
            parts = length
        chunks = chunk_bounds(lo, hi, parts)
        flattened = [x for a, b in chunks for x in range(a, b + 1)]
        assert flattened == list(range(lo, hi + 1))
        sizes = [b - a + 1 for a, b in chunks]
        assert max(sizes) - min(sizes) <= 1


class TestSplitCounts:
    def test_triangle_figure3(self):
        # A triangle with room for >= 6 units at this grain splits into
        # b = 3 chunks -> 6 unit blocks, exactly Figure 3.
        assert triangle_split_count(area=24, grain=4) == 3

    def test_triangle_respects_grain(self):
        assert triangle_split_count(area=10, grain=10) == 1
        assert triangle_split_count(area=30, grain=10) == 2

    def test_triangle_max_parts(self):
        assert triangle_split_count(area=1000, grain=1, max_parts=3) == 2

    def test_rectangle_grid_max_units(self):
        nr, nc = rectangle_grid(height=4, width=4, area=16, grain=4)
        assert nr * nc == 4

    def test_rectangle_grid_respects_dims(self):
        nr, nc = rectangle_grid(height=1, width=8, area=8, grain=2)
        assert nr == 1
        assert nc <= 4

    def test_rectangle_single(self):
        assert rectangle_grid(3, 3, 9, 100) == (1, 1)


class TestPartitionFactor:
    def _pattern(self, n=30, extra=40, seed=7):
        g = random_connected_graph(n, extra, seed)
        return symbolic_cholesky(g).pattern

    def test_exact_cover(self):
        p = self._pattern()
        part = partition_factor(p, grain=4, min_width=2)
        part.check_exact_cover()

    def test_units_within_cluster_extents(self):
        p = self._pattern()
        part = partition_factor(p, grain=4, min_width=2)
        cmap = part.clusters.cluster_of_column
        for u in part.units:
            assert cmap[u.col_lo] == u.cluster
            assert cmap[u.col_hi] == u.cluster

    def test_elements_inside_unit_extent(self):
        p = self._pattern()
        part = partition_factor(p, grain=6, min_width=2)
        cols = p.element_cols()
        for u in part.units:
            for e in u.elements.tolist():
                r, c = int(p.rowidx[e]), int(cols[e])
                assert u.row_lo <= r <= u.row_hi
                assert u.col_lo <= c <= u.col_hi
                if u.kind is BlockKind.TRIANGLE:
                    assert r >= c

    def test_column_units_own_whole_column(self):
        p = self._pattern()
        part = partition_factor(p, grain=4, min_width=2)
        for u in part.units:
            if u.kind is BlockKind.COLUMN:
                lo, hi = p.indptr[u.col_lo], p.indptr[u.col_lo + 1]
                assert np.array_equal(u.elements, np.arange(lo, hi))

    def test_figure3_unit_layout(self):
        """A dense 6-wide triangle at grain 3 splits 3x3 chunks: 3 unit
        triangles + 3 unit rectangles, in the paper's order."""
        p = LowerPattern.dense(6)
        part = partition_factor(p, grain=3, min_width=2)
        units = part.units
        kinds = [u.kind for u in units]
        assert kinds.count(BlockKind.TRIANGLE) == 3
        assert kinds.count(BlockKind.RECTANGLE) == 3
        # Order: diagonal triangles top to bottom first.
        tri = [u for u in units if u.kind is BlockKind.TRIANGLE]
        assert [u.col_lo for u in tri] == sorted(u.col_lo for u in tri)
        rect = [u for u in units if u.kind is BlockKind.RECTANGLE]
        # Row-major over the chunk grid: (1,0), (2,0), (2,1).
        assert [(r.row_lo, r.col_lo) for r in rect] == sorted(
            (r.row_lo, r.col_lo) for r in rect
        )

    @pytest.mark.parametrize("bad", [0, -3])
    def test_nonpositive_grain_refused(self, bad):
        """A grain below 1 used to partition as grain 1 and keep the
        label: records (and cache entries) named ``grain=0``."""
        p = self._pattern()
        with pytest.raises(ValueError, match=f"grain must be positive.*got {bad}"):
            partition_factor(p, grain=bad)
        with pytest.raises(ValueError, match=f"grain must be positive.*got {bad}"):
            partition_factor(p, grain=4, grain_rectangle=bad)
        with pytest.raises(ValueError, match=f"grain must be positive.*got {bad}"):
            partition_factor(p, grain=bad, grain_rectangle=4)

    @pytest.mark.parametrize("bad", [float("nan"), 2.5, True], ids=["nan", "2.5", "True"])
    def test_non_integer_grain_and_width_refused(self, bad, prepared_grid):
        """NaN passed ``grain < 1`` and partitioned like an unsplittable
        grain; a fraction or a bool was taken as it came."""
        p = self._pattern()
        message = f"must be positive.*got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match="grain " + message):
            partition_factor(p, grain=bad)
        with pytest.raises(ValueError, match="grain " + message):
            partition_factor(p, grain=4, grain_rectangle=bad)
        with pytest.raises(ValueError, match="min_width " + message):
            partition_factor(p, grain=4, min_width=bad)
        with pytest.raises(ValueError, match="grain " + message):
            block_mapping(prepared_grid, 2, grain=bad)
        with pytest.raises(ValueError, match="min_width " + message):
            block_mapping(prepared_grid, 2, min_width=bad)

    def test_larger_grain_fewer_units(self):
        p = self._pattern(40, 80, 3)
        small = partition_factor(p, grain=4, min_width=2)
        large = partition_factor(p, grain=25, min_width=2)
        assert large.num_units <= small.num_units

    def test_grain_one_max_split(self):
        p = LowerPattern.dense(4)
        part = partition_factor(p, grain=1, min_width=2)
        # Largest b with b(b+1)/2 <= area 10 is b = 4 -> 10 single-element
        # units (4 triangles + 6 rectangles).
        assert part.num_units == 10
        assert all(u.area == 1 for u in part.units)

    def test_separate_rectangle_grain(self):
        p = self._pattern(35, 60, 9)
        a = partition_factor(p, grain=4, min_width=2, grain_rectangle=4)
        b = partition_factor(p, grain=4, min_width=2, grain_rectangle=50)
        n_rect_a = sum(1 for u in a.units if u.parent_kind is BlockKind.RECTANGLE)
        n_rect_b = sum(1 for u in b.units if u.parent_kind is BlockKind.RECTANGLE)
        assert n_rect_b <= n_rect_a

    def test_units_of_cluster(self):
        p = self._pattern()
        part = partition_factor(p, grain=4, min_width=2)
        total = sum(len(part.units_of_cluster(c.index)) for c in part.clusters)
        assert total == part.num_units

    @given(st.integers(4, 28), st.integers(0, 40), st.integers(0, 2**31 - 1),
           st.integers(1, 30), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_exact_cover_property(self, n, extra, seed, grain, min_width):
        g = random_connected_graph(n, extra, seed)
        p = symbolic_cholesky(g).pattern
        part = partition_factor(p, grain=grain, min_width=min_width)
        part.check_exact_cover()

    @given(st.integers(4, 24), st.integers(0, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_grain_respected_property(self, n, extra, seed):
        """Every dense block with area >= grain is split into units whose
        *geometric area* is >= grain (paper: minimum elements per unit)."""
        grain = 6
        g = random_connected_graph(n, extra, seed)
        p = symbolic_cholesky(g).pattern
        part = partition_factor(p, grain=grain, min_width=2)
        for u in part.units:
            if u.kind is BlockKind.COLUMN:
                continue
            parent_area_splittable = True  # units only exist if split allowed
            if parent_area_splittable and u.area < grain:
                # Allowed only when the whole dense block was a single unit
                # (area below grain) or chunk rounding made one unit small;
                # rounding keeps units within one row/col of equal, so the
                # unit can be at most ~half the nominal size.
                assert u.area * 4 >= grain

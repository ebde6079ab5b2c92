"""The partitioner's unit emission and element claim against the
per-unit region scan of ``tests/core/oracles.py``.

:func:`repro.core.partitioner.partition_clusters` emits each kind of unit
for every cluster at once and claims all elements with two searches on
the element key; the oracle emits rows strip by strip and scans each
unit's column range.  Tables and ownership must be equal, for every
grain pair and under the adaptive mode's per-strip triangle caps.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import chunk_bounds, find_clusters, prepare
from repro.core.partitioner import partition_clusters, rectangle_grid, triangle_split_count

from ..conftest import generated_graphs
from .oracles import (
    chunk_bounds_loop,
    rectangle_grid_loop,
    region_scan_partition,
    triangle_split_count_loop,
)


@given(
    generated_graphs(),
    st.sampled_from([1, 2, 4, 25]),
    st.sampled_from([None, 1, 25]),
    st.sampled_from([1, 2, 4]),
    st.one_of(st.none(), st.integers(0, 2**16)),
)
@settings(deadline=None)
def test_claim_equals_the_region_scan(graph, grain, grain_rectangle, min_width, cap_seed):
    pattern = prepare(graph).pattern
    clusters = find_clusters(pattern, min_width=min_width)
    caps = None
    if cap_seed is not None:  # 0: no cap, as the adaptive fixed point writes it
        caps = np.random.default_rng(cap_seed).integers(0, 8, len(clusters))
    got = partition_clusters(pattern, clusters, grain, grain_rectangle, max_parts=caps)
    table, unit_of_element = region_scan_partition(
        pattern, clusters, grain, grain_rectangle, caps
    )
    np.testing.assert_array_equal(got.table, table)
    np.testing.assert_array_equal(got.unit_of_element, unit_of_element)


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 40), st.integers(1, 40)),
                max_size=6))
def test_chunk_bounds_equal_the_loop(ranges):
    ranges = [(lo, lo + length - 1, min(parts, length)) for lo, length, parts in ranges]
    want = [chunk for lo, hi, parts in ranges for chunk in chunk_bounds_loop(lo, hi, parts)]
    lo, hi, parts = (np.array(col, dtype=np.int64) for col in zip(*ranges)) if ranges else ([],) * 3
    assert list(map(tuple, chunk_bounds(lo, hi, parts).tolist())) == want


def test_split_counts_equal_the_loops():
    area = np.arange(1, 5000)
    for grain in (1, 2, 4, 25):
        for cap in (None, 1, 3, 7):
            want = [triangle_split_count_loop(int(a), grain, cap) for a in area]
            caps = None if cap is None else np.full(len(area), cap)
            assert triangle_split_count(area, grain, caps).tolist() == want
    # Past the loops' reach, against the exact root, on both sides of
    # every b(b+1)/2 the float root could round across.
    b = np.random.default_rng(0).integers(1, 2**23, 10_000)
    area = np.concatenate([b * (b + 1) // 2 + d for d in (-1, 0, 1)])
    want = [(math.isqrt(8 * int(a) + 1) - 1) // 2 for a in area]
    assert triangle_split_count(area, 1).tolist() == want
    height, width = (a.ravel() for a in np.meshgrid(np.arange(1, 40), np.arange(1, 40)))
    for grain in (1, 2, 4, 25):
        want = [rectangle_grid_loop(int(h), int(w), int(h * w), grain)
                for h, w in zip(height, width)]
        nr, nc = rectangle_grid(height, width, height * width, grain)
        assert list(zip(nr.tolist(), nc.tolist())) == want

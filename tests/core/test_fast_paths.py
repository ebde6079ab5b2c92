"""Vectorized cluster scan and scheduler vs their reference paths.

The fast :func:`find_clusters` (run-length reach scan) must produce
results identical to the original per-entry implementation on every
matrix, and nonzero ``zero_tolerance`` must dispatch to the reference
and agree with calling it directly; :func:`schedule_blocks` (flat lists
over the unit table) must allocate exactly as ``schedule_oracle``, the
per-set allocator over row views kept in ``tests/conftest.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clusters import find_clusters, find_clusters_reference
from repro.core.dependencies import analyze_dependencies
from repro.core.partitioner import partition_clusters
from repro.core.scheduler import SchedulerOptions, schedule_blocks
from repro.ordering import multiple_minimum_degree
from repro.sparse import band_lower_pattern, grid9
from repro.sparse import harwell_boeing as hb
from repro.symbolic import enumerate_updates, symbolic_cholesky

from ..conftest import random_connected_graph, schedule_oracle


def pattern_of(graph, ordered=True):
    perm = multiple_minimum_degree(graph) if ordered else None
    return symbolic_cholesky(graph, perm).pattern


def assert_clusters_identical(pattern, min_width=4, zero_tolerance=0.0):
    fast = find_clusters(pattern, min_width, zero_tolerance)
    ref = find_clusters_reference(pattern, min_width, zero_tolerance)
    assert len(fast.clusters) == len(ref.clusters)
    for a, b in zip(fast.clusters, ref.clusters):
        assert a == b


class TestClusterIdentity:
    @pytest.mark.parametrize("name", hb.names())
    def test_paper_matrices(self, name):
        assert_clusters_identical(pattern_of(hb.load(name)))

    @pytest.mark.parametrize("min_width", [1, 2, 3, 4, 6])
    def test_min_width_sweep(self, min_width):
        pattern = pattern_of(grid9(14, 14))
        assert_clusters_identical(pattern, min_width=min_width)

    def test_band_pattern(self):
        # Bands are the all-dense extreme: one run per column.
        assert_clusters_identical(band_lower_pattern(200, 11))

    def test_nonzero_tolerance_dispatches_to_reference(self):
        pattern = pattern_of(hb.load("DWT512"))
        fast = find_clusters(pattern, 4, 0.05)
        ref = find_clusters_reference(pattern, 4, 0.05)
        assert len(fast.clusters) == len(ref.clusters)
        for a, b in zip(fast.clusters, ref.clusters):
            assert a == b

    def test_rejects_bad_params(self):
        pattern = band_lower_pattern(10, 3)
        with pytest.raises(ValueError):
            find_clusters(pattern, min_width=0)
        with pytest.raises(ValueError):
            find_clusters(pattern, zero_tolerance=-0.1)

    @given(st.integers(1, 35), st.integers(0, 50), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        pattern = pattern_of(g)
        for min_width in (1, 3, 4):
            assert_clusters_identical(pattern, min_width=min_width)


def assert_schedule_identical(pattern, nprocs, policy, grain=4):
    clusters = find_clusters(pattern)
    partition = partition_clusters(pattern, clusters, grain_triangle=grain)
    deps = analyze_dependencies(partition, enumerate_updates(pattern))
    options = SchedulerOptions(dependent_column_policy=policy)
    fast = schedule_blocks(partition, deps, nprocs, options=options)
    ref = schedule_oracle(partition, deps, nprocs, policy=policy)
    np.testing.assert_array_equal(fast.proc_of_unit, ref)
    np.testing.assert_array_equal(fast.owner_of_element, ref[partition.unit_of_element])


class TestSchedulerIdentity:
    @pytest.mark.parametrize("policy", ["first", "least_loaded", "round_robin"])
    @pytest.mark.parametrize(
        "matrix, nprocs",
        # LAP30 has 552 triangle units at g=4: at small P most of them
        # meet a P_a that already holds every processor.
        [pytest.param("DWT512", p, id=str(p)) for p in (1, 4, 16)]
        + [pytest.param("LAP30", p, id=f"LAP30-{p}") for p in (1, 2, 4)],
    )
    def test_paper_matrix_policies(self, matrix, nprocs, policy):
        pattern = pattern_of(hb.load(matrix))
        assert_schedule_identical(pattern, nprocs, policy)

    def test_band_pattern(self):
        assert_schedule_identical(band_lower_pattern(150, 9), 8, "first")

    def test_more_procs_than_units(self):
        assert_schedule_identical(pattern_of(grid9(5, 5)), 64, "least_loaded")

    def test_rejects_nonpositive_nprocs(self):
        pattern = pattern_of(grid9(4, 4))
        clusters = find_clusters(pattern)
        partition = partition_clusters(pattern, clusters)
        deps = analyze_dependencies(partition, enumerate_updates(pattern))
        with pytest.raises(ValueError):
            schedule_blocks(partition, deps, 0)

    @given(
        st.integers(2, 30),
        st.integers(0, 40),
        st.integers(0, 2**31 - 1),
        st.integers(1, 9),
        st.sampled_from(["first", "least_loaded", "round_robin"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_graphs(self, n, extra, seed, nprocs, policy):
        g = random_connected_graph(n, extra, seed)
        assert_schedule_identical(pattern_of(g), nprocs, policy, grain=3)

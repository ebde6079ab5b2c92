"""Adaptive (interleaved) partitioning and scheduling (§3.2 parameter (a))."""

import numpy as np
import pytest

from repro.core import (
    SchedulerOptions,
    adaptive_block_mapping,
    adaptive_schedule,
    block_mapping,
)
from repro.core.blocks import BlockKind
from repro.symbolic import enumerate_updates, symbolic_cholesky

from ..conftest import random_connected_graph


def _setup(n=40, extra=70, seed=3):
    g = random_connected_graph(n, extra, seed)
    pattern = symbolic_cholesky(g).pattern
    return pattern, enumerate_updates(pattern)


class TestAdaptiveSchedule:
    def test_exact_cover(self):
        pattern, updates = _setup()
        partition, assignment = adaptive_schedule(pattern, updates, 4, grain=3,
                                                  min_width=2)
        partition.check_exact_cover()
        assert (assignment.owner_of_element >= 0).all()

    def test_work_conserved(self, prepared_grid):
        r = adaptive_block_mapping(prepared_grid, 6, grain=4)
        assert r.balance.total == prepared_grid.total_work

    def test_single_proc(self, prepared_grid):
        r = adaptive_block_mapping(prepared_grid, 1, grain=4)
        assert r.traffic.total == 0
        assert r.balance.imbalance == 0.0

    def test_scheme_name(self, prepared_grid):
        r = adaptive_block_mapping(prepared_grid, 4, grain=4)
        assert r.assignment.scheme == "block-adaptive"

    def test_no_more_units_than_static(self, prepared_grid):
        """Parameter (a) caps triangle splits, so the adaptive partition
        can only have fewer (or equal) units."""
        adaptive = adaptive_block_mapping(prepared_grid, 8, grain=4)
        static = block_mapping(prepared_grid, 8, grain=4)
        assert adaptive.partition.num_units <= static.partition.num_units

    def test_reduces_traffic_on_lap30(self, prepared_lap30):
        adaptive = adaptive_block_mapping(prepared_lap30, 16, grain=4)
        static = block_mapping(prepared_lap30, 16, grain=4)
        assert adaptive.traffic.total < static.traffic.total

    def test_rect_units_restricted_to_triangle_procs(self):
        pattern, updates = _setup(60, 140, 5)
        partition, assignment = adaptive_schedule(pattern, updates, 8, grain=3,
                                                  min_width=2)
        for cluster in partition.clusters:
            if cluster.is_column:
                continue
            cunits = partition.units_of_cluster(cluster.index)
            tri_procs = {
                int(assignment.proc_of_unit[u.uid])
                for u in cunits
                if u.parent_kind is BlockKind.TRIANGLE
            }
            for u in cunits:
                if u.parent_kind is BlockKind.RECTANGLE:
                    assert int(assignment.proc_of_unit[u.uid]) in tri_procs

    def test_policies(self, prepared_grid):
        for policy in ("first", "least_loaded", "round_robin"):
            r = adaptive_block_mapping(
                prepared_grid, 4, grain=4, options=SchedulerOptions(policy)
            )
            assert r.balance.total == prepared_grid.total_work

    def test_deterministic(self, prepared_grid):
        a = adaptive_block_mapping(prepared_grid, 8, grain=4)
        b = adaptive_block_mapping(prepared_grid, 8, grain=4)
        assert np.array_equal(
            a.assignment.proc_of_unit, b.assignment.proc_of_unit
        )

    def test_bad_nprocs(self, prepared_grid):
        with pytest.raises(ValueError):
            adaptive_block_mapping(prepared_grid, 0)

    @pytest.mark.parametrize("grain", [0, -3])
    def test_bad_grain(self, prepared_grid, grain):
        with pytest.raises(ValueError, match="grain must be at least 1"):
            adaptive_block_mapping(prepared_grid, 4, grain=grain)

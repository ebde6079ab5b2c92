"""Event-driven schedule simulation."""

import re

import numpy as np
import pytest

from repro.core import analyze_dependencies, block_mapping, wrap_mapping
from repro.machine import (
    MachineModel,
    edge_volumes,
    simulate_schedule,
    topological_order,
)


class TestTopologicalOrder:
    def test_chain(self):
        edges = np.array([[0, 1], [1, 2]])
        assert topological_order(3, edges).tolist() == [0, 1, 2]

    def test_tie_break_by_uid(self):
        edges = np.zeros((0, 2), dtype=np.int64)
        assert topological_order(4, edges).tolist() == [0, 1, 2, 3]

    def test_cycle_detected(self):
        edges = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="cycle"):
            topological_order(2, edges)

    def test_reverse_edge_ordering(self):
        edges = np.array([[3, 0]])
        order = topological_order(4, edges).tolist()
        assert order.index(3) < order.index(0)


class TestMachineModel:
    @pytest.mark.parametrize(
        "field, value", [("compute", -1.0), ("beta", float("nan")), ("alpha", float("inf"))]
    )
    def test_negative_and_non_finite_times_are_refused(self, field, value):
        """-1 compute gave makespan -4 on a 6x6 grid, NaN β dropped every
        message delay and ∞ α broke busy + wait + idle == makespan."""
        message = re.escape(f"MachineModel.{field} must be finite and >= 0, got {value!r}")
        with pytest.raises(ValueError, match=message):
            MachineModel(**{field: value})

    def test_zero_times_are_allowed(self):
        assert MachineModel(compute=0.0, alpha=0.0, beta=0.0).compute == 0.0


class TestEdgeVolumes:
    def test_positive_on_every_pair_edge(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        vols = edge_volumes(r.assignment, r.dependencies, prepared_grid.updates)
        assert all(v >= 1 for v in vols.values())
        edge_set = set(map(tuple, r.dependencies.edges.tolist()))
        assert set(vols) == edge_set

    def test_volume_bounded_by_source_size(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        vols = edge_volumes(r.assignment, r.dependencies, prepared_grid.updates)
        units = r.partition.units
        for (s, _t), v in vols.items():
            assert v <= units[s].nnz

    def test_requires_block_assignment(self, prepared_grid):
        r = wrap_mapping(prepared_grid, 4)
        deps = analyze_dependencies(
            block_mapping(prepared_grid, 4, grain=4).partition,
            prepared_grid.updates,
        )
        with pytest.raises(ValueError):
            edge_volumes(r.assignment, deps, prepared_grid.updates)


class TestSimulateSchedule:
    def test_single_proc_makespan_is_total_work(self, prepared_grid):
        r = block_mapping(prepared_grid, 1, grain=4)
        tl = simulate_schedule(
            r.assignment, r.dependencies, prepared_grid.updates,
            MachineModel(compute=1.0, alpha=0.0, beta=0.0),
        )
        assert tl.makespan == pytest.approx(prepared_grid.total_work)
        assert tl.idle_fraction == pytest.approx(0.0)

    def test_makespan_at_least_critical_work(self, prepared_grid):
        r = block_mapping(prepared_grid, 8, grain=4)
        tl = simulate_schedule(
            r.assignment, r.dependencies, prepared_grid.updates,
            MachineModel(alpha=0.0, beta=0.0),
        )
        # Perfect speedup bound.
        assert tl.makespan >= prepared_grid.total_work / 8

    def test_communication_slows_schedule(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        fast = simulate_schedule(
            r.assignment, r.dependencies, prepared_grid.updates,
            MachineModel(alpha=0.0, beta=0.0),
        )
        slow = simulate_schedule(
            r.assignment, r.dependencies, prepared_grid.updates,
            MachineModel(alpha=100.0, beta=5.0),
        )
        assert slow.makespan >= fast.makespan

    def test_start_after_predecessors(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        tl = simulate_schedule(
            r.assignment, r.dependencies, prepared_grid.updates,
            MachineModel(alpha=0.0, beta=0.0),
        )
        for u, preds in enumerate(r.dependencies.predecessors):
            for q in preds.tolist():
                assert tl.start[u] >= tl.finish[q] - 1e-9

    def test_requires_block_assignment(self, prepared_grid):
        r = wrap_mapping(prepared_grid, 4)
        blk = block_mapping(prepared_grid, 4, grain=4)
        with pytest.raises(ValueError):
            simulate_schedule(r.assignment, blk.dependencies, prepared_grid.updates)

    def test_paper_idle_claim(self, prepared_lap30):
        """'If the number of processors is small compared to schedulable
        units, the allocation provides enough parallelism to keep idle
        time to a minimum' — check with free communication."""
        r = block_mapping(prepared_lap30, 4, grain=4)
        assert r.partition.num_units > 40 * 4
        tl = simulate_schedule(
            r.assignment, r.dependencies, prepared_lap30.updates,
            MachineModel(alpha=0.0, beta=0.0),
        )
        assert tl.idle_fraction < 0.25

"""Scheduler variants: the extremes framing the §3.4 strategy."""

import numpy as np
import pytest

from repro.core import (
    block_mapping,
    schedule_affinity,
    schedule_lpt,
    unit_edge_volumes,
)
from repro.machine import (
    data_traffic,
    edge_volumes,
    load_balance,
    processor_work,
    unit_work,
)

from .validators import validate_assignment


@pytest.fixture(scope="module")
def mapped(prepared_grid):
    return block_mapping(prepared_grid, 8, grain=4)


class TestUnitEdgeVolumes:
    def test_matches_assignment_based_version(self, prepared_grid, mapped):
        a = unit_edge_volumes(
            mapped.partition, mapped.dependencies, prepared_grid.updates
        )
        b = edge_volumes(mapped.assignment, mapped.dependencies, prepared_grid.updates)
        assert a == b


class TestLPT:
    def test_valid_assignment(self, prepared_grid, mapped):
        uw = unit_work(mapped.partition, prepared_grid.updates)
        a = schedule_lpt(mapped.partition, 8, uw)
        validate_assignment(a)
        assert a.scheme == "block-lpt"

    def test_work_conserved(self, prepared_grid, mapped):
        uw = unit_work(mapped.partition, prepared_grid.updates)
        a = schedule_lpt(mapped.partition, 8, uw)
        w = processor_work(a, prepared_grid.updates)
        assert int(w.sum()) == prepared_grid.total_work

    def test_best_balance_of_all_schemes(self, prepared_lap30):
        """LPT must balance at least as well as the paper scheduler at
        the same granularity."""
        r = block_mapping(prepared_lap30, 16, grain=25)
        uw = unit_work(r.partition, prepared_lap30.updates)
        lpt = schedule_lpt(r.partition, 16, uw)
        lam_lpt = load_balance(processor_work(lpt, prepared_lap30.updates)).imbalance
        assert lam_lpt <= r.balance.imbalance + 1e-9

    def test_unit_work_length_checked(self, mapped):
        with pytest.raises(ValueError):
            schedule_lpt(mapped.partition, 4, np.ones(3))

    def test_nprocs_checked(self, prepared_grid, mapped):
        uw = unit_work(mapped.partition, prepared_grid.updates)
        with pytest.raises(ValueError):
            schedule_lpt(mapped.partition, 0, uw)


class TestAffinity:
    def test_valid_assignment(self, prepared_grid, mapped):
        a = schedule_affinity(
            mapped.partition, mapped.dependencies, 8, prepared_grid.updates
        )
        validate_assignment(a)
        assert a.scheme == "block-affinity"

    def test_lowest_traffic_of_all_schemes(self, prepared_lap30):
        """Pure data affinity must communicate no more than the paper
        scheduler at the same granularity."""
        r = block_mapping(prepared_lap30, 16, grain=25)
        aff = schedule_affinity(
            r.partition, r.dependencies, 16, prepared_lap30.updates
        )
        t_aff = data_traffic(aff, prepared_lap30.updates).total
        assert t_aff <= r.traffic.total

    def test_single_proc_degenerate(self, prepared_grid, mapped):
        a = schedule_affinity(
            mapped.partition, mapped.dependencies, 1, prepared_grid.updates
        )
        assert data_traffic(a, prepared_grid.updates).total == 0

    def test_paper_scheduler_sits_between(self, prepared_lap30):
        """The §3.4 strategy trades between the two extremes: traffic
        between affinity's and LPT's, λ between LPT's and affinity's."""
        r = block_mapping(prepared_lap30, 16, grain=25)
        uw = unit_work(r.partition, prepared_lap30.updates)
        lpt = schedule_lpt(r.partition, 16, uw)
        aff = schedule_affinity(
            r.partition, r.dependencies, 16, prepared_lap30.updates, uw
        )
        ups = prepared_lap30.updates
        t = {
            "lpt": data_traffic(lpt, ups).total,
            "paper": r.traffic.total,
            "aff": data_traffic(aff, ups).total,
        }
        lam = {
            "lpt": load_balance(processor_work(lpt, ups)).imbalance,
            "paper": r.balance.imbalance,
            "aff": load_balance(processor_work(aff, ups)).imbalance,
        }
        assert t["aff"] <= t["paper"] <= t["lpt"]
        assert lam["lpt"] <= lam["paper"] <= lam["aff"]

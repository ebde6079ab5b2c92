"""Block allocation strategy (paper §3.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SchedulerOptions,
    analyze_dependencies,
    partition_factor,
    schedule_blocks,
)
from repro.core.blocks import BlockKind
from repro.machine import unit_work
from repro.symbolic import enumerate_updates, symbolic_cholesky

from ..conftest import random_connected_graph


def _setup(n=40, extra=70, seed=13, grain=4, min_width=2):
    g = random_connected_graph(n, extra, seed)
    pattern = symbolic_cholesky(g).pattern
    partition = partition_factor(pattern, grain=grain, min_width=min_width)
    updates = enumerate_updates(pattern)
    deps = analyze_dependencies(partition, updates)
    return partition, updates, deps


class TestScheduleBlocks:
    def test_all_units_assigned(self):
        partition, updates, deps = _setup()
        a = schedule_blocks(partition, deps, 4)
        assert (a.proc_of_unit >= 0).all()
        assert (a.proc_of_unit < 4).all()

    def test_owner_matches_units(self):
        partition, updates, deps = _setup()
        a = schedule_blocks(partition, deps, 4)
        expected = a.proc_of_unit[partition.unit_of_element]
        assert np.array_equal(a.owner_of_element, expected)

    def test_single_processor(self):
        partition, updates, deps = _setup()
        a = schedule_blocks(partition, deps, 1)
        assert (a.proc_of_unit == 0).all()

    def test_independent_columns_wrap(self):
        """Independent column units get procs 0,1,2,... in column order."""
        partition, updates, deps = _setup()
        nprocs = 3
        a = schedule_blocks(partition, deps, nprocs)
        ind_cols = [
            u.uid
            for u in partition.units
            if u.kind is BlockKind.COLUMN and deps.independent_units[u.uid]
        ]
        expected = [i % nprocs for i in range(len(ind_cols))]
        assert [int(a.proc_of_unit[u]) for u in ind_cols] == expected

    def test_dependent_column_first_policy(self):
        partition, updates, deps = _setup()
        a = schedule_blocks(
            partition, deps, 4, options=SchedulerOptions("first")
        )
        for u in partition.units:
            if u.kind is not BlockKind.COLUMN or deps.independent_units[u.uid]:
                continue
            preds = deps.predecessors[u.uid]
            if len(preds):
                assert int(a.proc_of_unit[u.uid]) == int(a.proc_of_unit[preds[0]])

    def test_rect_units_restricted_to_triangle_procs(self):
        """P_t restriction: every below-rectangle unit's processor worked
        on the cluster's triangle."""
        partition, updates, deps = _setup(n=60, extra=140, seed=5)
        a = schedule_blocks(partition, deps, 8)
        for cluster in partition.clusters:
            if cluster.is_column:
                continue
            cunits = partition.units_of_cluster(cluster.index)
            tri_procs = {
                int(a.proc_of_unit[u.uid])
                for u in cunits
                if u.parent_kind is BlockKind.TRIANGLE
            }
            for u in cunits:
                if u.parent_kind is BlockKind.RECTANGLE:
                    assert int(a.proc_of_unit[u.uid]) in tri_procs

    def test_triangle_units_spread_when_possible(self):
        """With no predecessors and enough processors, the triangle units
        of the first cluster land on distinct processors (P_a logic)."""
        partition, updates, deps = _setup(n=50, extra=120, seed=21)
        first_multi = next(
            (c for c in partition.clusters if not c.is_column), None
        )
        if first_multi is None:
            pytest.skip("no multi-column cluster in this structure")
        tri_units = [
            u.uid
            for u in partition.units_of_cluster(first_multi.index)
            if u.parent_kind is BlockKind.TRIANGLE
        ]
        nprocs = max(16, len(tri_units))
        a = schedule_blocks(partition, deps, nprocs)
        procs = [int(a.proc_of_unit[u]) for u in tri_units]
        # Predecessor-free triangles walk the round-robin marker.
        if all(len(deps.predecessors[u]) == 0 for u in tri_units):
            assert len(set(procs)) == len(procs)

    def test_policies_all_valid(self):
        partition, updates, deps = _setup()
        for policy in ("first", "least_loaded", "round_robin"):
            a = schedule_blocks(
                partition, deps, 4, options=SchedulerOptions(policy)
            )
            assert (a.proc_of_unit >= 0).all()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SchedulerOptions("weird")

    def test_bad_nprocs_rejected(self):
        partition, updates, deps = _setup()
        with pytest.raises(ValueError):
            schedule_blocks(partition, deps, 0)

    def test_unit_work_length_checked(self):
        partition, updates, deps = _setup()
        with pytest.raises(ValueError):
            schedule_blocks(partition, deps, 2, unit_work=np.ones(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_broken_unit_work_refused(self, value):
        """A non-finite or negative weight would silently reorder P_t
        (step 4 sorts it by accumulated work): refused, naming the unit."""
        partition, updates, deps = _setup()
        uw = unit_work(partition, updates).astype(np.float64)
        uw[[3, 5]] = value
        with pytest.raises(ValueError, match="unit 3 "):
            schedule_blocks(partition, deps, 2, unit_work=uw)

    def test_zero_unit_work_accepted(self):
        partition, updates, deps = _setup()
        uw = np.zeros(partition.num_units)
        assert (schedule_blocks(partition, deps, 2, unit_work=uw).proc_of_unit >= 0).all()

    def test_deterministic(self):
        partition, updates, deps = _setup()
        uw = unit_work(partition, updates)
        a = schedule_blocks(partition, deps, 8, unit_work=uw)
        b = schedule_blocks(partition, deps, 8, unit_work=uw)
        assert np.array_equal(a.proc_of_unit, b.proc_of_unit)

    def test_least_loaded_never_worse_balance_on_columns(self):
        """least_loaded picks the lightest predecessor processor, which
        cannot increase the dependent-column imbalance versus always
        taking the first predecessor on a column-only partition."""
        from repro.machine import load_balance, processor_work

        partition, updates, deps = _setup(min_width=50)  # all columns
        uw = unit_work(partition, updates)
        lam = {}
        for policy in ("first", "least_loaded"):
            a = schedule_blocks(
                partition, deps, 4, unit_work=uw, options=SchedulerOptions(policy)
            )
            lam[policy] = load_balance(processor_work(a, updates)).imbalance
        assert lam["least_loaded"] <= lam["first"] + 0.60

    @given(st.integers(6, 40), st.integers(0, 60), st.integers(0, 2**31 - 1),
           st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 8, 16]))
    @settings(max_examples=15, deadline=None)
    def test_schedule_property(self, n, extra, seed, grain, nprocs):
        g = random_connected_graph(n, extra, seed)
        pattern = symbolic_cholesky(g).pattern
        partition = partition_factor(pattern, grain=grain, min_width=2)
        updates = enumerate_updates(pattern)
        deps = analyze_dependencies(partition, updates)
        a = schedule_blocks(partition, deps, nprocs)
        assert (a.proc_of_unit >= 0).all()
        assert (a.proc_of_unit < nprocs).all()
        assert (a.owner_of_element >= 0).all()

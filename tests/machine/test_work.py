"""Work accounting invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SchedulerOptions,
    analyze_dependencies,
    block_mapping,
    partition_factor,
    schedule_blocks,
    wrap_assignment,
)
from repro.machine import processor_work, total_work, unit_work
from repro.symbolic import enumerate_updates, symbolic_cholesky

from ..conftest import random_connected_graph
from ..symbolic.oracles import sequential_work


class TestProcessorWork:
    def test_sums_to_total_wrap(self, prepared_grid):
        ups = prepared_grid.updates
        for p in (1, 2, 5, 9):
            a = wrap_assignment(prepared_grid.pattern, p)
            w = processor_work(a, ups)
            assert int(w.sum()) == total_work(ups)

    def test_sums_to_total_block(self, prepared_grid):
        ups = prepared_grid.updates
        for grain in (1, 2, 10, 40, 100):
            r = block_mapping(prepared_grid, 6, grain=grain)
            assert r.balance.total == total_work(ups)
        for policy in ("first", "least_loaded", "round_robin"):
            r = block_mapping(prepared_grid, 6, grain=4,
                              options=SchedulerOptions(policy))
            assert r.balance.total == total_work(ups)
        for tol in (0.0, 0.3):
            r = block_mapping(prepared_grid, 6, grain=4, zero_tolerance=tol)
            assert r.balance.total == total_work(ups)

    def test_matches_sequential_work_formula(self, prepared_grid):
        assert total_work(prepared_grid.updates) == sequential_work(
            prepared_grid.graph, prepared_grid.perm
        )

    def test_single_proc_gets_everything(self, prepared_grid):
        a = wrap_assignment(prepared_grid.pattern, 1)
        w = processor_work(a, prepared_grid.updates)
        assert w.tolist() == [total_work(prepared_grid.updates)]


class TestUnitWork:
    def test_sums_to_total(self, prepared_grid):
        part = partition_factor(prepared_grid.pattern, grain=4, min_width=2)
        uw = unit_work(part, prepared_grid.updates)
        assert int(uw.sum()) == total_work(prepared_grid.updates)

    def test_column_unit_work(self):
        """A column unit's work is the work of its column's elements."""
        g = random_connected_graph(12, 8, seed=2)
        pattern = symbolic_cholesky(g).pattern
        part = partition_factor(pattern, grain=4, min_width=50)  # all columns
        ups = enumerate_updates(pattern)
        uw = unit_work(part, ups)
        ew = ups.element_work()
        for u in part.units:
            assert uw[u.uid] == int(ew[u.elements].sum())

    @given(st.integers(5, 30), st.integers(0, 40), st.integers(0, 2**31 - 1),
           st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_partition_invariance_property(self, n, extra, seed, grain):
        """Total work is independent of the partition (paper's model)."""
        g = random_connected_graph(n, extra, seed)
        pattern = symbolic_cholesky(g).pattern
        ups = enumerate_updates(pattern)
        part = partition_factor(pattern, grain=grain, min_width=2)
        deps = analyze_dependencies(part, ups)
        for p in (1, 3):
            a = schedule_blocks(part, deps, p)
            assert int(processor_work(a, ups).sum()) == total_work(ups)

"""Adaptive partitioning and scheduling (§3.2 parameter (a)).

``adaptive_schedule`` runs the static pipeline to a fixed point; it is
pinned against :func:`~tests.core.oracles.interleaved_adaptive_oracle`,
the interleaved pass it replaces: on generated graphs directly, and on
the 30 paper cells (5 matrices x P in {4, 16, 32} x g in {4, 25})
through ``golden_adaptive.json``, which the oracle wrote
(``PYTHONPATH=src python -m tests.core.test_adaptive`` rewrites it).
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SchedulerOptions,
    adaptive_block_mapping,
    adaptive_schedule,
    analyze_dependencies,
    block_mapping,
    prepare,
    schedule_blocks,
)
import repro.core.adaptive as adaptive_module
from repro.core.blocks import BlockKind
from repro.machine import unit_work
from repro.sparse import harwell_boeing as hb
from repro.symbolic import enumerate_updates, symbolic_cholesky

from ..conftest import generated_graphs, random_connected_graph
from .oracles import interleaved_adaptive_oracle

POLICIES = ("first", "least_loaded", "round_robin")
GOLDEN = Path(__file__).with_name("golden_adaptive.json")


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
        for policy in POLICIES:
            r = adaptive_block_mapping(
                prepared_grid, 4, grain=4, options=SchedulerOptions(policy)
            )
            _, want = interleaved_adaptive_oracle(
                prepared_grid.pattern, prepared_grid.updates, 4, grain=4, policy=policy
            )
            np.testing.assert_array_equal(r.assignment.proc_of_unit, want.proc_of_unit)
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
        with pytest.raises(ValueError, match=f"grain must be positive.*got {grain}"):
            adaptive_block_mapping(prepared_grid, 4, grain=grain)

    @pytest.mark.parametrize("nprocs", [2**40, True, 2.5], ids=["2**40", "True", "2.5"])
    def test_nprocs_refused_with_the_value_named(self, prepared_grid, nprocs):
        """2**40 used to ask for an 8 TiB work array, True and 2.5 to
        die in numpy with a TypeError; block and wrap refused all three."""
        with pytest.raises(
            ValueError, match=f"nprocs must be positive.*got {re.escape(repr(nprocs))}"
        ):
            adaptive_block_mapping(prepared_grid, nprocs)

    @pytest.mark.parametrize("knob", ["grain", "min_width"])
    @pytest.mark.parametrize("bad", [float("nan"), 2.5, True], ids=["nan", "2.5", "True"])
    def test_non_integer_grain_and_width_refused(self, prepared_grid, knob, bad):
        message = f"{knob} must be positive.*got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            adaptive_block_mapping(prepared_grid, 4, **{knob: bad})


class TestFixedPoint:
    @given(
        generated_graphs(),
        st.sampled_from(POLICIES),
        st.sampled_from((0.0, 0.3)),
        st.sampled_from((1, 2, 3, 5, 16)),
        st.integers(1, 30),
        st.integers(1, 6),
    )
    @settings(deadline=None)
    def test_equals_the_interleaved_oracle(
        self, graph, policy, zero_tolerance, nprocs, grain, min_width
    ):
        """Same partition table and allocation as the interleaved pass,
        and the allocation is ``schedule_blocks`` on its own partition."""
        pattern = symbolic_cholesky(graph).pattern
        updates = enumerate_updates(pattern)
        options = SchedulerOptions(policy)
        knobs = dict(grain=grain, min_width=min_width, zero_tolerance=zero_tolerance)
        partition, assignment = adaptive_schedule(
            pattern, updates, nprocs, options=options, **knobs
        )
        want_partition, want = interleaved_adaptive_oracle(
            pattern, updates, nprocs, policy=policy, **knobs
        )
        np.testing.assert_array_equal(partition.table, want_partition.table)
        np.testing.assert_array_equal(partition.unit_of_element, want_partition.unit_of_element)
        np.testing.assert_array_equal(assignment.proc_of_unit, want.proc_of_unit)
        again = schedule_blocks(
            partition, analyze_dependencies(partition, updates), nprocs,
            unit_work=unit_work(partition, updates), options=options,
        )
        np.testing.assert_array_equal(assignment.proc_of_unit, again.proc_of_unit)

    @pytest.mark.parametrize("grain", (4, 25))
    @pytest.mark.parametrize("name", ("LAP30", "CANN1072"))
    def test_at_most_two_rounds(self, name, grain, monkeypatch):
        """One round settles the caps, at most one more confirms them."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return schedule_blocks(*args, **kwargs)

        monkeypatch.setattr(adaptive_module, "schedule_blocks", counted)
        prepared = prepare(hb.load(name), name=name)
        adaptive_schedule(prepared.pattern, prepared.updates, 16, grain=grain)
        assert 1 <= len(calls) <= 2


def _sha(array) -> str:
    array = np.ascontiguousarray(np.asarray(array, dtype=np.int64))
    return hashlib.sha256(str(array.shape).encode() + array.tobytes()).hexdigest()


def fingerprints(name: str, schedule=adaptive_schedule) -> dict:
    """``{"<name> P=<p> g=<g>": hashes}`` of the paper cells of ``name``."""
    prepared = prepare(hb.load(name), name=name)
    out = {}
    for nprocs in (4, 16, 32):
        for grain in (4, 25):
            partition, assignment = schedule(
                prepared.pattern, prepared.updates, nprocs, grain=grain
            )
            out[f"{name} P={nprocs} g={grain}"] = {
                "n_units": partition.num_units,
                "units": _sha(partition.table),
                "proc_of_unit": _sha(assignment.proc_of_unit),
            }
    return out


@pytest.mark.parametrize("name", hb.names())
def test_paper_cells_equal_the_oracle_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert fingerprints(name) == {k: v for k, v in golden.items() if k.split()[0] == name}


if __name__ == "__main__":
    table = {}
    for matrix in hb.names():
        table.update(fingerprints(matrix, interleaved_adaptive_oracle))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

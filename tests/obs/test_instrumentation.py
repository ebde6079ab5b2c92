"""Instrumented call sites: pipeline spans/counters, simulator timeline
consistency, message counters, and the cached-stage regression pin."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import SchedulerOptions, block_mapping, prepare, wrap_mapping
from repro.machine.simulate import simulate_schedule
from repro.obs import trace
from repro.sparse import grid9


@pytest.fixture(autouse=True)
def _clean_state():
    trace.disable()
    yield
    trace.disable()


@pytest.fixture(scope="module")
def lap10():
    return prepare(grid9(10, 10), name="LAP10")


PIPELINE_SPANS = {
    "pipeline.prepare",
    "pipeline.order",
    "pipeline.symbolic",
    "pipeline.enumerate_updates",
    "pipeline.partition",
    "pipeline.dependencies",
    "pipeline.schedule",
    "pipeline.metrics",
    "pipeline.block_mapping",
}


class TestPipelineInstrumentation:
    def test_block_mapping_emits_all_stage_spans(self):
        with trace.enabled() as rec:
            prep = prepare(grid9(8, 8), name="LAP8")
            block_mapping(prep, 4, grain=9)
        assert PIPELINE_SPANS <= {s.name for s in rec.spans}

    def test_partition_scheduler_dependency_counters(self):
        with trace.enabled() as rec:
            prep = prepare(grid9(8, 8), name="LAP8")
            r = block_mapping(prep, 4, grain=9)
        c = rec.counters
        assert c["partition.units"] == r.partition.num_units
        assert c["partition.clusters"] == len(r.partition.clusters)
        assert c["deps.edges"] == r.dependencies.num_edges()
        for cat, count in r.dependencies.category_counts.items():
            assert c[f"deps.category.{cat:02d}"] == count
        assert c["scheduler.units_assigned"] == r.partition.num_units
        # Every triangle-parented unit (diagonal unit triangles plus the
        # triangle's own unit rectangles) either hit P_a or fell back to
        # the round-robin marker.
        from repro.core.blocks import BlockKind

        tri_total = (
            c.get("scheduler.triangle.pa_hit", 0)
            + c.get("scheduler.triangle.round_robin_fallback", 0)
        )
        assert tri_total == sum(
            1 for u in r.partition.units if u.parent_kind is BlockKind.TRIANGLE
        )

    def test_proc_work_gauge_matches_assignment(self):
        with trace.enabled() as rec:
            prep = prepare(grid9(8, 8), name="LAP8")
            r = block_mapping(prep, 4, grain=9)
        gauge = np.asarray(rec.gauges["scheduler.proc_work"])
        assert len(gauge) == r.nprocs
        assert gauge.sum() > 0

    def test_wrap_mapping_traced(self, lap10):
        with trace.enabled() as rec:
            wrap_mapping(lap10, 4)
        assert "pipeline.wrap_mapping" in {s.name for s in rec.spans}

    def test_pipeline_untraced_by_default(self):
        rec = trace.Recorder()
        trace.set_recorder(rec)
        prep = prepare(grid9(8, 8), name="LAP8")
        block_mapping(prep, 4, grain=9)
        assert rec.is_empty()


class TestBlockCounterContract:
    """``partition.*`` / ``scheduler.*`` are reported once per call; their
    totals are those of the per-unit increments they replaced (taken at
    the last object-per-unit commit), and an untraced call reports
    nothing at all."""

    GOLDEN = json.loads(
        (Path(__file__).parent / "golden_block_counters.json").read_text()
    )

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_totals_unchanged(self, case):
        from repro.sparse import load

        name, policy = case.split("/")
        prep = prepare(load(name), name=name)
        prep.updates
        with trace.enabled() as rec:
            block_mapping(
                prep, 16, grain=4, options=SchedulerOptions(dependent_column_policy=policy)
            )
        mine = {
            k: v for k, v in rec.counters.items() if k.startswith(("scheduler.", "partition."))
        }
        assert mine == self.GOLDEN[case]

    def test_untraced_scheduler_makes_no_counter_calls(self, lap10, monkeypatch):
        from repro.core import scheduler

        r = block_mapping(lap10, 8, grain=4)
        calls = []
        monkeypatch.setattr(scheduler.obs, "counter", lambda *a, **k: calls.append(a))
        scheduler.schedule_blocks(r.partition, r.dependencies, 8)
        assert r.partition.num_units > 100 and calls == []


class TestCachedStagesComputedOnce:
    def test_grain_sweep_reuses_prepared_stages(self):
        """Regression pin: PreparedMatrix caches ordering, symbolic
        factorization and update enumeration across a grain sweep —
        each runs exactly once while partition/schedule run per grain."""
        grains = (4, 9, 16, 25)
        with trace.enabled() as rec:
            prep = prepare(grid9(10, 10), name="LAP10")
            for g in grains:
                block_mapping(prep, 8, grain=g)
        c = rec.counters
        assert c["pipeline.stage.order"] == 1
        assert c["pipeline.stage.symbolic"] == 1
        assert c["pipeline.stage.enumerate_updates"] == 1
        assert c["pipeline.stage.partition"] == len(grains)
        assert c["pipeline.stage.dependencies"] == len(grains)
        assert c["pipeline.stage.schedule"] == len(grains)
        assert c["pipeline.stage.metrics"] == len(grains)


class TestSimulatorTimeline:
    def test_events_consistent_with_idle_fraction(self, lap10):
        r = block_mapping(lap10, 8, grain=9)
        with trace.enabled() as rec:
            tl = simulate_schedule(r.assignment, r.dependencies, r.prepared.updates)
        events = rec.timeline
        assert len(events) == r.partition.num_units
        # Per-lane busy time re-derived from the events must equal the
        # simulator's own proc_busy, and hence its idle_fraction.
        busy = np.zeros(r.nprocs)
        for e in events:
            busy[e.lane] += e.dur
        np.testing.assert_allclose(busy, tl.proc_busy)
        makespan = max(e.ts + e.dur for e in events)
        assert makespan == tl.makespan
        idle = 1.0 - busy.sum() / (r.nprocs * makespan)
        assert idle == pytest.approx(tl.idle_fraction)
        assert rec.gauges["sim.idle_fraction"] == pytest.approx(tl.idle_fraction)
        assert rec.gauges["sim.makespan"] == tl.makespan

    def test_events_match_start_finish_and_lanes(self, lap10):
        r = block_mapping(lap10, 8, grain=9)
        with trace.enabled() as rec:
            tl = simulate_schedule(r.assignment, r.dependencies, r.prepared.updates)
        for e in rec.timeline:
            uid = e.args["uid"]
            assert e.ts == tl.start[uid]
            assert e.ts + e.dur == pytest.approx(tl.finish[uid])
            assert e.lane == int(r.assignment.proc_of_unit[uid])


class TestCommCounters:
    def test_messages_counted_when_enabled(self):
        from repro.mpsim.engine import gather_on_ranks, run_tasks

        def pair(end):
            end.send(("x", end.rank), 1 - end.rank, 3)
            got = []
            yield from run_tasks([], 0, 1, None, lambda *p: got.append(p) or [])
            assert got == [("x", 1 - end.rank)]
            return {end.rank: 1.0}, end.stats

        with trace.enabled() as rec:
            _, stats = gather_on_ranks(pair, 2, 2, "pair")
        # One message each way, then rank 1's result to rank 0.
        assert rec.counters["mpsim.messages_sent"] == 3
        assert rec.counters["mpsim.messages_received"] == 3
        assert rec.counters["mpsim.bytes_sent"] == sum(s.bytes_sent for s in stats)
        assert rec.counters["mpsim.bytes_sent"] == int(rec.sim_runs[0].messages.nbytes.sum())

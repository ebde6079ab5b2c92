"""obs.shard: worker-shard snapshot/pack/merge and cross-process traces."""

import importlib
import json
import os

import pytest

from repro import obs
from repro.obs import shard as shard_mod
from repro.obs.export import to_chrome_trace
from repro.obs.shard import (
    SHARD_FORMAT_VERSION,
    RecorderShard,
    merge_into,
    pack,
    snapshot,
    unpack,
)
from repro.obs.trace import Recorder
from repro.perf import sweep

sweep_mod = importlib.import_module("repro.perf.sweep")


def _filled_recorder() -> Recorder:
    rec = Recorder()
    with obs.enabled(rec):
        with obs.span("pipeline.order", matrix="LAP30"):
            with obs.span("pipeline.symbolic"):
                pass
        obs.counter("partition.units", 7)
        obs.gauge("scheduler.proc_work", [1.0, 2.0])
        obs.timeline_event("unit 0", ts=0.0, dur=4.0, lane=0)
    return rec


class TestSnapshot:
    def test_captures_everything(self):
        rec = _filled_recorder()
        sh = snapshot(rec)
        assert sh.pid == os.getpid()
        assert sh.epoch_unix == rec.epoch_unix
        assert sh.spans == rec.spans
        assert sh.counters == rec.counters
        assert sh.gauges == rec.gauges
        assert sh.timeline == rec.timeline
        assert sh.format_version == SHARD_FORMAT_VERSION
        assert not sh.is_empty()

    def test_empty(self):
        assert snapshot(Recorder()).is_empty()


class TestPackUnpack:
    def test_inline_roundtrip(self):
        sh = snapshot(_filled_recorder())
        kind, blob = pack(sh)
        assert kind == "inline" and isinstance(blob, bytes)
        assert unpack((kind, blob)) == sh

    def test_spills_to_file_above_threshold(self, tmp_path):
        sh = snapshot(_filled_recorder())
        kind, path = pack(sh, spill_dir=tmp_path, threshold=0)
        assert kind == "file"
        assert os.path.dirname(path) == str(tmp_path)
        assert unpack((kind, path)) == sh
        assert not os.path.exists(path)  # consumed on read

    def test_never_spills_without_a_dir(self):
        kind, _ = pack(snapshot(_filled_recorder()), spill_dir=None, threshold=0)
        assert kind == "inline"

    def test_small_shard_stays_inline_even_with_dir(self, tmp_path):
        kind, _ = pack(snapshot(Recorder()), spill_dir=tmp_path)
        assert kind == "inline"
        assert not list(tmp_path.iterdir())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown shard payload kind"):
            unpack(("smoke-signal", b""))

    def test_non_shard_payload_rejected(self):
        import pickle

        with pytest.raises(ValueError, match="not a RecorderShard"):
            unpack(("inline", pickle.dumps({"not": "a shard"})))

    def test_format_version_mismatch_rejected(self):
        import pickle

        sh = snapshot(Recorder())
        sh.format_version = SHARD_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="shard format"):
            unpack(("inline", pickle.dumps(sh)))


class TestMerge:
    def test_rebases_spans_onto_parent_epoch_and_tags_pid(self):
        parent = Recorder()
        child = Recorder()
        child.epoch_unix = parent.epoch_unix + 5.0  # child started 5s later
        child.add_span("pipeline.order", 1.0, 2.0, thread=42, args={"k": 1})
        sh = snapshot(child)
        merge_into(parent, sh)
        (s,) = parent.spans
        assert s.name == "pipeline.order"
        assert s.start == pytest.approx(6.0) and s.end == pytest.approx(7.0)
        assert s.pid == sh.pid and s.thread == 42 and s.args == {"k": 1}

    def test_counters_accumulate_and_gauges_overwrite(self):
        parent = Recorder()
        parent.add_counter("perf.cache.hit", 2)
        parent.set_gauge("g", "old")
        child = Recorder()
        child.add_counter("perf.cache.hit", 3)
        child.set_gauge("g", "new")
        merge_into(parent, snapshot(child))
        assert parent.counters["perf.cache.hit"] == 5
        assert parent.gauges["g"] == "new"

    def test_timeline_events_keep_their_simulated_clock(self):
        parent = Recorder()
        child = Recorder()
        child.epoch_unix = parent.epoch_unix + 100.0
        child.add_timeline_event("unit 0", 3.0, 2.0, 1, "perf.sweep", uid=0)
        merge_into(parent, snapshot(child))
        (e,) = parent.timeline
        assert (e.ts, e.dur, e.lane, e.track) == (3.0, 2.0, 1, "perf.sweep")

    def test_histograms_merge_by_bucket_addition(self):
        parent = Recorder()
        child = Recorder()
        with obs.enabled(parent):
            obs.observe("perf.sweep.unit_ms", 1.0)
        with obs.enabled(child):
            obs.observe("perf.sweep.unit_ms", 100.0)
            obs.observe("perf.sweep.queue_wait_ms", 5.0)
        merge_into(parent, snapshot(child))
        merged = parent.histograms["perf.sweep.unit_ms"]
        assert merged.count == 2
        assert merged.min == 1.0 and merged.max == 100.0
        assert parent.histograms["perf.sweep.queue_wait_ms"].count == 1

    def test_memory_samples_rebase_like_spans(self):
        parent = Recorder()
        child = Recorder()
        child.epoch_unix = parent.epoch_unix + 5.0
        child.memory_samples.append((1.0, 64 * 1024 * 1024))
        merge_into(parent, snapshot(child))
        ((t, rss),) = parent.memory_samples
        assert t == pytest.approx(6.0)
        assert rss == 64 * 1024 * 1024


class TestWorkerDiedMidSpan:
    """A worker that dies with spans still open must still merge
    cleanly: the drained spans arrive error-tagged and the combined
    timeline stays monotonic (every span start <= end, rebased into the
    parent's window)."""

    def _dying_worker_shard(self, parent: Recorder) -> RecorderShard:
        child = Recorder()
        child.epoch_unix = parent.epoch_unix + 2.0
        with obs.enabled(child):
            child.span("perf.sweep.task", label="DWT512/block/P4").__enter__()
            child.span("pipeline.schedule").__enter__()
            # The crash: nothing exits; the pool's cleanup drains.
            child.drain_open_spans(error="WorkerDied")
        return snapshot(child)

    def test_drained_spans_arrive_error_tagged(self):
        parent = Recorder()
        sh = self._dying_worker_shard(parent)
        merge_into(parent, sh)
        assert len(parent.spans) == 2
        for s in parent.spans:
            assert s.error == "WorkerDied"
            assert s.pid == sh.pid
        (task,) = parent.spans_named("perf.sweep.task")
        assert task.args["label"] == "DWT512/block/P4"

    def test_merged_timeline_is_monotonic(self):
        parent = Recorder()
        with obs.enabled(parent):
            with obs.span("parent.work"):
                pass
        merge_into(parent, self._dying_worker_shard(parent))
        horizon = max(s.end for s in parent.spans)
        for s in parent.spans:
            assert s.end >= s.start  # drained spans close at drain time
            assert -1.0 <= s.start <= horizon + 3.0

    def test_dead_worker_shard_exports_cleanly(self):
        parent = Recorder()
        merge_into(parent, self._dying_worker_shard(parent))
        doc = to_chrome_trace(parent)
        assert json.dumps(doc)
        errored = [e for e in doc["traceEvents"]
                   if e["ph"] == "X" and e["args"].get("error")]
        assert len(errored) == 2


class TestDrainOpenSpans:
    def test_records_open_spans_and_neutralizes_late_exit(self):
        rec = Recorder()
        outer = rec.span("outer", k=1).__enter__()
        inner = rec.span("inner").__enter__()
        assert rec.active_depth == 2
        assert rec.drain_open_spans(error="Boom") == 2
        assert rec.active_depth == 0
        assert {s.name for s in rec.spans} == {"outer", "inner"}
        assert all(s.error == "Boom" for s in rec.spans)
        # A late __exit__ (e.g. the with-block unwinding after the drain)
        # must not double-record or underflow the stack.
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        assert len(rec.spans) == 2
        assert rec.active_depth == 0

    def test_noop_when_nothing_open(self):
        rec = Recorder()
        assert rec.drain_open_spans() == 0
        assert rec.spans == []


GRID = dict(schemes=("block", "block-adaptive", "wrap"),
            procs=(2, 4), grains=(4,), min_widths=(4,))

#: Matrix-preparation spans are *placement*-dependent, not work-dependent:
#: the serial sweep memoizes one prepared matrix in-process while every
#: pool worker re-loads it from the disk cache, so their count varies
#: with scheduling.  The parity invariant covers the measured stages.
_PREP_SPANS = {
    "pipeline.prepare", "pipeline.order",
    "pipeline.symbolic", "pipeline.enumerate_updates",
}


def _is_work_span(s) -> bool:
    if s.name == "perf.sweep.group":
        return True
    return s.name.startswith("pipeline.") and s.name not in _PREP_SPANS


def _work_span_keys(rec: Recorder) -> list[tuple]:
    # Memory watermarks (mem_peak_mb, ...) are measurement artifacts
    # like timestamps: present only where a monitor was attached and
    # never identical across placements, so parity excludes them.
    return sorted(
        (
            s.name,
            json.dumps(
                {k: v for k, v in s.args.items() if not k.startswith("mem_")},
                sort_keys=True, default=str,
            ),
        )
        for s in rec.spans
        if _is_work_span(s)
    )


class TestSweepTraceMerge:
    """Acceptance: a jobs=4 sweep trace carries every worker's spans on
    its own lane, and the merged per-task span set equals the jobs=1
    run's (same names/args; only timestamps differ)."""

    @pytest.fixture(scope="class")
    def warm_cache(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("sweep-cache")
        sweep(["DWT512"], jobs=1, cache_dir=cache, **GRID)  # cold fill
        return cache

    @pytest.fixture(scope="class")
    def serial_rec(self, warm_cache):
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=1, cache_dir=warm_cache, **GRID)
        return rec

    @pytest.fixture(scope="class")
    def parallel_rec(self, warm_cache):
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=4, cache_dir=warm_cache, **GRID)
        return rec

    def test_merged_span_set_matches_serial(self, serial_rec, parallel_rec):
        assert _work_span_keys(parallel_rec) == _work_span_keys(serial_rec)

    def test_worker_spans_arrive_with_pids(self, parallel_rec):
        worker_pids = {s.pid for s in parallel_rec.spans if s.pid is not None}
        assert worker_pids  # at least one worker shipped its shard home
        assert os.getpid() not in worker_pids
        # Every span of measured work ran in a worker, none in the parent.
        for s in parallel_rec.spans:
            if _is_work_span(s):
                assert s.pid is not None

    def test_every_working_pid_gets_a_utilization_span(self, parallel_rec):
        worker_pids = {
            s.pid
            for s in parallel_rec.spans
            if s.pid is not None and _is_work_span(s)
        }
        util_pids = {
            s.pid for s in parallel_rec.spans if s.name == "pool.utilization"
        }
        assert util_pids == worker_pids
        for s in parallel_rec.spans:
            if s.name == "pool.utilization":
                assert 0.0 <= s.args["utilization"] <= 1.0

    def test_queue_wait_spans_cover_every_unit(self, parallel_rec):
        waits = parallel_rec.spans_named("pool.queue_wait")
        groups = {s.args["unit"] for s in waits}
        expected = {
            s.args["label"] for s in parallel_rec.spans_named("perf.sweep.group")
        }
        assert groups == expected
        for s in waits:
            assert s.pid is not None and s.end >= s.start

    def test_chrome_export_puts_workers_on_distinct_lanes(self, parallel_rec):
        doc = to_chrome_trace(parallel_rec)
        worker_pids = {s.pid for s in parallel_rec.spans if s.pid is not None}
        process_names = {
            e["args"]["name"]: e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        lanes = {
            pid for name, pid in process_names.items()
            if name.startswith("sweep worker")
        }
        assert len(lanes) == len(worker_pids)
        assert json.dumps(doc)  # the whole merged trace serializes

    def test_timestamps_rebased_into_parent_range(self, parallel_rec):
        # Worker spans must land inside the parent's recording window —
        # a missed rebase would put them ~epoch-distance away.
        horizon = max(s.end for s in parallel_rec.spans)
        for s in parallel_rec.spans:
            if s.pid is not None:
                assert -1.0 <= s.start <= horizon + 1.0


class TestWorkerFailureTrace:
    def test_failed_then_retried_task_leaves_no_dangling_span(self, monkeypatch):
        parent_pid = os.getpid()
        real = sweep_mod._measure_group

        def worker_only_boom(group, cache_dir, memo):
            if os.getpid() != parent_pid:  # forked workers inherit this
                raise ValueError("worker-only crash")
            return real(group, cache_dir, memo)

        monkeypatch.setattr(sweep_mod, "_measure_group", worker_only_boom)
        with obs.enabled(obs.Recorder()) as rec:
            records = sweep(["DWT512"], jobs=2, **GRID)
        assert records == sweep(["DWT512"], jobs=1, **GRID)
        assert rec.active_depth == 0  # no span left open by the failures
        assert rec.counters.get("perf.sweep.retries", 0) >= 1
        # The failed group spans came home in the shard, marked errored.
        errored = [s for s in rec.spans if s.error == "ValueError"]
        assert errored
        assert all(s.pid is not None for s in errored)

    def test_worker_error_carries_label_traceback_and_stats(self, monkeypatch):
        from repro.perf import build_grid, group_grid

        def boom(group, cache_dir, memo):
            raise ValueError("stage exploded")

        monkeypatch.setattr(sweep_mod, "_measure_group", boom)
        # Exercise the worker entry point directly — the same code path
        # the pool runs — so the SweepWorkerError is observable before
        # the parent's retry machinery converts a terminal failure.
        (group, *_rest) = group_grid(build_grid(["DWT512"], **GRID))
        with pytest.raises(sweep_mod.SweepWorkerError) as excinfo:
            sweep_mod._run_group((0, group, None, False, None))
        err = excinfo.value
        assert group.label() in str(err)
        assert "stage exploded" in err.worker_traceback
        assert isinstance(err.stats, dict) and err.stats["pid"] == os.getpid()

    def test_terminal_failure_names_the_unit(self, monkeypatch):
        def boom(group, cache_dir, memo):
            raise ValueError("stage exploded")

        monkeypatch.setattr(sweep_mod, "_measure_group", boom)
        with pytest.raises(RuntimeError, match="failed after retry"):
            sweep(["DWT512"], jobs=2, **GRID)

    def test_worker_error_survives_a_pickle_roundtrip(self):
        import pickle

        err = sweep_mod.SweepWorkerError("L", "tb", {"pid": 1})
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.label, clone.worker_traceback, clone.stats) == ("L", "tb", {"pid": 1})
        assert "tb" in str(clone)

"""Recorder.merge, Recorder pickling and cross-process sweep traces."""

import importlib
import json
import os
import pickle
import threading

import pytest

from repro import obs
from repro.obs.export import to_chrome_trace
from repro.obs.memory import MemoryMonitor
from repro.obs.trace import Recorder
from repro.perf import sweep

sweep_mod = importlib.import_module("repro.perf.sweep")


class TestMerge:
    def test_rebases_spans_onto_parent_epoch_and_tags_pid(self):
        parent = Recorder()
        child = Recorder()
        child.epoch_unix = parent.epoch_unix + 5.0  # child started 5s later
        child.add_span("pipeline.order", 1.0, 2.0, thread=42, args={"k": 1})
        parent.merge(child, pid=4242)
        (s,) = parent.spans
        assert s.name == "pipeline.order"
        assert s.start == pytest.approx(6.0) and s.end == pytest.approx(7.0)
        assert s.pid == 4242 and s.thread == 42 and s.args == {"k": 1}

    def test_errored_spans_keep_their_error(self):
        parent = Recorder()
        child = Recorder()
        with obs.enabled(child), pytest.raises(ValueError):
            with obs.span("perf.sweep.group", label="DWT512 block"):
                raise ValueError("boom")
        parent.merge(child, pid=7)
        (s,) = parent.spans
        assert (s.error, s.pid, s.args["label"]) == ("ValueError", 7, "DWT512 block")

    def test_counters_accumulate_and_gauges_overwrite(self):
        parent = Recorder()
        parent.add_counter("perf.cache.hit", 2)
        parent.set_gauge("g", "old")
        child = Recorder()
        child.add_counter("perf.cache.hit", 3)
        child.set_gauge("g", "new")
        parent.merge(child, pid=1)
        assert parent.counters["perf.cache.hit"] == 5
        assert parent.gauges["g"] == "new"

    def test_memory_samples_rebase_like_spans(self):
        parent = Recorder()
        child = Recorder()
        child.epoch_unix = parent.epoch_unix + 5.0
        child.memory_samples.append((1.0, 64 * 1024 * 1024))
        parent.merge(child, pid=1)
        ((t, rss),) = parent.memory_samples
        assert t == pytest.approx(6.0)
        assert rss == 64 * 1024 * 1024


class TestPickle:
    def test_roundtrip_drops_process_state_and_keeps_the_record(self):
        rec = Recorder()
        monitor = MemoryMonitor(rec, interval=60.0)
        rec.memory = monitor  # attached, as inside a worker's group
        with obs.enabled(rec):
            with obs.span("perf.sweep.group", label="L"):
                obs.counter("perf.sweep.reuse.hit", 2)
                obs.gauge("mem.rss_peak_mb", 12.5)
            outer = rec.span("still.open").__enter__()
        rec.memory_samples.append((0.5, 1024))
        assert rec.active_depth == 1
        clone = pickle.loads(pickle.dumps(rec))
        assert clone.epoch_unix == rec.epoch_unix
        assert clone.spans == rec.spans
        assert clone.counters == rec.counters
        assert clone.gauges == rec.gauges
        assert clone.memory_samples == rec.memory_samples
        # Open-span stacks, the monitor and the lock stay behind.
        assert clone.memory is None
        assert clone.active_depth == 0
        assert isinstance(clone._lock, type(threading.Lock()))
        with obs.enabled(clone):  # and the clone still records
            with obs.span("after"):
                pass
        assert clone.spans[-1].name == "after"
        outer.__exit__(None, None, None)


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
        assert worker_pids  # at least one worker shipped its recorder home
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
        # The failed group spans came home in the worker's recorder, errored.
        errored = [s for s in rec.spans if s.error == "ValueError"]
        assert errored
        assert all(s.pid is not None for s in errored)

    def test_terminal_failure_names_the_unit(self, monkeypatch):
        def boom(group, cache_dir, memo):
            raise ValueError("stage exploded")

        monkeypatch.setattr(sweep_mod, "_measure_group", boom)
        with pytest.raises(RuntimeError, match="failed after retry"):
            sweep(["DWT512"], jobs=2, **GRID)

"""Exporters: Chrome-trace JSON, ASCII summary."""

import json

import numpy as np
import pytest

from repro.obs import (
    MessageTable,
    Recorder,
    SimRun,
    chrome_trace_json,
    ledger_run,
    record_sim_run,
    summary_table,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs import trace
from repro.obs.simtime import REASON_NONE, REASON_PROC


def unit_run(start, finish, proc, kind, stage=None, work=None, reason=None,
             reason_kind=None, name="sim") -> SimRun:
    """A machine-clock run of the given unit columns, no messages."""
    n = len(start)
    start, finish = np.asarray(start, float), np.asarray(finish, float)
    return SimRun(
        name=name, scheme="block", nprocs=int(max(proc)) + 1,
        makespan=float(finish.max()), clock="machine",
        proc=np.asarray(proc, np.int64),
        stage=np.asarray(stage if stage is not None else range(n), np.int64),
        start=start, finish=finish,
        work=np.asarray(work if work is not None else finish - start, float),
        kind=tuple(kind),
        reason=np.asarray(reason if reason is not None else [-1] * n, np.int64),
        reason_kind=np.asarray(
            reason_kind if reason_kind is not None else [REASON_NONE] * n, np.int64),
    )


@pytest.fixture
def recorded():
    with trace.enabled() as rec:
        with trace.span("pipeline.prepare", matrix="LAP30"):
            with trace.span("pipeline.order"):
                pass
        trace.counter("partition.units", 7)
        trace.gauge("scheduler.proc_work", [1.0, 2.0])
        record_sim_run(unit_run(
            [0.0, 4.0], [4.0, 6.0], [0, 1], ["column", "triangle"],
            reason=[-1, 0], reason_kind=[REASON_NONE, REASON_PROC],
        ))
    return rec


class TestChromeTrace:
    def test_round_trips_through_json_loads(self, recorded):
        doc = json.loads(chrome_trace_json(recorded))
        assert doc == to_chrome_trace(recorded)
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_spans_become_complete_events(self, recorded):
        doc = to_chrome_trace(recorded)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X" and e["pid"] == 1]
        names = {e["name"] for e in xs}
        assert names == {"pipeline.prepare", "pipeline.order"}
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_timeline_events_land_on_processor_lanes(self, recorded):
        doc = to_chrome_trace(recorded)
        sims = [e for e in doc["traceEvents"] if e["ph"] == "X" and e["pid"] == 2]
        assert sims == [
            {"ph": "X", "pid": 2, "tid": 0, "name": "unit 0 (column)",
             "cat": "simulate_schedule", "ts": 0.0, "dur": 4.0,
             "args": {"uid": 0, "cluster": 0, "work": 4.0}},
            {"ph": "X", "pid": 2, "tid": 1, "name": "unit 1 (triangle)",
             "cat": "simulate_schedule", "ts": 4.0, "dur": 2.0,
             "args": {"uid": 1, "cluster": 1, "work": 2.0}},
        ]
        lane_names = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["pid"] == 2 and e["name"] == "thread_name"
        ]
        assert {e["args"]["name"] for e in lane_names} == {"proc 0", "proc 1"}

    def test_counters_and_gauges_in_other_data(self, recorded):
        doc = to_chrome_trace(recorded)
        assert doc["otherData"]["counters"] == {"partition.units": 7}
        assert doc["otherData"]["gauges"] == {"scheduler.proc_work": [1.0, 2.0]}

    def test_numpy_args_are_jsonable(self):
        import numpy as np

        with trace.enabled() as rec:
            with trace.span("s", count=np.int64(3), arr=np.arange(2)):
                pass
        doc = json.loads(chrome_trace_json(rec))
        (e,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert e["args"] == {"count": 3, "arr": [0, 1]}

    def test_error_spans_carry_the_exception(self):
        with trace.enabled() as rec:
            with pytest.raises(ValueError):
                with trace.span("bad"):
                    raise ValueError("nope")
        doc = to_chrome_trace(rec)
        (e,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert e["args"]["error"] == "ValueError"

    def test_write_to_path(self, recorded, tmp_path):
        out = tmp_path / "run.json"
        write_chrome_trace(recorded, out)
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]


class TestChromeTraceEdgeCases:
    def test_empty_recorder_still_valid(self):
        doc = json.loads(chrome_trace_json(Recorder()))
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        assert doc["otherData"]["counters"] == {}

    def test_counter_only_run(self):
        with trace.enabled() as rec:
            trace.counter("partition.units", 3)
            trace.counter("partition.units", 4)
        doc = to_chrome_trace(rec)
        assert doc["otherData"]["counters"] == {"partition.units": 7}
        assert not [e for e in doc["traceEvents"] if e["ph"] == "X"]

    def test_zero_duration_timeline_events(self):
        with trace.enabled() as rec:
            record_sim_run(unit_run([0.0], [0.0], [0], ["column"]))
        doc = to_chrome_trace(rec)
        (e,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert e["dur"] == 0.0
        assert "busy %" in summary_table(rec)  # no ZeroDivisionError

    def test_non_ascii_span_args_round_trip(self):
        with trace.enabled() as rec:
            with trace.span("étape", matrice="Δ-行列", note="naïve"):
                pass
        doc = json.loads(chrome_trace_json(rec))
        (e,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert e["name"] == "étape"
        assert e["args"] == {"matrice": "Δ-行列", "note": "naïve"}

    def test_worker_spans_get_their_own_process_lanes(self):
        rec = Recorder()
        rec.add_span("parent.stage", 0.0, 1.0)
        rec.add_span("worker.stage", 0.2, 0.8, pid=111, thread=5)
        rec.add_span("worker.stage", 0.3, 0.9, pid=222, thread=7)
        doc = to_chrome_trace(rec)
        xs = {e["name"]: e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert xs["parent.stage"] == 1
        worker_lane_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["args"]["name"].startswith("sweep worker")
        }
        assert worker_lane_names == {
            "sweep worker (pid 111)", "sweep worker (pid 222)",
        }
        worker_pids = {
            e["pid"] for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "worker.stage"
        }
        assert len(worker_pids) == 2 and 1 not in worker_pids


class TestSummaryTable:
    def test_sections_present(self, recorded):
        text = summary_table(recorded)
        assert "Stage timings" in text
        assert "pipeline.prepare" in text
        assert "Counters" in text and "partition.units" in text
        assert "Gauges" in text and "scheduler.proc_work" in text
        assert "Simulated timeline (2 events, span 6 units)" in text

    def test_empty_recorder(self):
        assert summary_table(Recorder()) == "(empty trace)"

    def test_busy_percentages(self, recorded):
        text = summary_table(recorded)
        # lane 0 busy 4 of 6 units = 66.7%, lane 1 busy 2 of 6 = 33.3%
        assert "66.7%" in text and "33.3%" in text


class TestSimRunExport:
    @pytest.fixture
    def recorded_sim(self):
        msgs = MessageTable(src=[0, 1, 0], dst=[1, 0, 1], nbytes=[40, 10, 5],
                            cause=[3, 4, 5], send=[1.0, 2.0, 3.0],
                            recv=[2.0, 3.0, np.nan])
        with trace.enabled() as rec:
            record_sim_run(ledger_run("demo", "wrap", 2, 3.0, msgs))
        return rec

    def test_chrome_trace_flow_events(self, recorded_sim):
        doc = to_chrome_trace(recorded_sim)
        starts = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
        ends = [e for e in doc["traceEvents"] if e.get("ph") == "f"]
        # Only delivered messages become flow arrows.
        assert len(starts) == len(ends) == 2
        assert all(e["bp"] == "e" for e in ends)
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        (run,) = doc["otherData"]["sim_runs"]
        assert run["name"] == "demo" and run["message_bytes"] == 55
        assert run["n_messages"] == 3
        # A ledger-only run has no units, so no lanes.
        assert not [e for e in doc["traceEvents"] if e.get("pid") == 2
                    and e["ph"] in ("X", "M") and e["name"] != "process_name"]

    def test_flows_are_the_heaviest_delivered_messages_in_a_stable_order(
            self, monkeypatch):
        from repro.obs import export

        rng = np.random.default_rng(3)
        n = 60
        msgs = MessageTable(
            src=rng.integers(0, 3, n), dst=rng.integers(0, 3, n),
            nbytes=rng.integers(1, 4, n), cause=np.arange(n),
            send=rng.integers(0, 4, n).astype(float),
            recv=np.where(rng.random(n) < 0.2, np.nan, 9.0),
        )
        monkeypatch.setattr(export, "_MAX_FLOWS", 25)
        with trace.enabled() as rec:
            record_sim_run(ledger_run("a", "wrap", 3, 9.0, msgs))
            record_sim_run(ledger_run("b", "wrap", 3, 9.0, msgs))
        starts = [e for e in to_chrome_trace(rec)["traceEvents"] if e["ph"] == "s"]
        # Python's stable sort on (-bytes, send, src, dst) is the order.
        delivered = [i for i in range(n) if not np.isnan(msgs.recv[i])]
        delivered.sort(key=lambda i: (-msgs.nbytes[i], msgs.send[i],
                                      msgs.src[i], msgs.dst[i]))
        want = delivered[:25]
        assert [e["args"]["cause"] for e in starts] == want + want
        assert [e["args"]["run"] for e in starts] == ["a"] * 25 + ["b"] * 25
        assert [e["id"] for e in starts] == list(range(1, 51))

    def test_summary_mentions_sim_clock(self, recorded_sim):
        text = summary_table(recorded_sim)
        assert "Simulated machine" in text
        assert "demo" in text

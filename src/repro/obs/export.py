"""Exporters for :class:`repro.obs.trace.Recorder` runs.

Two output shapes:

* :func:`to_chrome_trace` / :func:`chrome_trace_json` — the Chrome
  Trace Event Format (the ``traceEvents`` JSON object array), loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev, and the one file
  export.  Wall-clock spans appear as one process ("repro pipeline", a
  thread per python thread); spans merged from worker recorders
  (:meth:`Recorder.merge`) appear as one further process per worker
  pid; the units of every recorded :class:`repro.obs.simtime.SimRun`
  appear as another process with one lane per processor, so a
  :func:`repro.machine.simulate.simulate_schedule` run renders as a
  Gantt chart, and its heaviest messages as flow arrows;
* :func:`summary_table` — the ASCII per-stage timing/counter summary
  printed by ``python -m repro trace <target>``.
"""

from __future__ import annotations

import itertools
import json
from typing import TextIO

import numpy as np

from .tables import render_table
from .trace import Recorder

__all__ = [
    "to_chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "summary_table",
]

# Wall-clock spans and simulated events are separate Chrome-trace
# processes so their clocks (seconds vs abstract units) never mix.
# Spans merged from worker recorders (SpanRecord.pid set) get one further
# Chrome process per worker, numbered from _PID_WORKER_BASE.
_PID_PIPELINE = 1
_PID_SIM = 2
_PID_WORKER_BASE = 100
#: Flow-arrow cap per trace: the heaviest messages only.
_MAX_FLOWS = 2000


def _jsonable(value):
    """Best-effort conversion of span/event args to JSON-safe values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    tolist = getattr(value, "tolist", None)  # numpy scalars/arrays
    if callable(tolist):
        return _jsonable(tolist())
    return str(value)


def _unit_runs(recorder: Recorder) -> list:
    """The recorded sim runs that carry per-unit records (a ledger-only
    run, an mpsim execution, has no units to draw)."""
    return [run for run in recorder.sim_runs if run.n_units]


def _unit_events(run) -> list[dict]:
    """One complete event per unit of ``run`` on its processor's lane."""
    columns = zip(run.proc.tolist(), run.kind, run.start.tolist(),
                  (run.finish - run.start).tolist(), run.stage.tolist(),
                  run.work.tolist())
    return [{
        "ph": "X", "pid": _PID_SIM, "tid": proc,
        "name": f"unit {u} ({kind})", "cat": "simulate_schedule",
        "ts": ts, "dur": dur, "args": {"uid": u, "cluster": stage, "work": work},
    } for u, (proc, kind, ts, dur, stage, work) in enumerate(columns)]


def _flow_events(run, flow_ids) -> list[dict]:
    """Flow arrows for the heaviest delivered messages of ``run`` (by
    bytes descending, then send time, source and destination), numbered
    from the iterator ``flow_ids``."""
    m = run.messages
    d = np.flatnonzero(~np.isnan(m.recv))
    heaviest = d[np.lexsort((m.dst[d], m.src[d], m.send[d], -m.nbytes[d]))][:_MAX_FLOWS]
    columns = (col[heaviest].tolist()
               for col in (m.src, m.dst, m.nbytes, m.cause, m.send, m.recv))
    events = []
    for (src, dst, nbytes, cause, send, recv), flow_id in zip(zip(*columns), flow_ids):
        name = f"msg {src}->{dst} ({nbytes} el)"
        events.append({
            "ph": "s", "pid": _PID_SIM, "tid": src, "id": flow_id,
            "name": name, "cat": f"sim-msg-{run.clock}", "ts": send,
            "args": {"bytes": nbytes, "cause": cause, "run": run.name},
        })
        events.append({
            "ph": "f", "pid": _PID_SIM, "tid": dst, "id": flow_id,
            "name": name, "cat": f"sim-msg-{run.clock}", "ts": recv,
            "bp": "e", "args": {"bytes": nbytes},
        })
    return events


def to_chrome_trace(recorder: Recorder) -> dict:
    """Build the Chrome Trace Event Format object for a run.

    Wall-clock span times are exported in microseconds (the format's
    unit); simulated timeline events use one abstract time unit = 1 µs,
    which Perfetto displays with correct relative proportions.
    """
    events: list[dict] = [
        {"ph": "M", "pid": _PID_PIPELINE, "name": "process_name",
         "args": {"name": "repro pipeline (wall clock)"}},
        {"ph": "M", "pid": _PID_SIM, "name": "process_name",
         "args": {"name": "simulated machine (abstract time)"}},
    ]
    # One Chrome process per recording process: the parent's spans
    # (pid None) on _PID_PIPELINE, each merged worker recorder on its own
    # numbered process, with thread lanes inside each.
    worker_pids = sorted({s.pid for s in recorder.spans if s.pid is not None})
    chrome_pid = {None: _PID_PIPELINE}
    chrome_pid.update(
        (pid, _PID_WORKER_BASE + i) for i, pid in enumerate(worker_pids)
    )
    for pid in worker_pids:
        events.append({"ph": "M", "pid": chrome_pid[pid], "name": "process_name",
                       "args": {"name": f"sweep worker (pid {pid})"}})
    tid_of: dict[tuple, int] = {}
    for group in (None, *worker_pids):
        threads = sorted({s.thread for s in recorder.spans if s.pid == group})
        for i, t in enumerate(threads):
            tid_of[(group, t)] = i
            events.append({"ph": "M", "pid": chrome_pid[group], "tid": i,
                           "name": "thread_name", "args": {"name": f"thread {t}"}})
    for s in recorder.spans:
        args = dict(_jsonable(s.args))
        if s.error is not None:
            args["error"] = s.error
        events.append({
            "ph": "X", "pid": chrome_pid[s.pid], "tid": tid_of[(s.pid, s.thread)],
            "name": s.name, "cat": "pipeline",
            "ts": s.start * 1e6, "dur": s.duration * 1e6, "args": args,
        })
    unit_runs = _unit_runs(recorder)
    lanes = sorted({p for run in unit_runs for p in run.proc.tolist()})
    for lane in lanes:
        events.append({"ph": "M", "pid": _PID_SIM, "tid": lane,
                       "name": "thread_name", "args": {"name": f"proc {lane}"}})
    for run in unit_runs:
        events.extend(_unit_events(run))
    # RSS samples render as a Perfetto counter track on the pipeline
    # process; histogram percentiles as one counter sample per metric.
    for t, rss in sorted(recorder.memory_samples):
        events.append({
            "ph": "C", "pid": _PID_PIPELINE, "name": "mem.rss_mb",
            "ts": t * 1e6, "args": {"rss_mb": round(rss / (1024.0 * 1024.0), 3)},
        })
    for name, hist in sorted(recorder.histograms.items()):
        events.append({
            "ph": "C", "pid": _PID_PIPELINE, "name": name, "ts": 0,
            "args": {
                "p50": hist.percentile(50),
                "p90": hist.percentile(90),
                "p99": hist.percentile(99),
            },
        })
    # Messages from the sim-clock ledger become Perfetto flow arrows on
    # the simulated-machine process (the clock of the unit lanes above).
    # Capped at the heaviest _MAX_FLOWS per run so a 10⁴-message ledger
    # does not drown the trace; the uncapped ledger reaches no file, and
    # ``otherData.sim_runs`` keeps its totals, links and P×P matrix.
    flow_ids = itertools.count(1)
    for run in recorder.sim_runs:
        events.extend(_flow_events(run, flow_ids))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": dict(sorted(recorder.counters.items())),
            "gauges": {k: _jsonable(v) for k, v in sorted(recorder.gauges.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(recorder.histograms.items())
            },
            "sim_runs": [run.to_manifest(top_links=10)
                         for run in recorder.sim_runs],
        },
    }


def chrome_trace_json(recorder: Recorder) -> str:
    return json.dumps(to_chrome_trace(recorder), indent=1)


def write_chrome_trace(recorder: Recorder, path_or_file) -> None:
    _write(path_or_file, chrome_trace_json(recorder))


def _write(path_or_file, text: str) -> None:
    if hasattr(path_or_file, "write"):
        f: TextIO = path_or_file
        f.write(text)
        return
    with open(path_or_file, "w") as f:
        f.write(text)


def summary_table(recorder: Recorder) -> str:
    """ASCII per-stage summary: span timings, then counters and gauges."""
    parts: list[str] = []
    if recorder.spans:
        stats: dict[str, list[float]] = {}
        order: list[str] = []
        for s in recorder.spans:
            if s.name not in stats:
                stats[s.name] = []
                order.append(s.name)
            stats[s.name].append(s.duration)
        rows = []
        for name in order:
            durs = stats[name]
            total = sum(durs)
            rows.append([
                name, len(durs), f"{1e3 * total:.2f}",
                f"{1e3 * total / len(durs):.3f}", f"{1e3 * max(durs):.3f}",
            ])
        parts.append(render_table(
            ["span", "count", "total ms", "mean ms", "max ms"], rows, "Stage timings"
        ))
    if recorder.counters:
        rows = [[name, value] for name, value in sorted(recorder.counters.items())]
        parts.append(render_table(["counter", "value"], rows, "Counters"))
    if recorder.gauges:
        rows = [[name, str(_jsonable(value))] for name, value in sorted(recorder.gauges.items())]
        parts.append(render_table(["gauge", "value"], rows, "Gauges"))
    if recorder.histograms:
        rows = []
        for name, hist in sorted(recorder.histograms.items()):
            rows.append([
                name, hist.count, f"{hist.mean:.3g}",
                f"{hist.percentile(50):.3g}", f"{hist.percentile(90):.3g}",
                f"{hist.percentile(99):.3g}", f"{hist.max:.3g}",
            ])
        parts.append(render_table(
            ["histogram", "count", "mean", "p50", "p90", "p99", "max"],
            rows, "Histograms",
        ))
    if recorder.memory_samples:
        samples = sorted(recorder.memory_samples)
        mb = 1024.0 * 1024.0
        peak_t, peak_rss = max(samples, key=lambda s: s[1])
        rows = [[
            len(samples),
            f"{samples[0][1] / mb:.1f}",
            f"{peak_rss / mb:.1f}",
            f"{peak_t:.3f}",
            f"{samples[-1][1] / mb:.1f}",
        ]]
        parts.append(render_table(
            ["samples", "first MB", "peak MB", "peak at s", "last MB"],
            rows, "Memory (RSS)",
        ))
    unit_runs = _unit_runs(recorder)
    if unit_runs:
        # Every unit of every run, in recording order: bincount adds in
        # array order, so each lane's busy time is a sequential sum.
        proc = np.concatenate([run.proc for run in unit_runs])
        start = np.concatenate([run.start for run in unit_runs])
        dur = np.concatenate([run.finish - run.start for run in unit_runs])
        t_end = float((start + dur).max())
        busy = np.bincount(proc, weights=dur).tolist()
        events = np.bincount(proc).tolist()
        rows = [
            [lane, events[lane], f"{busy[lane]:.0f}",
             f"{100 * busy[lane] / t_end:.1f}%" if t_end else "-"]
            for lane in np.unique(proc).tolist()
        ]
        parts.append(render_table(
            ["lane", "events", "busy", "busy %"],
            rows,
            f"Simulated timeline ({len(proc)} events, span {t_end:.0f} units)",
        ))
    if recorder.sim_runs:
        rows = []
        for run in recorder.sim_runs:
            if run.n_units:
                lam = f"{run.imbalance().imbalance:.3f}"
                cp = f"{len(run.critical_path().units)}"
            else:
                lam = cp = "-"
            rows.append([
                run.name, run.scheme, run.nprocs, run.clock,
                f"{run.makespan:.0f}", len(run.messages),
                run.total_message_bytes(), lam, cp,
            ])
        parts.append(render_table(
            ["run", "scheme", "P", "clock", "makespan", "msgs", "bytes",
             "lambda", "cp units"],
            rows, "Simulated machine (sim clock)",
        ))
    if not parts:
        return "(empty trace)"
    return "\n\n".join(parts)

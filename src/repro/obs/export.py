"""Exporters for :class:`repro.obs.trace.Recorder` runs.

Three output shapes:

* :func:`to_jsonl` — one JSON object per line (spans, timeline events,
  counters, gauges), the archival/greppable form;
* :func:`to_chrome_trace` / :func:`chrome_trace_json` — the Chrome
  Trace Event Format (the ``traceEvents`` JSON object array), loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev.  Wall-clock spans
  appear as one process ("repro pipeline", a thread per python thread);
  spans merged from worker recorders (:meth:`Recorder.merge`) appear
  as one further process per worker pid; simulated-machine timeline events
  appear as another process with one lane per processor, so a
  :func:`repro.machine.simulate.simulate_schedule` run renders as a
  Gantt chart;
* :func:`summary_table` — the ASCII per-stage timing/counter summary
  printed by ``python -m repro trace <target>``.

Only the standard library is used.
"""

from __future__ import annotations

import json
from typing import TextIO

from .tables import render_table
from .trace import Recorder

__all__ = [
    "to_jsonl",
    "write_jsonl",
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


def to_jsonl(recorder: Recorder) -> str:
    """Serialize a run as JSON Lines (one record per line)."""
    lines = []
    for s in recorder.spans:
        lines.append(json.dumps({
            "type": "span", "name": s.name, "start": s.start, "end": s.end,
            "depth": s.depth, "thread": s.thread, "pid": s.pid,
            "error": s.error, "args": _jsonable(s.args),
        }, sort_keys=True))
    for e in recorder.timeline:
        lines.append(json.dumps({
            "type": "timeline", "name": e.name, "ts": e.ts, "dur": e.dur,
            "lane": e.lane, "track": e.track, "args": _jsonable(e.args),
        }, sort_keys=True))
    for name, value in sorted(recorder.counters.items()):
        lines.append(json.dumps({"type": "counter", "name": name, "value": value}))
    for name, value in sorted(recorder.gauges.items()):
        lines.append(json.dumps(
            {"type": "gauge", "name": name, "value": _jsonable(value)}, sort_keys=True
        ))
    for name, hist in sorted(recorder.histograms.items()):
        lines.append(json.dumps(
            {"type": "histogram", "name": name, **hist.to_dict()}, sort_keys=True
        ))
    for run in recorder.sim_runs:
        lines.append(json.dumps(
            {"type": "sim_run", **run.to_manifest()}, sort_keys=True
        ))
        for m in run.messages:
            lines.append(json.dumps({
                "type": "sim_message", "run": run.name, "clock": run.clock,
                "src": m.src, "dst": m.dst, "bytes": m.nbytes,
                "cause": m.cause, "send": m.send, "recv": m.recv,
            }, sort_keys=True))
    for t, rss in sorted(recorder.memory_samples):
        lines.append(json.dumps(
            {"type": "memory", "t": t, "rss_bytes": int(rss)}, sort_keys=True
        ))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(recorder: Recorder, path_or_file) -> None:
    _write(path_or_file, to_jsonl(recorder))


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
    lanes = sorted({e.lane for e in recorder.timeline})
    for lane in lanes:
        events.append({"ph": "M", "pid": _PID_SIM, "tid": lane,
                       "name": "thread_name", "args": {"name": f"proc {lane}"}})
    for e in recorder.timeline:
        events.append({
            "ph": "X", "pid": _PID_SIM, "tid": e.lane,
            "name": e.name, "cat": e.track,
            "ts": e.ts, "dur": e.dur, "args": dict(_jsonable(e.args)),
        })
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
    # the simulated-machine process (same second clock domain as the
    # timeline lanes above).  Capped at the heaviest _MAX_FLOWS so a
    # 10⁴-message ledger does not drown the trace; the full ledger is
    # always in the JSONL export.
    flow_id = 0
    for run in recorder.sim_runs:
        delivered = [m for m in run.messages if m.recv is not None]
        delivered.sort(key=lambda m: (-m.nbytes, m.send, m.src, m.dst))
        for m in delivered[:_MAX_FLOWS]:
            flow_id += 1
            name = f"msg {m.src}->{m.dst} ({m.nbytes} el)"
            events.append({
                "ph": "s", "pid": _PID_SIM, "tid": m.src, "id": flow_id,
                "name": name, "cat": f"sim-msg-{run.clock}", "ts": m.send,
                "args": {"bytes": m.nbytes, "cause": m.cause, "run": run.name},
            })
            events.append({
                "ph": "f", "pid": _PID_SIM, "tid": m.dst, "id": flow_id,
                "name": name, "cat": f"sim-msg-{run.clock}", "ts": m.recv,
                "bp": "e", "args": {"bytes": m.nbytes},
            })
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
    if recorder.timeline:
        lanes = sorted({e.lane for e in recorder.timeline})
        t_end = max((e.ts + e.dur) for e in recorder.timeline)
        busy = {lane: 0.0 for lane in lanes}
        for e in recorder.timeline:
            busy[e.lane] += e.dur
        rows = [
            [lane,
             sum(1 for e in recorder.timeline if e.lane == lane),
             f"{busy[lane]:.0f}",
             f"{100 * busy[lane] / t_end:.1f}%" if t_end else "-"]
            for lane in lanes
        ]
        parts.append(render_table(
            ["lane", "events", "busy", "busy %"],
            rows,
            f"Simulated timeline ({len(recorder.timeline)} events, span {t_end:.0f} units)",
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

"""repro.obs — pipeline-wide tracing and metrics.

:mod:`repro.obs.trace` is the zero-dependency recording core (spans,
counters, gauges, histograms, simulated timelines) that the rest of the
stack calls into; it is a cheap no-op until enabled.
:mod:`repro.obs.export` turns a recorded run into JSONL, Chrome-trace
JSON (``chrome://tracing`` / Perfetto) or an ASCII summary.
:mod:`repro.obs.shard` ships worker recorders across process boundaries
and merges them into one multi-process trace; :mod:`repro.obs.runs` is
the persistent run registry behind ``python -m repro runs``.
:mod:`repro.obs.memory` attaches RSS watermarks to spans,
:mod:`repro.obs.profile` is the span-attributed sampling profiler, and
:mod:`repro.obs.report` renders a recorded run as one self-contained
HTML page.  :mod:`repro.obs.simtime` is the *simulated-clock* domain:
message ledgers, communication matrices, critical-path extraction and
λ attribution for the simulated machine.  See ``docs/observability.md``.
"""

from . import runs, shard
from .histogram import Histogram
from .memory import MemoryMonitor, memory_enabled, monitored, rss_bytes
from .profile import SamplingProfiler, profiled
from .simtime import (
    CriticalPath,
    ImbalanceAttribution,
    MessageLedger,
    MessageTable,
    ProcTimes,
    SimMessage,
    SimRun,
    busy_grid,
    ledger_run,
    record_sim_run,
)
from .export import (
    chrome_trace_json,
    summary_table,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .trace import (
    Recorder,
    SpanRecord,
    TimelineEvent,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    get_recorder,
    is_enabled,
    observe,
    set_recorder,
    span,
    timeline_event,
)

__all__ = [
    "runs",
    "shard",
    "Histogram",
    "MemoryMonitor",
    "memory_enabled",
    "monitored",
    "rss_bytes",
    "SamplingProfiler",
    "profiled",
    "CriticalPath",
    "ImbalanceAttribution",
    "MessageLedger",
    "MessageTable",
    "ProcTimes",
    "SimMessage",
    "SimRun",
    "busy_grid",
    "ledger_run",
    "record_sim_run",
    "Recorder",
    "SpanRecord",
    "TimelineEvent",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_recorder",
    "is_enabled",
    "observe",
    "set_recorder",
    "span",
    "timeline_event",
    "chrome_trace_json",
    "summary_table",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

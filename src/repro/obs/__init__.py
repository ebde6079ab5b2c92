"""repro.obs — pipeline-wide tracing and metrics.

:mod:`repro.obs.trace` is the zero-dependency recording core (spans,
counters, gauges, histograms, simulated runs) that the rest of the
stack calls into; it is a cheap no-op until enabled.
:mod:`repro.obs.export` turns a recorded run into Chrome-trace JSON
(``chrome://tracing`` / Perfetto) or an ASCII summary.
A :class:`Recorder` pickles and merges, so a sweep worker's recorder
ships home onto one multi-process trace; :mod:`repro.obs.runs` is the
persistent run registry behind ``python -m repro runs``.
:mod:`repro.obs.memory` attaches RSS watermarks to spans,
:mod:`repro.obs.profile` is the span-attributed sampling profiler, and
:mod:`repro.obs.report` renders a recorded run as one self-contained
HTML page.  :mod:`repro.obs.simtime` is the *simulated-clock* domain:
message ledgers, communication matrices, critical-path extraction and
λ attribution for the simulated machine.  See ``docs/observability.md``.
"""

from . import runs
from .histogram import Histogram
from .memory import MemoryMonitor, memory_enabled, monitored, rss_bytes
from .profile import SamplingProfiler, profiled
from .simtime import (
    CriticalPath,
    ImbalanceAttribution,
    MessageLedger,
    MessageTable,
    ProcTimes,
    SimRun,
    busy_grid,
    ledger_run,
    record_sim_run,
)
from .export import (
    chrome_trace_json,
    summary_table,
    to_chrome_trace,
    write_chrome_trace,
)
from .trace import (
    Recorder,
    SpanRecord,
    counter,
    enabled,
    gauge,
    get_recorder,
    is_enabled,
    observe,
    span,
)

__all__ = [
    "runs",
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
    "SimRun",
    "busy_grid",
    "ledger_run",
    "record_sim_run",
    "Recorder",
    "SpanRecord",
    "counter",
    "enabled",
    "gauge",
    "get_recorder",
    "is_enabled",
    "observe",
    "span",
    "chrome_trace_json",
    "summary_table",
    "to_chrome_trace",
    "write_chrome_trace",
]

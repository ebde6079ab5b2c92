"""Zero-dependency structured tracing: spans, counters, gauges, histograms.

The paper's whole contribution is measurement, so the reproduction's own
pipeline should be measurable too.  This module provides the recording
core used throughout the stack:

* :func:`span` — a nestable context manager timing one pipeline stage
  (``with span("partition", matrix="LAP30"): ...``), recorded on exit
  with wall-clock start/end, nesting depth and arbitrary key/value args;
* :func:`counter` — a named monotonically accumulated count
  (``counter("partition.units", 12)``);
* :func:`gauge` — a named last-value-wins observation;
* :func:`observe` — one sample of a named distribution, accumulated
  into a fixed log-bucket :class:`~repro.obs.histogram.Histogram`
  (``observe("perf.sweep.unit_ms", 12.5)``), so p50/p90/p99 survive
  where a mean would average the skew away.

The simulated clock has its own record: a traced simulation appends one
:class:`repro.obs.simtime.SimRun` to ``Recorder.sim_runs``, and every
exporter reads its unit and message columns.

When a :class:`repro.obs.memory.MemoryMonitor` is attached to the
recorder, every span additionally records ``mem_peak_mb`` /
``mem_delta_mb`` (and ``mem_alloc_kb`` in deep mode) in its args, and
the recorder accumulates an RSS sample timeline in ``memory_samples``.

Everything lands in a :class:`Recorder`.  A recorder pickles, so a
process-pool worker can record into its own and ship it home, where
:meth:`Recorder.merge` puts it on the parent's timeline.  Tracing is
**off by default** and every entry point first checks a module-level
flag, so the disabled cost at an instrumented call site is one function
call and one branch — the overhead target is <5% on the scaling
benchmark.  Switch it on for a scope with::

    with enabled() as rec:
        run_pipeline()
    print(rec.counters)

Only the standard library is used; exporters live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .histogram import Histogram

__all__ = [
    "SpanRecord",
    "Recorder",
    "enabled",
    "is_enabled",
    "get_recorder",
    "span",
    "counter",
    "gauge",
    "observe",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a timed, named, possibly nested interval."""

    name: str
    start: float  # seconds since the recorder's epoch
    end: float
    depth: int  # 0 = top level (per thread)
    thread: int  # python thread ident
    args: dict = field(default_factory=dict)
    error: str | None = None  # exception type name if the body raised
    pid: int | None = None  # None = the recording process itself

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Accumulates the spans, counters, gauges, histograms, simulated
    runs and RSS samples of one run.

    Appends are guarded by a lock, because the memory monitor's and the
    sampling profiler's threads record beside the main one; each thread
    keeps its own open-span stack, so concurrent spans nest independently.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: Wall-clock (unix) time of the epoch, so recorders created in
        #: different processes can be merged onto one timeline: a span's
        #: absolute time is ``recorder.epoch_unix + span.start``.
        self.epoch_unix = time.time()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, object] = {}
        self.histograms: dict[str, Histogram] = {}
        #: Simulated-machine executions (:class:`repro.obs.simtime.SimRun`)
        #: appended by :func:`repro.obs.simtime.record_sim_run` — the
        #: sim-clock domain, distinct from wall-clock spans.
        self.sim_runs: list = []
        #: ``(t_rel_epoch, rss_bytes)`` samples appended by an attached
        #: :class:`repro.obs.memory.MemoryMonitor`.
        self.memory_samples: list[tuple[float, int]] = []
        #: The attached memory monitor (``None`` = no span watermarks).
        self.memory = None
        self._lock = threading.Lock()
        # Per-thread open-span stacks, keyed by thread ident in a plain
        # dict (GIL-atomic get/set) rather than thread-local storage so
        # the sampling profiler can read *other* threads' open spans.
        self._stacks: dict[int, list] = {}

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def open_span_name(self, ident: int) -> str | None:
        """Innermost open span name of thread ``ident`` (profiler use;
        safe to call from any thread — worst case a stale answer)."""
        stack = self._stacks.get(ident)
        if not stack:
            return None
        try:
            return stack[-1]._name
        except IndexError:  # popped between the check and the read
            return None

    def span(self, name: str, **args) -> "_Span":
        return _Span(self, name, args)

    @property
    def active_depth(self) -> int:
        """Nesting depth of the calling thread's open spans."""
        return len(self._stack())

    def _record_span(self, rec: SpanRecord) -> None:
        with self._lock:
            self.spans.append(rec)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        depth: int = 0,
        thread: int = 0,
        args: dict | None = None,
        error: str | None = None,
        pid: int | None = None,
    ) -> None:
        """Record a fully-formed span (merged workers, synthetic spans)."""
        self._record_span(
            SpanRecord(
                name=name,
                start=float(start),
                end=float(end),
                depth=int(depth),
                thread=int(thread),
                args=dict(args or {}),
                error=error,
                pid=pid,
            )
        )

    # -- scalars --------------------------------------------------------
    def add_counter(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one sample to the named fixed-log-bucket histogram."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    # -- simulated runs -------------------------------------------------
    def add_sim_run(self, run) -> None:
        """Record one simulated-machine execution (a ``simtime.SimRun``)."""
        with self._lock:
            self.sim_runs.append(run)

    # -- queries --------------------------------------------------------
    def spans_named(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def is_empty(self) -> bool:
        return not (
            self.spans
            or self.counters
            or self.gauges
            or self.histograms
            or self.sim_runs
            or self.memory_samples
        )

    # -- across processes -----------------------------------------------
    def __getstate__(self) -> dict:
        # The lock, the open-span stacks and the attached monitor belong
        # to the recording process; what was recorded travels.
        state = self.__dict__.copy()
        for name in ("_lock", "_stacks", "memory"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.memory = None
        self._lock = threading.Lock()
        self._stacks = {}

    def merge(self, other: "Recorder", pid: int) -> None:
        """Merge a recorder shipped home from process ``pid``.

        Span times and memory samples are rebased from ``other``'s epoch
        onto this one's (both carry the wall-clock time of their epoch,
        so the offset is their difference); spans keep their thread and
        are tagged with ``pid``, which the Chrome exporter turns into one
        process lane per worker.  Counters add and gauges are last write
        wins, as if ``other`` had recorded here.  Histograms and sim runs
        are not merged: a sweep worker records neither.
        """
        delta = other.epoch_unix - self.epoch_unix
        for s in other.spans:
            self._record_span(
                replace(s, start=s.start + delta, end=s.end + delta, pid=pid)
            )
        for name, value in other.counters.items():
            self.add_counter(name, value)
        for name, value in other.gauges.items():
            self.set_gauge(name, value)
        with self._lock:
            self.memory_samples.extend(
                (t + delta, rss) for t, rss in other.memory_samples
            )


class _Span:
    """Context manager recording one span on exit (exceptions included)."""

    __slots__ = ("_rec", "_name", "_args", "_t0", "_depth", "_mem")

    def __init__(self, rec: Recorder, name: str, args: dict):
        self._rec = rec
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        stack = self._rec._stack()
        self._depth = len(stack)
        stack.append(self)
        monitor = self._rec.memory
        self._mem = None if monitor is None else monitor.mark()
        self._t0 = time.perf_counter() - self._rec.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter() - self._rec.epoch
        stack = self._rec._stack()
        if stack and stack[-1] is self:
            stack.pop()
        monitor = self._rec.memory
        if self._mem is not None and monitor is not None:
            self._args.update(monitor.since(self._mem))
        self._rec._record_span(
            SpanRecord(
                name=self._name,
                start=self._t0,
                end=t1,
                depth=self._depth,
                thread=threading.get_ident(),
                args=self._args,
                error=None if exc_type is None else exc_type.__name__,
            )
        )
        return False  # never swallow exceptions


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()
_enabled = False
_recorder = Recorder()
_state_lock = threading.Lock()


def is_enabled() -> bool:
    """True when instrumented call sites actually record."""
    return _enabled


def get_recorder() -> Recorder:
    """The currently installed recorder (recording only while enabled)."""
    return _recorder


@contextmanager
def enabled(recorder: Recorder | None = None):
    """Scoped tracing: enable around a block, restore the prior state
    after, and yield the recorder that captured the block."""
    global _enabled, _recorder
    with _state_lock:
        prev_enabled, prev_recorder = _enabled, _recorder
        _recorder = recorder if recorder is not None else Recorder()
        _enabled = True
        active = _recorder
    try:
        yield active
    finally:
        with _state_lock:
            _enabled, _recorder = prev_enabled, prev_recorder


def span(name: str, **args):
    """Time a stage; a shared no-op context manager when disabled."""
    if not _enabled:
        return _NOOP
    return _recorder.span(name, **args)


def counter(name: str, value: float = 1) -> None:
    """Accumulate ``value`` onto the named counter (no-op when disabled)."""
    if not _enabled:
        return
    _recorder.add_counter(name, value)


def gauge(name: str, value) -> None:
    """Record the latest value of a named gauge (no-op when disabled)."""
    if not _enabled:
        return
    _recorder.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Add one histogram sample (no-op when disabled)."""
    if not _enabled:
        return
    _recorder.observe(name, value)


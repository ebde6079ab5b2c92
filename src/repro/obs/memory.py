"""Memory watermarks: a background RSS sampler feeding span attribution.

ROADMAP item 1 (the 100-1000x workload scale-up) is blocked on knowing
where memory goes; wall-clock spans alone cannot say whether the
symbolic stage peaked at 40 MB or 4 GB.  :class:`MemoryMonitor` closes
that gap with three cooperating pieces:

* a **sampler**: a daemon thread reads the process RSS from
  ``/proc/self/statm`` (or psutil where available) every ``interval``
  seconds and appends ``(t, rss_bytes)`` to the owning recorder's
  ``memory_samples`` timeline — timestamps are relative to the
  recorder's epoch, so the samples line up with spans and survive the
  merge of a parallel sweep's worker recorders;
* **span attribution**: every span closed while a monitor is attached
  picks up ``mem_peak_mb`` (the high-water RSS over the span's window,
  from the samples plus an entry/exit reading) and ``mem_delta_mb``
  (net RSS change across the span) in its args;
* **deep mode** (``REPRO_TRACE_MEM=deep``): tracemalloc is started and
  spans additionally carry ``mem_alloc_kb``, the *net Python
  allocation* delta — RSS tells you what the OS granted, tracemalloc
  tells you which allocations survived.

``REPRO_TRACE_MEM=0`` (or ``off``) disables attachment entirely; on
platforms with neither ``/proc`` nor psutil the monitor degrades to a
no-op rather than failing.  Only the standard library is required.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

from .trace import Recorder, get_recorder, is_enabled

__all__ = [
    "rss_bytes",
    "memory_enabled",
    "deep_tracing_requested",
    "MemoryMonitor",
    "monitored",
]

_MB = 1024.0 * 1024.0

try:  # one sysconf call at import; Linux and macOS both have it
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096


def _rss_from_proc() -> int | None:
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def _rss_from_psutil() -> int | None:  # pragma: no cover - linux CI has /proc
    try:
        import psutil
    except ImportError:
        return None
    try:
        return int(psutil.Process().memory_info().rss)
    except Exception:
        return None


def rss_bytes() -> int | None:
    """Current resident set size in bytes, or ``None`` when unreadable."""
    rss = _rss_from_proc()
    if rss is not None:
        return rss
    return _rss_from_psutil()


def memory_enabled() -> bool:
    """False when ``REPRO_TRACE_MEM`` is ``0``/``off`` or RSS is
    unreadable on this platform; harnesses skip attachment then."""
    if os.environ.get("REPRO_TRACE_MEM", "").lower() in ("0", "off"):
        return False
    return rss_bytes() is not None


def deep_tracing_requested() -> bool:
    """True when ``REPRO_TRACE_MEM=deep`` asks for tracemalloc deltas."""
    return os.environ.get("REPRO_TRACE_MEM", "").lower() == "deep"


class MemoryMonitor:
    """Samples process RSS onto a recorder and marks span watermarks.

    One monitor serves one recorder; :meth:`start` installs it as
    ``recorder.memory`` (so spans pick up watermarks on exit) and spawns
    the sampler thread, :meth:`stop` detaches it, takes a final sample
    and records the run-level ``mem.rss_peak_mb`` gauge.  All sample
    state lives on the recorder (``memory_samples``), so a worker's
    recorder ships it across process boundaries like any other telemetry.
    """

    def __init__(
        self,
        recorder: Recorder,
        interval: float = 0.005,
        deep: bool | None = None,
    ) -> None:
        self.recorder = recorder
        self.interval = float(interval)
        self.deep = deep_tracing_requested() if deep is None else bool(deep)
        self.peak_rss = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_tracemalloc = False

    # -- sampling -------------------------------------------------------
    def sample(self) -> int | None:
        """Take one RSS sample now; appends to the recorder's timeline."""
        rss = rss_bytes()
        if rss is None:
            return None
        if rss > self.peak_rss:
            self.peak_rss = rss
        self.recorder.memory_samples.append(
            (time.perf_counter() - self.recorder.epoch, rss)
        )
        return rss

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "MemoryMonitor":
        if self.deep:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        self.sample()
        self.recorder.memory = self
        if rss_bytes() is not None:
            self._thread = threading.Thread(
                target=self._run, name="repro-obs-memory", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.sample()
        if self.recorder.memory is self:
            self.recorder.memory = None
        if self.peak_rss:
            self.recorder.set_gauge(
                "mem.rss_peak_mb", round(self.peak_rss / _MB, 3)
            )
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- span attribution ----------------------------------------------
    def mark(self) -> tuple[int, int, int]:
        """Span-entry watermark: (sample index, rss now, traced now)."""
        rss = rss_bytes() or 0
        if rss > self.peak_rss:
            self.peak_rss = rss
        traced = 0
        if self.deep:
            import tracemalloc

            traced = tracemalloc.get_traced_memory()[0]
        return (len(self.recorder.memory_samples), rss, traced)

    def since(self, mark: tuple[int, int, int]) -> dict:
        """Span-exit watermark args for a span opened at ``mark``.

        Peak is the max of the entry/exit readings and every background
        sample taken in between, so short spans still get a watermark
        (their own two readings) and long spans get the true high water.
        """
        index, rss0, traced0 = mark
        rss1 = rss_bytes() or rss0
        if rss1 > self.peak_rss:
            self.peak_rss = rss1
        peak = max(rss0, rss1)
        samples = self.recorder.memory_samples
        if index < len(samples):
            window_peak = max(rss for _, rss in samples[index:])
            if window_peak > peak:
                peak = window_peak
        out = {
            "mem_peak_mb": round(peak / _MB, 3),
            "mem_delta_mb": round((rss1 - rss0) / _MB, 3),
        }
        if self.deep:
            import tracemalloc

            traced1 = tracemalloc.get_traced_memory()[0]
            out["mem_alloc_kb"] = round((traced1 - traced0) / 1024.0, 1)
        return out


@contextmanager
def monitored(
    recorder: Recorder | None = None,
    interval: float = 0.005,
    deep: bool | None = None,
):
    """Attach a :class:`MemoryMonitor` to ``recorder`` (default: the
    active recorder) for the duration of the block; yields the monitor,
    or ``None`` when memory tracking is disabled or unavailable, or when
    no recorder is given and tracing is off (nothing would read the
    idle recorder's samples)."""
    if not memory_enabled() or (recorder is None and not is_enabled()):
        yield None
        return
    rec = recorder if recorder is not None else get_recorder()
    monitor = MemoryMonitor(rec, interval=interval, deep=deep)
    monitor.start()
    try:
        yield monitor
    finally:
        monitor.stop()

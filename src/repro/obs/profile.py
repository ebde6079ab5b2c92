"""Span-attributed sampling profiler: where does the wall clock go?

Spans time the stages the author thought to instrument; a profiler
finds the cost the author did not.  This module samples every live
Python thread's call stack from a background thread (via
``sys._current_frames()``) at a fixed rate — no sys.settrace, no
bytecode hooks, so the profiled code runs at native speed and the
measured overhead at the default 200 Hz stays under the 5% bar
``tests/perf`` asserts on the CANN1072 pipeline.

Each sample is tagged with the sampled thread's **currently open span**
(read from the active :class:`~repro.obs.trace.Recorder`), which makes
two complementary views possible:

* :meth:`SamplingProfiler.self_time` — a per-(span, function) self-time
  table: "62% of ``pipeline.dependencies`` is ``np.unique``";
* :meth:`SamplingProfiler.collapsed` — folded-stack lines
  (``frame;frame;frame count``) directly consumable by ``flamegraph.pl``
  or https://www.speedscope.app (drag-and-drop the file).

The CLI front end is ``python -m repro profile <target> --hz 200``.
Only the standard library is used.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

from .tables import render_table
from .trace import Recorder, get_recorder, is_enabled

__all__ = ["SamplingProfiler", "profiled"]

#: Threads whose name starts with one of these never get sampled: the
#: profiler itself and the memory monitor are observers, not workload.
_OBSERVER_PREFIX = "repro-obs"

#: Stack frames beyond this depth are folded into a "..." marker.
MAX_DEPTH = 64

#: Span tag used for samples taken while the thread had no open span.
NO_SPAN = "(no span)"


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = code.co_filename
    # Shorten absolute paths to the last two components: enough to
    # disambiguate repro modules without machine-specific prefixes.
    parts = filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else filename
    return f"{code.co_name} ({short}:{frame.f_lineno})"


class SamplingProfiler:
    """Samples all threads' stacks at ``hz`` from a daemon thread.

    ``recorder`` supplies the span attribution (default: the active
    recorder when tracing is enabled).  Samples accumulate in
    ``self.samples`` as ``Counter[(span, stack_tuple)]`` with stacks
    root-first; ``nsamples`` counts total samples taken and
    ``duration`` the profiled wall time.
    """

    def __init__(self, hz: float = 200.0, recorder: Recorder | None = None):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = float(hz)
        self.recorder = recorder
        self.samples: Counter = Counter()
        self.nsamples = 0
        self.duration = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._t0 = 0.0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self.recorder is None and is_enabled():
            self.recorder = get_recorder()
        self._stop.clear()
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name=f"{_OBSERVER_PREFIX}-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.duration += time.perf_counter() - self._t0
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sampling -------------------------------------------------------
    def _run(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        while not self._stop.wait(interval):
            self._sample_once(own)

    def _sample_once(self, own_ident: int) -> None:
        names = {t.ident: t.name for t in threading.enumerate()}
        rec = self.recorder
        for ident, frame in sys._current_frames().items():
            if ident == own_ident:
                continue
            name = names.get(ident, "")
            if name.startswith(_OBSERVER_PREFIX):
                continue
            stack = []
            depth = 0
            while frame is not None and depth < MAX_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if frame is not None:
                stack.append("...")
            stack.reverse()  # root-first, the folded-stack convention
            span = rec.open_span_name(ident) if rec is not None else None
            self.samples[(span or NO_SPAN, tuple(stack))] += 1
            self.nsamples += 1

    # -- views ----------------------------------------------------------
    def collapsed(self, with_span_root: bool = True) -> str:
        """Folded-stack lines for flamegraph.pl / speedscope.

        With ``with_span_root`` (default) each stack is rooted at a
        synthetic ``span:<name>`` frame, so the flamegraph groups by
        pipeline stage before it groups by call path.
        """
        lines = []
        for (span, stack), count in sorted(self.samples.items()):
            frames = (f"span:{span}", *stack) if with_span_root else stack
            lines.append(";".join(frames) + f" {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def self_time(self) -> list[dict]:
        """Per-(span, leaf function) self-sample rows, heaviest first.

        A frame's *self* samples are the ones where it was the innermost
        frame — the function actually on the CPU (or holding the GIL)
        when the sampler fired.
        """
        leaves: Counter = Counter()
        for (span, stack), count in self.samples.items():
            leaf = stack[-1] if stack else "(unknown)"
            leaves[(span, leaf)] += count
        total = self.nsamples or 1
        return [
            {
                "span": span,
                "func": leaf,
                "samples": count,
                "pct": 100.0 * count / total,
                "est_s": count / self.hz,
            }
            for (span, leaf), count in leaves.most_common()
        ]

    def table(self, top: int = 20) -> str:
        """ASCII top-``top`` self-time table."""
        rows = [
            [r["func"], r["span"], r["samples"], f"{r['pct']:.1f}%",
             f"{r['est_s'] * 1e3:.1f}"]
            for r in self.self_time()[:top]
        ]
        title = (
            f"Profile: {self.nsamples} samples at {self.hz:.0f} Hz "
            f"over {self.duration:.2f}s"
        )
        if not rows:
            return title + "\n(no samples; the profiled section was too short)"
        return render_table(
            ["self (function)", "span", "samples", "self %", "est ms"],
            rows, title,
        )

    def to_dict(self, top: int = 30) -> dict:
        """JSON-safe digest embedded in run manifests and the HTML
        report: sampling metadata plus the top-``top`` self-time rows."""
        return {
            "hz": self.hz,
            "duration_s": self.duration,
            "nsamples": self.nsamples,
            "top": [
                {k: (round(v, 4) if isinstance(v, float) else v)
                 for k, v in row.items()}
                for row in self.self_time()[:top]
            ],
        }


def profiled(hz: float = 200.0, recorder: Recorder | None = None) -> SamplingProfiler:
    """Context-manager sugar: ``with profiled(200) as prof: ...``."""
    return SamplingProfiler(hz=hz, recorder=recorder)

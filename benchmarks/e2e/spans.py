"""In-memory spans and counts recorded by the benchmark's own driver.

The program under test is not instrumented (``repro.obs`` stays off):
the driver wraps each call into a layer's public function in a span —
name, start, end, parent, pass id — kept in a list and summarised when
the run ends.  A pass span holds the layer spans; what is left of it
after the spans directly under it is the driver's own time,
``bench.other_s``.  ``fastest_quarter`` is the statistic behind
``wall_s``.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from statistics import mean, median

PASS = "pass"


def fastest_quarter(walls) -> float:
    """Mean of the fastest quarter of a run's pass times: ``wall_s``.

    On a shared sandbox the disturbance is one-sided — a neighbour only
    ever adds time — and comes in phases of seconds during which every
    pass takes up to 1.5x as long, so the median of a run moves with
    however many of its passes a phase hit.  Over ten runs on such a
    host the medians spread 6-23% of their median, this statistic
    3-15%; on a quiet host both spread 3-5% (README, "Noise").  The
    median and quartiles stay in the record.
    """
    walls = sorted(walls)
    return mean(walls[: math.ceil(len(walls) / 4)])


class Tracer:
    """Records spans; ``on`` tells a workload to run its pass step by
    step through the layers' public functions."""

    on = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._pass_id = -1  # -1: outside any pass (set-up, extras)

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self._pass_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def one_pass(self, pass_id: int):
        self._pass_id = pass_id
        try:
            with self.span(PASS):
                yield
        finally:
            self._pass_id = -1

    def count(self, name: str, value) -> None:
        """Exact work count of a layer; the last value wins, so a count
        taken on every pass must repeat."""
        self.counts[name] = value

    # -- summaries -------------------------------------------------------
    def pass_ids(self) -> list[int]:
        return sorted({s["pass"] for s in self.spans if s["pass"] >= 0})

    def busy(self, name: str, pass_id: int) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["pass"] == pass_id
        )

    def calls(self, name: str, pass_id: int) -> int:
        return sum(
            1 for s in self.spans if s["name"] == name and s["pass"] == pass_id
        )

    def median_busy(self, name: str) -> float:
        """Median over the traced passes of the summed span time; a span
        recorded outside the passes (an extra) is summed as it is."""
        ids = self.pass_ids()
        in_passes = [self.busy(name, i) for i in ids]
        if any(in_passes):
            return median(in_passes)
        return self.busy(name, -1)

    def median_calls(self, name: str) -> int:
        ids = self.pass_ids()
        return int(median([self.calls(name, i) for i in ids])) if ids else 0

    def top_layers(self) -> list[str]:
        """Names of the spans opened directly under a pass span; spans
        nested deeper are parts of these and must not be summed again."""
        return sorted(
            {
                s["name"]
                for s in self.spans
                if s["parent"] is not None and self.spans[s["parent"]]["name"] == PASS
            }
        )


class NullTracer:
    """Tracing off: the pass runs the way a user's call does."""

    on = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def one_pass(self, pass_id: int):
        return self._null

    def count(self, name: str, value) -> None:
        pass

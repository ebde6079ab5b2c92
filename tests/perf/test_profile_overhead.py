"""Acceptance: 200 Hz sampling costs <= 5% on the CANN1072 pipeline.

The profiler's design claim is "no sys.settrace, no bytecode hooks, so
the profiled code runs at native speed" — this test holds it to the
number the docs quote.  The workload is the full prepare+partition
pipeline on CANN1072 (the largest Harwell-Boeing matrix in the paper's
set).  How it is timed is what keeps the 5% bar decidable on a shared
two-CPU host, where an *unprofiled* one-second unit spreads +-12% and
slow stretches come and go:

* **Calibrated.**  The repeat count comes from a timed warm-up, so each
  arm of a round is at least a second of work however fast the pipeline
  is.
* **Interleaved run by run.**  Within a round the arms alternate plain
  run, profiled run, profiled, plain, ... so a slow stretch hits both
  alike and cancels in the round's ratio; the profiled arm pays a
  profiler start/stop in every slice, so the figure errs high.
* **Median of the per-round ratios**, not best-of-N per arm: min vs min
  compares the luckiest plain unit with the luckiest profiled one,
  seconds apart.  The median is taken over the latest ``WINDOW`` rounds,
  so a disturbed stretch at the start ages out; rounds continue until
  that median is within the bar (pass) or ``MAX_ROUNDS`` is reached
  (fail — a profiler that really costs 10% never gets a window through).
* **In a fresh interpreter, on one CPU.**  The sampler walks every
  thread's stack, and under pytest the main thread's is ~40 frames
  deeper than under ``python -m repro profile`` — per-sample cost the
  docs' claim is not about — so the measurement is this module run as a
  script.  It pins itself to one CPU as ``benchmarks/e2e/child.py`` does
  for the mpsim threads, and for the same reason: every sample hands the
  interpreter lock to the sampler and back, and across two virtual CPUs
  of a shared host that hand-over waits on the hypervisor, not on the
  profiler (benchmarks/e2e/README.md, "Noise").
"""

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

import pytest

from repro.core import partition_prepared, prepare
from repro.obs.profile import SamplingProfiler
from repro.sparse import load

HZ = 200.0
OVERHEAD_BAR = 0.05

#: Each arm of a round is at least this much work against timer jitter
#: and scheduler quanta; the repeat count follows from a warm-up timing.
UNIT_SECONDS = 1.0
WINDOW, MAX_ROUNDS = 7, 30


def _pipeline(graph, repeats=1):
    for _ in range(repeats):
        prepared = prepare(graph, ordering="mmd", name="CANN1072")
        partition_prepared(prepared, grain=4, min_width=4)


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _profiled(graph):
    prof = SamplingProfiler(hz=HZ)
    prof.start()
    try:
        _pipeline(graph)
    finally:
        prof.stop()


def measure_overhead() -> dict:
    """Interleaved rounds until the median profiled/plain ratio of the
    latest ``WINDOW`` rounds is within the bar, or ``MAX_ROUNDS``."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    graph = load("CANN1072")
    _pipeline(graph)  # warm caches, imports, allocator
    per_run = min(_timed(_pipeline, graph) for _ in range(5))
    repeats = math.ceil(UNIT_SECONDS / per_run)
    ratios = []
    while len(ratios) < MAX_ROUNDS:
        gc.collect()  # don't let one round inherit the last one's garbage
        t_plain = t_prof = 0.0
        for k in range(repeats):
            if k % 2:
                t_prof += _timed(_profiled, graph)
                t_plain += _timed(_pipeline, graph)
            else:
                t_plain += _timed(_pipeline, graph)
                t_prof += _timed(_profiled, graph)
        ratios.append(t_prof / t_plain)
        if len(ratios) >= WINDOW and _overhead(ratios) <= OVERHEAD_BAR:
            break
    return {"repeats": repeats, "unit_s": t_plain, "ratios": ratios}


def _overhead(ratios) -> float:
    return statistics.median(ratios[-WINDOW:]) - 1.0


@pytest.mark.slow
def test_sampling_overhead_under_five_percent():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    child = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600
    )
    assert child.returncode == 0, child.stderr
    run = json.loads(child.stdout)
    overhead = _overhead(run["ratios"])
    assert overhead <= OVERHEAD_BAR, (
        f"sampling at {HZ:.0f} Hz cost {100 * overhead:.1f}% (median of the "
        f"last {WINDOW} of {len(run['ratios'])} interleaved rounds of "
        f"{run['repeats']} runs per arm, {run['unit_s']:.2f}s; ratios "
        + ", ".join(f"{r:.3f}" for r in run["ratios"])
        + f") — bar is {100 * OVERHEAD_BAR:.0f}%"
    )


@pytest.mark.slow
def test_profiler_actually_sampled_the_pipeline():
    graph = load("CANN1072")
    prof = SamplingProfiler(hz=HZ)
    prof.start()
    try:
        _pipeline(graph, repeats=8)
    finally:
        prof.stop()
    # ~0.5s of work at 200 Hz: even heavily descheduled CI gets dozens.
    assert prof.nsamples >= 10
    # Samples hit our pipeline code, not just the interpreter: frame
    # labels shorten paths to their last two components.
    funcs = " ".join(r["func"] for r in prof.self_time())
    assert any(mod in funcs for mod in
               ("core/", "ordering/", "symbolic/", "sparse/"))


if __name__ == "__main__":
    print(json.dumps(measure_overhead()))

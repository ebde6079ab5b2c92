"""Acceptance: the vectorized kernel beats the reference >= 5x.

Measured on the largest generator matrix the benchmarks use
(``band_lower_pattern(4500, 32)``, ~2.3M pair updates): the reference
walks 4500 columns in Python while the vectorized path does a fixed
number of numpy passes, so the ratio is structural, not machine-tuned.
Best-of-3 on both sides keeps a contended host from polluting either
number, and the exact-equality assertion makes this the required
"identical UpdateSet on the benchmark matrix" check as well.
"""

import time

import numpy as np
import pytest

from repro.ordering import multiple_minimum_degree, multiple_minimum_degree_reference
from repro.sparse import band_graph, band_lower_pattern
from repro.symbolic import enumerate_updates, enumerate_updates_reference

#: Keep in sync with benchmarks/bench_updates_vectorized.py.
BENCH_BAND_N, BENCH_BAND_W = 4500, 32


def best_of(fn, pattern, rounds=3):
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn(pattern)
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.slow
def test_vectorized_5x_on_benchmark_band_matrix():
    pattern = band_lower_pattern(BENCH_BAND_N, BENCH_BAND_W)
    t_ref, ref = best_of(enumerate_updates_reference, pattern)
    t_fast, fast = best_of(enumerate_updates, pattern)

    np.testing.assert_array_equal(fast.target, ref.target)
    np.testing.assert_array_equal(fast.source_i, ref.source_i)
    np.testing.assert_array_equal(fast.source_j, ref.source_j)
    np.testing.assert_array_equal(fast.source_col, ref.source_col)

    speedup = t_ref / t_fast
    assert speedup >= 5.0, (
        f"vectorized enumerate_updates only {speedup:.1f}x faster than the "
        f"reference ({t_fast:.3f}s vs {t_ref:.3f}s, best of 3)"
    )


def test_sweep_staged_reuse_runs_shared_stages_once_per_group():
    """Staged reuse runs the processor-count-invariant stages once per
    (matrix, grain) where the per-cell sweep runs them once per cell.

    The grid measures every partition under four processor counts
    spanning the paper's 16-1024 range.  What reuse buys is structural —
    how often each stage executes — so that is what is asserted, from
    the stage counters of one traced sweep per mode (no disk cache, so
    every execution is counted); a wall-clock ratio between the modes
    only measures how expensive the per-cell metrics happen to be.  The
    record-list equality makes this the value-identity check on the
    benchmark grid as well.
    """
    from repro.obs import trace as obs
    from repro.perf import sweep

    procs, grains = (16, 64, 256, 1024), (4, 25)
    grid = dict(schemes=("block", "wrap"), procs=procs, grains=grains,
                min_widths=(4,))
    with obs.enabled() as per_cell:
        reference = sweep(["LAP30"], reuse=False, **grid)
    with obs.enabled() as staged:
        fast = sweep(["LAP30"], reuse=True, **grid)

    assert fast == reference
    cells = len(reference)
    block_cells = len(procs) * len(grains)
    assert cells == block_cells + len(procs)

    def stage(rec, name):
        return rec.counters.get(f"pipeline.stage.{name}", 0)

    for name in ("partition", "dependencies"):
        assert stage(per_cell, name) == block_cells
        assert stage(staged, name) == len(grains)
    for rec in (per_cell, staged):
        assert stage(rec, "schedule") == cells
        assert stage(rec, "metrics") == cells
        # One matrix, one UpdateSet: the read index is memoised on it,
        # so even the per-cell path sorts the read list only once.
        assert stage(rec, "read_index") == 1
    groups = len(grains) + 1  # one per block grain, one for wrap
    assert staged.counters["perf.sweep.reuse.hit"] == cells - groups
    assert "perf.sweep.reuse.hit" not in per_cell.counters


@pytest.mark.slow
def test_mmd_5x_on_benchmark_band_graph():
    """The bitset MMD beats the set-based reference >= 5x on the same
    benchmark band matrix, returning the identical permutation."""
    graph = band_graph(BENCH_BAND_N, BENCH_BAND_W)
    t_ref, ref = best_of(multiple_minimum_degree_reference, graph, rounds=2)
    t_fast, fast = best_of(multiple_minimum_degree, graph, rounds=3)

    np.testing.assert_array_equal(fast, ref)
    speedup = t_ref / t_fast
    assert speedup >= 5.0, (
        f"bitset MMD only {speedup:.1f}x faster than the reference "
        f"({t_fast:.3f}s vs {t_ref:.3f}s)"
    )

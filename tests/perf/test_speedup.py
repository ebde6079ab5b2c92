"""Acceptance: the vectorized kernel beats the per-column oracle >= 5x.

Measured on the largest generator matrix the benchmarks use
(``band_lower_pattern(4500, 32)``, ~2.3M pair updates): the oracle
walks 4500 columns in Python while the run enumeration and its
expansion into the four element-level arrays do a fixed number of numpy
passes, so the ratio is structural, not machine-tuned.  Best-of-3 on
both sides keeps a contended host from polluting either number, and the
exact-equality assertion makes this the required "identical updates on
the benchmark matrix" check as well.
"""

import time

import numpy as np
import pytest

from repro.ordering import multiple_minimum_degree
from repro.sparse import band_graph, band_lower_pattern
from repro.symbolic import enumerate_updates

from ..ordering.oracles import multiple_minimum_degree_reference
from ..symbolic.oracles import enumerate_updates_oracle

#: The largest generator problem the suite enumerates.
BENCH_BAND_N, BENCH_BAND_W = 4500, 32


def best_of(fn, pattern, rounds=3):
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn(pattern)
        best = min(best, time.perf_counter() - t0)
    return best, result


def enumerate_and_expand(pattern):
    updates = enumerate_updates(pattern)
    for name in ("target", "source_i", "source_j", "source_col"):
        getattr(updates, name)
    return updates


@pytest.mark.slow
def test_vectorized_5x_on_benchmark_band_matrix():
    pattern = band_lower_pattern(BENCH_BAND_N, BENCH_BAND_W)
    t_ref, ref = best_of(enumerate_updates_oracle, pattern)
    t_fast, fast = best_of(enumerate_and_expand, pattern)

    np.testing.assert_array_equal(fast.target, ref.target)
    np.testing.assert_array_equal(fast.source_i, ref.source_i)
    np.testing.assert_array_equal(fast.source_j, ref.source_j)
    np.testing.assert_array_equal(fast.source_col, ref.source_col)

    speedup = t_ref / t_fast
    assert speedup >= 5.0, (
        f"vectorized enumerate_updates only {speedup:.1f}x faster than the "
        f"oracle ({t_fast:.3f}s vs {t_ref:.3f}s, best of 3)"
    )


def test_sweep_staged_reuse_runs_shared_stages_once_per_group():
    """The sweep runs the processor-count-invariant stages once per
    (matrix, grain) group, the scheduler and the metrics once per cell.

    The grid measures every partition under four processor counts
    spanning the paper's 16-1024 range.  What grouping buys is
    structural — how often each stage executes — so that is what is
    asserted, in absolute counts, from the stage counters and spans of
    one traced sweep (no disk cache, so every execution is counted).
    """
    from repro.obs import trace as obs
    from repro.perf import sweep

    procs, grains = (16, 64, 256, 1024), (4, 25)
    grid = dict(schemes=("block", "wrap"), procs=procs, grains=grains,
                min_widths=(4,))
    with obs.enabled() as rec:
        records = sweep(["LAP30"], **grid)

    cells = len(records)
    block_groups = len(grains)
    assert cells == len(procs) * (block_groups + 1)

    def stage(name):
        return rec.counters.get(f"pipeline.stage.{name}", 0)

    for name in ("partition", "dependencies"):
        assert stage(name) == block_groups
        assert len(rec.spans_named(f"pipeline.{name}")) == block_groups
    assert stage("schedule") == cells
    assert stage("metrics") == cells
    groups = block_groups + 1  # one per block grain, one for wrap
    assert rec.counters["perf.sweep.reuse.hit"] == cells - groups


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

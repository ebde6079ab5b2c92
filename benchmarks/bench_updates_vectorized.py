"""Run enumeration vs its expansion into the element-level arrays.

The band matrix is the largest generator problem in the suite and the
regime the vectorized kernel targets: many columns of moderate degree.
``enumerate_updates`` stores one target per run (a pair of rows of a
supernode's first column); the mapping path reads nothing else, while
the numeric executors expand the four per-pair arrays.  The >= 5x
acceptance test against the per-column oracle is
tests/perf/test_speedup.py.
"""

import pytest

from repro.sparse import band_lower_pattern, grid9
from repro.symbolic import enumerate_updates, symbolic_cholesky

#: Largest generator matrix in the benchmarks; the speedup acceptance
#: test measures exactly this problem (keep the two in sync).
BAND_N, BAND_W = 4500, 32


@pytest.fixture(scope="module")
def band_pattern():
    return band_lower_pattern(BAND_N, BAND_W)


@pytest.fixture(scope="module")
def grid_pattern():
    return symbolic_cholesky(grid9(40, 40)).pattern


def _expanded(pattern):
    updates = enumerate_updates(pattern)
    for name in ("target", "source_i", "source_j", "source_col"):
        getattr(updates, name)
    return updates


def test_bench_runs_band(benchmark, band_pattern):
    ups = benchmark(lambda: enumerate_updates(band_pattern))
    assert ups.num_pair_updates > 1_000_000


def test_bench_expanded_band(benchmark, band_pattern):
    ups = benchmark.pedantic(lambda: _expanded(band_pattern), rounds=3, iterations=1)
    assert ups.num_pair_updates > 1_000_000


def test_bench_runs_grid(benchmark, grid_pattern):
    ups = benchmark(lambda: enumerate_updates(grid_pattern))
    assert ups.num_pair_updates > 0


def test_bench_expanded_grid(benchmark, grid_pattern):
    ups = benchmark.pedantic(lambda: _expanded(grid_pattern), rounds=3, iterations=1)
    assert ups.num_pair_updates > 0

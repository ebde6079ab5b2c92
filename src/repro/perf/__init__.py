"""repro.perf — the sweep loop as the unit of optimization.

Three pieces make repeated pipeline evaluations cheap:

* :mod:`repro.perf.cache` — content-addressed, versioned disk caches
  for :func:`repro.core.pipeline.prepare` results (ordering + symbolic
  factorization; ``perf.cache.hit``/``perf.cache.miss`` counters) and
  for the partition/dependency stage
  (``perf.cache.partition.*`` counters);
* :mod:`repro.perf.sweep` — the one parameter-grid runner: cells
  sharing a (matrix, scheme, grain, width) run as one group that
  partitions once and schedules + measures every processor count,
  fanned out over a process pool; records export as CSV;
* :mod:`repro.perf.bench` — the per-stage timing harness behind
  ``BENCH_pipeline.json`` and the CI smoke-bench step; its regression
  gate lives in :mod:`repro.obs.runs`.

See ``docs/performance.md``.
"""

from .bench import bench_pipeline, render_bench
from .cache import (
    CACHE_VERSION,
    PartitionCache,
    PrepareCache,
    cached_partition,
    cached_prepare,
    default_cache_dir,
    partition_key,
    prepare_key,
)
from .sweep import (
    SweepGroup,
    SweepRecord,
    SweepTask,
    build_grid,
    group_grid,
    records_to_csv,
    sweep,
)

__all__ = [
    "CACHE_VERSION",
    "PartitionCache",
    "PrepareCache",
    "cached_partition",
    "cached_prepare",
    "default_cache_dir",
    "partition_key",
    "prepare_key",
    "SweepGroup",
    "SweepRecord",
    "SweepTask",
    "build_grid",
    "group_grid",
    "records_to_csv",
    "sweep",
    "bench_pipeline",
    "render_bench",
]

"""Parallel parameter sweeps over the mapping pipeline.

The paper's methodology is a grid of (scheme, grain, width, processor
count) cells measured over a fixed sparsity structure.  Most of the
pipeline is invariant across that grid, so this module splits the work
along the invariance boundaries:

1. every distinct matrix is prepared **once** (ordering + symbolic) and
   shared through the :mod:`repro.perf.cache` disk cache;
2. cells are grouped into one :class:`SweepGroup` per (matrix, scheme,
   grain, min_width): the partition/dependency/unit-work stage runs once
   per group (disk-cached via :func:`repro.perf.cache.cached_partition`
   when a cache directory is in play) and only the scheduler and the
   metrics run per ``nprocs`` — a cell is a group of one;
3. groups fan out over a :class:`concurrent.futures` process pool
   (``jobs`` workers), each worker loading the shared prepared matrix
   from the cache on its first task;
4. results come back as :class:`SweepRecord` rows in deterministic grid
   order, so ``jobs=8`` and ``jobs=1`` are value-identical;
   :func:`records_to_csv` is the CSV output format.

A failed group is retried once in the parent process; if the retry fails
too, :func:`sweep` raises with the failing group's label — results are
never silently dropped.

Observability: the fan-out runs under a ``perf.sweep.run`` span and
every group — serial or in a worker — runs under a real
``perf.sweep.group`` span.  When the parent is
tracing, each worker snapshots its recorder into a
:class:`repro.obs.shard.RecorderShard` (spilled to a file above a size
threshold) that the parent merges back: worker spans land on per-pid
lanes with epoch-aligned timestamps, worker counters accumulate into
the parent's, and the parent synthesizes ``pool.queue_wait`` spans
(submit -> worker start) per unit plus one ``pool.utilization`` span
per worker lane.  Each finished unit also lands as a ``perf.sweep``
timeline event, and pool efficiency is reported via the
``perf.sweep.pool_utilization`` gauge.  Per-unit wall times and queue
waits also land in fixed-bucket histograms (``perf.sweep.unit_ms``,
``perf.sweep.queue_wait_ms``) so their p50/p90/p99 survive aggregation,
and each worker runs under a :class:`repro.obs.memory.MemoryMonitor`
when RSS is readable, so worker spans carry ``mem_peak_mb`` and worker
RSS samples merge onto the parent's timeline.  A worker that fails
mid-task
drains its open span stack into the shard (the in-flight span is
recorded with its error, never dropped) and ships the shard home on the
exception before the parent retries.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

from ..core.pipeline import (
    MappingResult,
    PartitionedMatrix,
    PreparedMatrix,
    adaptive_block_mapping,
    block_mappings,
    partition_prepared,
    prepare,
    wrap_mappings,
)
from ..obs import shard as obs_shard
from ..obs import trace as obs
from ..obs.memory import MemoryMonitor, memory_enabled
from ..sparse import registry
from ..sparse.dtypes import as_processor_count
from .cache import cached_partition, cached_prepare

__all__ = [
    "SweepGroup",
    "SweepRecord",
    "SweepTask",
    "SweepWorkerError",
    "build_grid",
    "group_grid",
    "records_to_csv",
    "sweep",
]


class SweepWorkerError(RuntimeError):
    """A sweep unit failed inside a worker process.

    Carries the unit's label, the formatted worker traceback, and the
    worker's stats dict — including its recorder shard, so the failed
    attempt's spans still reach the merged trace.  All state rides in
    ``args`` so the exception survives the pool's pickle round-trip.
    """

    def __init__(self, label: str, worker_traceback: str, stats: dict):
        super().__init__(label, worker_traceback, stats)
        self.label = label
        self.worker_traceback = worker_traceback
        self.stats = stats

    def __str__(self) -> str:
        return f"sweep unit {self.label!r} failed in worker:\n{self.worker_traceback}"

_SCHEMES = ("block", "block-adaptive", "wrap")


@dataclass(frozen=True)
class SweepRecord:
    """One measured cell of a sweep."""

    matrix: str
    scheme: str
    nprocs: int
    grain: int | None
    min_width: int | None
    traffic_total: int
    traffic_mean: float
    work_max: int
    imbalance: float
    units: int | None

    @classmethod
    def fields(cls) -> list[str]:
        return [
            "matrix", "scheme", "nprocs", "grain", "min_width",
            "traffic_total", "traffic_mean", "work_max", "imbalance", "units",
        ]


def _record(prepared, result: MappingResult, nprocs, grain, width) -> SweepRecord:
    return SweepRecord(
        matrix=prepared.name,
        scheme=result.scheme,
        nprocs=nprocs,
        grain=grain,
        min_width=width,
        traffic_total=result.traffic.total,
        traffic_mean=result.traffic.mean,
        work_max=result.balance.max,
        imbalance=result.balance.imbalance,
        units=result.partition.num_units if result.partition else None,
    )


def records_to_csv(records: list[SweepRecord], target=None) -> str:
    """Write records as CSV; returns the text (and writes to ``target``
    path/handle when given)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SweepRecord.fields())
    for r in records:
        writer.writerow([getattr(r, f) for f in SweepRecord.fields()])
    text = buf.getvalue()
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as fh:
                fh.write(text)
    return text


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep grid (picklable, resolved inside workers)."""

    matrix: str
    scheme: str
    nprocs: int
    grain: int | None
    min_width: int | None
    ordering: str = "mmd"

    def label(self) -> str:
        bits = [self.matrix, self.scheme, f"P={self.nprocs}"]
        if self.grain is not None:
            bits.append(f"g={self.grain}")
        return " ".join(bits)


@dataclass(frozen=True)
class SweepGroup:
    """All cells sharing one (matrix, scheme, grain, width) stage chain.

    ``procs`` are the group's processor counts in grid order and
    ``indices`` the matching positions in the flat task list, so a
    group's records scatter back into grid order.
    """

    matrix: str
    scheme: str
    grain: int | None
    min_width: int | None
    ordering: str
    procs: tuple[int, ...]
    indices: tuple[int, ...]

    def label(self) -> str:
        bits = [self.matrix, self.scheme]
        if self.grain is not None:
            bits.append(f"g={self.grain}")
        bits.append("P=" + ",".join(str(p) for p in self.procs))
        return " ".join(bits)


def build_grid(
    matrices,
    schemes=("block", "wrap"),
    procs=(4, 16, 32),
    grains=(4, 25),
    min_widths=(4,),
    ordering: str = "mmd",
) -> list[SweepTask]:
    """Expand a parameter grid, processor counts outermost; wrap ignores
    grain/min_width."""
    for s in schemes:
        if s not in _SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; expected one of {_SCHEMES}")
    for m in matrices:
        if m not in registry.matrix_names():
            raise ValueError(
                f"unknown matrix {m!r}; expected one of "
                f"{registry.matrix_names()}"
            )
    # Refused here, before any group runs (and before a worker's error
    # would come back wrapped in the retry's RuntimeError).
    for what, values in (("procs", procs), ("grains", grains), ("min_widths", min_widths)):
        for value in values:
            as_processor_count(value, what)
        # An empty axis drops its cells silently (grains, min_widths: block cells only).
        if not values and (what == "procs" or any(s != "wrap" for s in schemes)):
            raise ValueError(f"{what} must not be empty")
    tasks: list[SweepTask] = []
    for matrix in matrices:
        for nprocs in procs:
            for scheme in schemes:
                if scheme == "wrap":
                    tasks.append(SweepTask(matrix, scheme, nprocs, None, None, ordering))
                    continue
                for grain in grains:
                    for width in min_widths:
                        tasks.append(
                            SweepTask(matrix, scheme, nprocs, grain, width, ordering)
                        )
    return tasks


def group_grid(tasks: list[SweepTask]) -> list[SweepGroup]:
    """Group grid cells by their nprocs-invariant stage parameters.

    Cells differing only in processor count share ordering, symbolic
    factorization, partitioning and dependency analysis; one group is
    one unit of parallel work.
    """
    order: list[tuple] = []
    members: dict[tuple, list[tuple[int, SweepTask]]] = {}
    for index, task in enumerate(tasks):
        key = (task.matrix, task.scheme, task.grain, task.min_width, task.ordering)
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append((index, task))
    groups = []
    for key in order:
        matrix, scheme, grain, width, ordering = key
        cells = members[key]
        groups.append(
            SweepGroup(
                matrix=matrix,
                scheme=scheme,
                grain=grain,
                min_width=width,
                ordering=ordering,
                procs=tuple(t.nprocs for _, t in cells),
                indices=tuple(i for i, _ in cells),
            )
        )
    return groups


# ----------------------------------------------------------------------
# task execution (runs in workers; module-level for picklability)
# ----------------------------------------------------------------------

#: Per-process memo so one worker prepares/loads each matrix only once
#: (the partition stage is memoised on the prepared matrix itself).
_WORKER_PREPARED: dict[tuple[str, str], PreparedMatrix] = {}


def _prepared(
    matrix: str,
    ordering: str,
    cache_dir: str | None,
    memo: dict[tuple[str, str], PreparedMatrix],
) -> PreparedMatrix:
    key = (matrix, ordering)
    if key not in memo:
        graph = registry.load(matrix)
        if cache_dir is None:
            memo[key] = prepare(graph, ordering=ordering, name=matrix)
        else:
            memo[key] = cached_prepare(graph, ordering, matrix, cache_dir)
    return memo[key]


def _partitioned(
    prep: PreparedMatrix, ordering: str, grain: int, min_width: int, cache_dir: str | None
) -> PartitionedMatrix:
    if cache_dir is None:
        return partition_prepared(prep, grain=grain, min_width=min_width)
    return cached_partition(prep, grain, min_width, ordering, cache_dir)


def _measure_group(
    group: SweepGroup,
    cache_dir: str | None,
    memo: dict[tuple[str, str], PreparedMatrix],
) -> list[SweepRecord]:
    """One group: the shared stages once, then every processor count."""
    prep = _prepared(group.matrix, group.ordering, cache_dir, memo)
    if group.scheme == "wrap":
        results = wrap_mappings(prep, group.procs)
    elif group.scheme == "block":
        partitioned = _partitioned(
            prep, group.ordering, group.grain, group.min_width, cache_dir
        )
        results = block_mappings(partitioned, group.procs)
    else:
        # The adaptive partition depends on nprocs: nothing to share.
        results = [
            adaptive_block_mapping(
                prep, nprocs, grain=group.grain, min_width=group.min_width
            )
            for nprocs in group.procs
        ]
    if len(group.procs) > 1:
        # Cells beyond the first ride on the group's shared stages.
        obs.counter("perf.sweep.reuse.hit", len(group.procs) - 1)
    return [
        _record(prep, result, nprocs, group.grain, group.min_width)
        for result, nprocs in zip(results, group.procs)
    ]


def _worker_stats(
    rec: obs.Recorder,
    t0: float,
    t0_unix: float,
    collect: bool,
    spill_dir: str | None,
) -> dict:
    """Snapshot one worker attempt: timings, cache counters, and — when
    the parent is tracing — the full recorder shard (inline or spilled).
    Every open span must be closed/drained before this runs."""
    stats = {
        "elapsed": time.perf_counter() - t0,
        "cache_hit": int(rec.counters.get("perf.cache.hit", 0)),
        "cache_miss": int(rec.counters.get("perf.cache.miss", 0)),
        "reuse_hit": int(rec.counters.get("perf.sweep.reuse.hit", 0)),
        "pid": os.getpid(),
        "t0_unix": t0_unix,
        "t1_unix": time.time(),
        "shard": None,
    }
    if collect:
        stats["shard"] = obs_shard.pack(obs_shard.snapshot(rec), spill_dir)
    return stats


def _run_group(payload) -> tuple[int, list[SweepRecord], dict]:
    """Worker entry: run one group under a scoped recorder.

    Success returns ``(index, records, stats)``.  Failure drains any
    still-open span onto the recorder (recorded with the exception's
    type, not dropped), snapshots stats/shard anyway, and raises
    :class:`SweepWorkerError` carrying both back to the parent.
    """
    index, group, cache_dir, collect, spill_dir = payload
    t0 = time.perf_counter()
    t0_unix = time.time()
    with obs.enabled(obs.Recorder()) as rec:
        # Worker-side memory watermarks: spans pick up mem_peak_mb and
        # the RSS samples ride home in the shard (rebased on merge).
        monitor = MemoryMonitor(rec, interval=0.01) if memory_enabled() else None
        if monitor is not None:
            monitor.start()
        try:
            with obs.span(
                "perf.sweep.group", label=group.label(), cells=len(group.procs)
            ):
                records = _measure_group(group, cache_dir, _WORKER_PREPARED)
            if monitor is not None:
                monitor.stop()
        except Exception as exc:
            if monitor is not None and rec.memory is monitor:
                monitor.stop()
            rec.drain_open_spans(error=type(exc).__name__)
            stats = _worker_stats(rec, t0, t0_unix, collect, spill_dir)
            raise SweepWorkerError(
                group.label(), traceback.format_exc(), stats
            ) from None
    return index, records, _worker_stats(rec, t0, t0_unix, collect, spill_dir)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def sweep(
    matrices,
    schemes=("block", "wrap"),
    procs=(4, 16, 32),
    grains=(4, 25),
    min_widths=(4,),
    ordering: str = "mmd",
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> list[SweepRecord]:
    """Measure every grid cell, fanning out over ``jobs`` processes.

    ``matrices`` is an iterable of registry names (see
    :func:`repro.sparse.registry.matrix_names`).  Cells are grouped per
    (matrix, scheme, grain, width): the nprocs-invariant stages run once
    per group, the scheduler and the metrics once per processor count.
    With ``jobs <= 1`` everything runs in-process; with ``jobs > 1``
    groups are distributed over a process pool, sharing one prepared
    matrix per matrix through the disk cache (an ephemeral cache
    directory is used when ``cache_dir`` is ``None``).  A failed group
    is retried once in the parent; a second failure raises
    :class:`RuntimeError` naming the group.  Records always come back
    in grid order, with the values of the singular drivers
    (:func:`~repro.core.pipeline.block_mapping` and friends) per cell.
    """
    matrices = list(matrices)
    tasks = build_grid(matrices, schemes, procs, grains, min_widths, ordering)
    cache_str = str(cache_dir) if cache_dir is not None else None
    if jobs <= 1:
        return _sweep_serial(tasks, cache_str)
    return _sweep_parallel(matrices, tasks, ordering, jobs, cache_str)


def _sweep_serial(tasks: list[SweepTask], cache_str: str | None) -> list[SweepRecord]:
    memo: dict[tuple[str, str], PreparedMatrix] = {}
    with obs.span("perf.sweep.run", tasks=len(tasks), jobs=1):
        results: list[SweepRecord | None] = [None] * len(tasks)
        for group in group_grid(tasks):
            t0 = time.perf_counter()
            with obs.span(
                "perf.sweep.group", label=group.label(), cells=len(group.procs)
            ):
                group_records = _measure_group(group, cache_str, memo)
            obs.observe("perf.sweep.unit_ms", 1e3 * (time.perf_counter() - t0))
            for index, record in zip(group.indices, group_records):
                results[index] = record
    return _collect(results, tasks)


def _sweep_parallel(
    matrices,
    tasks: list[SweepTask],
    ordering: str,
    jobs: int,
    cache_str: str | None,
) -> list[SweepRecord]:
    tmp = None
    if cache_str is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-sweep-cache-")
        cache_str = tmp.name
    groups = group_grid(tasks)
    # Shard collection is decided once, up front: workers only pay the
    # snapshot/pickle cost when the parent is actually tracing.
    collect = obs.is_enabled()
    rec = obs.get_recorder() if collect else None
    spill_dir = os.path.join(cache_str, "shards") if collect else None
    try:
        with obs.span("perf.sweep.run", tasks=len(tasks), jobs=jobs):
            # Prepare (or re-load) each matrix once up front so workers
            # always find a warm cache entry.
            for matrix in dict.fromkeys(matrices):
                cached_prepare(registry.load(matrix), ordering, matrix, cache_str)
            t_epoch = time.perf_counter()
            pool_unix0 = time.time()
            results: list[SweepRecord | None] = [None] * len(tasks)
            busy = 0.0
            hits = 0
            misses = 0
            reuse_hits = 0
            busy_by_pid: dict[int, float] = {}
            submit_unix: dict[int, float] = {}
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {}
                for i, group in enumerate(groups):
                    submit_unix[i] = time.time()
                    futures[pool.submit(_run_group, (i, group, cache_str, collect, spill_dir))] = i
                for future in as_completed(futures):
                    try:
                        index, payload, stats = future.result()
                    except Exception as exc:
                        # The failed attempt's shard (if it got as far
                        # as snapshotting) still joins the trace ...
                        index = futures[future]
                        failed_stats = getattr(exc, "stats", None)
                        if collect and isinstance(failed_stats, dict):
                            _merge_worker_trace(
                                rec, failed_stats, submit_unix[index],
                                groups[index].label(), index,
                            )
                        # ... then the unit is retried once, in-process;
                        # a second failure raises with the unit's label.
                        t0 = time.perf_counter()
                        payload = _retry_group(groups[index], cache_str)
                        stats = {
                            "elapsed": time.perf_counter() - t0,
                            "cache_hit": 0,
                            "cache_miss": 0,
                            "reuse_hit": 0,
                        }
                        obs.counter("perf.sweep.retries")
                    else:
                        if collect:
                            _merge_worker_trace(
                                rec, stats, submit_unix[index],
                                groups[index].label(), index,
                            )
                        pid = stats.get("pid")
                        if pid is not None:
                            busy_by_pid[pid] = (
                                busy_by_pid.get(pid, 0.0) + stats["elapsed"]
                            )
                    for slot, record in zip(groups[index].indices, payload):
                        results[slot] = record
                    busy += stats["elapsed"]
                    obs.observe("perf.sweep.unit_ms", 1e3 * stats["elapsed"])
                    hits += stats["cache_hit"]
                    misses += stats["cache_miss"]
                    reuse_hits += stats["reuse_hit"]
                    done_at = time.perf_counter() - t_epoch
                    obs.timeline_event(
                        f"sweep {groups[index].label()}",
                        ts=max(0.0, done_at - stats["elapsed"]),
                        dur=stats["elapsed"],
                        lane=index % jobs,
                        track="perf.sweep",
                        index=index,
                    )
            wall = time.perf_counter() - t_epoch
            if collect:
                # One lane-wide utilization span per worker process.
                pool_unix1 = time.time()
                for pid, busy_s in sorted(busy_by_pid.items()):
                    rec.add_span(
                        "pool.utilization",
                        pool_unix0 - rec.epoch_unix,
                        pool_unix1 - rec.epoch_unix,
                        thread=0,
                        pid=pid,
                        args={
                            "busy_s": round(busy_s, 6),
                            "utilization": busy_s / wall if wall > 0 else 0.0,
                        },
                    )
            else:
                # Without shards the summary counters aggregated from
                # worker stats are all that survives.  (With shards the
                # merge already accumulated the real counters; adding
                # these again would double-count.)
                if hits:
                    obs.counter("perf.cache.hit", hits)
                if misses:
                    obs.counter("perf.cache.miss", misses)
                if reuse_hits:
                    obs.counter("perf.sweep.reuse.hit", reuse_hits)
            obs.counter("perf.sweep.tasks", len(tasks))
            obs.gauge("perf.sweep.jobs", jobs)
            obs.gauge(
                "perf.sweep.pool_utilization",
                busy / (jobs * wall) if wall > 0 else 0.0,
            )
        return _collect(results, tasks)
    finally:
        if tmp is not None:
            tmp.cleanup()


def _merge_worker_trace(
    rec: obs.Recorder,
    stats: dict,
    submitted_unix: float,
    label: str,
    index: int,
) -> None:
    """Merge one worker attempt's shard into the parent recorder and
    synthesize its ``pool.queue_wait`` span (submit -> worker start).
    A shard that fails to unpack is counted and dropped — records are
    authoritative, traces are best-effort."""
    payload = stats.get("shard")
    if payload is None:
        return
    try:
        worker_shard = obs_shard.unpack(payload)
    except (OSError, ValueError, pickle.UnpicklingError, EOFError):
        obs.counter("perf.sweep.shard.dropped")
        return
    obs_shard.merge_into(rec, worker_shard)
    lane_thread = worker_shard.spans[0].thread if worker_shard.spans else 0
    q0 = submitted_unix - rec.epoch_unix
    q1 = stats["t0_unix"] - rec.epoch_unix
    if q1 >= q0:
        rec.add_span(
            "pool.queue_wait",
            q0,
            q1,
            thread=lane_thread,
            pid=worker_shard.pid,
            args={"unit": label, "index": index},
        )
        obs.observe("perf.sweep.queue_wait_ms", 1e3 * (q1 - q0))


def _retry_group(group: SweepGroup, cache_str: str | None) -> list[SweepRecord]:
    try:
        return _measure_group(group, cache_str, {})
    except Exception as exc:
        raise RuntimeError(f"sweep group {group.label()!r} failed after retry") from exc


def _collect(
    results: list[SweepRecord | None], tasks: list[SweepTask]
) -> list[SweepRecord]:
    """Assemble grid-order records; a hole means a bug, never drop it."""
    missing = [tasks[i].label() for i, r in enumerate(results) if r is None]
    if missing:
        raise RuntimeError(f"sweep produced no record for: {', '.join(missing)}")
    return results

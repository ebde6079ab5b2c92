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
``perf.sweep.group`` span.  When the parent is tracing, each worker
measures its group under a scoped :class:`repro.obs.trace.Recorder`
with a :class:`repro.obs.memory.MemoryMonitor` attached, and returns
that recorder with the records; the parent merges it with
:meth:`~repro.obs.trace.Recorder.merge`, so worker spans land on
per-pid lanes with epoch-aligned timestamps and worker counters add
into the parent's.  From the merged recorder the parent derives a
``pool.queue_wait`` span per group (submit -> the worker recorder's
epoch), the per-group wall time (its ``perf.sweep.group`` span, also
observed as the ``perf.sweep.unit_ms`` histogram) and, summed per pid,
one ``pool.utilization`` span per worker and the
``perf.sweep.pool_utilization`` gauge.  A group that raises in a worker
comes home as ``records=None`` with its recorder, whose errored
``perf.sweep.group`` span joins the trace before the parent retries.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
import time
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
from ..obs import trace as obs
from ..obs.memory import monitored
from ..sparse import registry
from ..sparse.dtypes import as_processor_count
from .cache import cached_partition, cached_prepare

__all__ = [
    "SCHEMES",
    "SweepGroup",
    "SweepRecord",
    "SweepTask",
    "build_grid",
    "group_grid",
    "records_to_csv",
    "sweep",
]


#: The mapping schemes a sweep cell (and ``explain``) can measure.
SCHEMES = ("block", "block-adaptive", "wrap")


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
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
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


def _run_group(payload) -> tuple[list[SweepRecord] | None, obs.Recorder | None, int]:
    """Worker entry: measure one group.

    Returns ``(records, rec, pid)``.  ``rec`` is the group's own recorder
    when the parent is tracing and ``None`` otherwise; a group that
    raises under tracing returns ``records=None``, and ``rec`` then holds
    its errored ``perf.sweep.group`` span.  The parent retries such a
    group in process.
    """
    group, cache_dir, traced = payload
    if not traced:
        return _measure_group(group, cache_dir, _WORKER_PREPARED), None, os.getpid()
    records = None
    with obs.enabled(obs.Recorder()) as rec, monitored(rec, interval=0.01):
        try:
            with obs.span(
                "perf.sweep.group", label=group.label(), cells=len(group.procs)
            ):
                records = _measure_group(group, cache_dir, _WORKER_PREPARED)
        except Exception:
            pass  # recorded as the span's error; the parent retries
    return records, rec, os.getpid()


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
        return _sweep_serial(tasks, cache_str, {})
    return _sweep_parallel(matrices, tasks, ordering, jobs, cache_str)


def _sweep_serial(
    tasks: list[SweepTask], cache_str: str | None, memo: dict[tuple[str, str], PreparedMatrix]
) -> list[SweepRecord]:
    """The grid in process; a matrix not in ``memo`` is prepared into it."""
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
    # Decided once, up front: workers record only when the parent traces.
    parent = obs.get_recorder() if obs.is_enabled() else None
    try:
        with obs.span("perf.sweep.run", tasks=len(tasks), jobs=jobs):
            # Prepare (or re-load) each matrix once up front so workers
            # always find a warm cache entry.
            for matrix in dict.fromkeys(matrices):
                cached_prepare(registry.load(matrix), ordering, matrix, cache_str)
            t_epoch = time.perf_counter()
            pool_unix0 = time.time()
            results: list[SweepRecord | None] = [None] * len(tasks)
            busy_by_pid: dict[int, float] = {}
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {}
                for i, group in enumerate(groups):
                    payload = (group, cache_str, parent is not None)
                    futures[pool.submit(_run_group, payload)] = (i, time.time())
                for future in as_completed(futures):
                    index, submitted_unix = futures[future]
                    try:
                        records, rec, pid = future.result()
                    except Exception:
                        records = rec = None
                    if rec is not None:
                        _merge_worker(
                            parent, rec, pid, submitted_unix,
                            groups[index].label(), index, busy_by_pid,
                        )
                    if records is None:
                        # Retried once, in-process; a second failure
                        # raises with the group's label.
                        records = _retry_group(groups[index], cache_str)
                        obs.counter("perf.sweep.retries")
                    for slot, record in zip(groups[index].indices, records):
                        results[slot] = record
            wall = time.perf_counter() - t_epoch
            if parent is not None:
                # One lane-wide utilization span per worker process.
                pool_unix1 = time.time()
                for pid, busy_s in sorted(busy_by_pid.items()):
                    parent.add_span(
                        "pool.utilization",
                        pool_unix0 - parent.epoch_unix,
                        pool_unix1 - parent.epoch_unix,
                        thread=0,
                        pid=pid,
                        args={
                            "busy_s": round(busy_s, 6),
                            "utilization": busy_s / wall if wall > 0 else 0.0,
                        },
                    )
            obs.counter("perf.sweep.tasks", len(tasks))
            obs.gauge("perf.sweep.jobs", jobs)
            obs.gauge(
                "perf.sweep.pool_utilization",
                sum(busy_by_pid.values()) / (jobs * wall) if wall > 0 else 0.0,
            )
        return _collect(results, tasks)
    finally:
        if tmp is not None:
            tmp.cleanup()


def _merge_worker(
    parent: obs.Recorder,
    rec: obs.Recorder,
    pid: int,
    submitted_unix: float,
    label: str,
    index: int,
    busy_by_pid: dict[int, float],
) -> None:
    """Merge one worker attempt's recorder into ``parent``, add its
    ``pool.queue_wait`` span (submit -> the worker recorder's epoch) and
    book its ``perf.sweep.group`` time to ``busy_by_pid``."""
    parent.merge(rec, pid)
    q0 = submitted_unix - parent.epoch_unix
    q1 = rec.epoch_unix - parent.epoch_unix
    if q1 >= q0:
        parent.add_span(
            "pool.queue_wait",
            q0,
            q1,
            thread=rec.spans[0].thread if rec.spans else 0,
            pid=pid,
            args={"unit": label, "index": index},
        )
        obs.observe("perf.sweep.queue_wait_ms", 1e3 * (q1 - q0))
    for s in rec.spans_named("perf.sweep.group"):
        busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + s.duration
        obs.observe("perf.sweep.unit_ms", 1e3 * s.duration)


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

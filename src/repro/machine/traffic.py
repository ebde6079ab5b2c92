"""Data-traffic accounting (paper §4).

"The data traffic is defined as a count of all the non-local data
accesses.  Accessing a single non-local element constitutes a unit data
traffic irrespective of the location from where it is fetched.  Once a
data element is fetched, that element is stored locally and subsequent
usage of that element in the local computations does not add to the
data traffic."

Implemented exactly: for each processor, the number of *distinct*
non-local elements read by any update it computes.  One kernel,
:func:`distinct_fetches`, finds those (processor, source element) pairs
for every consumer — :func:`data_traffic`, :func:`communication_matrix`,
the K-cell loop of :mod:`repro.machine.batched`, the message ledger of
:func:`repro.machine.simulate.simulation_messages` and (with units in
the place of processors) the unit DAG of
:func:`repro.machine.simulate.unit_graph` — in O(reads) and without a
sort:

1. the read list (source element, reading element) is assignment
   invariant, so it is materialized and **sorted by source** once per
   :class:`~repro.symbolic.updates.UpdateSet` (:class:`ReadIndex`,
   memoised by :func:`read_index_of`);
2. per assignment, ``proc = owner[reader]`` is one gather; reads of
   elements the reader owns, and reads that repeat their predecessor's
   (source, processor), are dropped by two comparisons;
3. what is left is deduplicated through a *stamp table*: read ``r``
   writes ``r`` into slot ``(source - base) * nprocs + proc`` of an
   uninitialised int32 array, and is the representative of its pair iff
   it reads its own stamp back.  Whichever duplicate's write lands
   last, exactly one read per pair survives, so the count is
   deterministic.

The table is bounded by streaming the read list in source-aligned
chunks (:func:`read_chunk_bounds`): ``src`` is ascending, so a chunk is
a slice, no (processor, source) pair can span two chunks, and the
per-chunk results simply accumulate — bit-identical at every chunk
size.  One setting, ``chunk_reads`` (default
:data:`DEFAULT_CHUNK_READS`, ``$REPRO_BATCH_CHUNK_READS``), bounds both
the reads and the table slots of a chunk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.assignment import Assignment
from ..obs import trace as obs
from ..sparse.dtypes import index_dtype
from ..symbolic.updates import UpdateSet

__all__ = [
    "DEFAULT_CHUNK_READS",
    "TrafficResult",
    "ReadIndex",
    "build_read_index",
    "read_index_of",
    "read_chunk_bounds",
    "distinct_fetches",
    "fetch_counts",
    "fetch_pairs",
    "data_traffic",
    "communication_matrix",
]

#: Reads — and stamp-table slots — per chunk of the kernel.  At the
#: default the table is 4 MB and the per-read temporaries ~15 MB
#: whatever the problem size, which also measured fastest (larger
#: chunks fall out of cache: 4M is 10-15% slower at 1.4M and 11M reads).
#: Override per call or with ``$REPRO_BATCH_CHUNK_READS``.
DEFAULT_CHUNK_READS = 1_000_000


def _chunk_reads_setting(chunk_reads: int | None) -> int:
    """The chunk bound in force: the argument, else the environment,
    else the default.  The stamp table has to be bounded (and its slots
    indexable by int32), so a non-positive value means the default."""
    if chunk_reads is None:
        try:
            chunk_reads = int(os.environ.get("REPRO_BATCH_CHUNK_READS", ""))
        except ValueError:
            chunk_reads = 0
    if chunk_reads <= 0:
        chunk_reads = DEFAULT_CHUNK_READS
    return min(int(chunk_reads), int(np.iinfo(np.int32).max))


@dataclass(frozen=True)
class TrafficResult:
    """Traffic per processor plus the paper's two summary figures."""

    per_processor: np.ndarray

    @property
    def total(self) -> int:
        return int(self.per_processor.sum())

    @property
    def mean(self) -> float:
        return float(self.per_processor.mean())

    @property
    def max(self) -> int:
        return int(self.per_processor.max())


@dataclass(frozen=True)
class ReadIndex:
    """The assignment-invariant read list of a factorization, sorted by
    source element.

    ``src[r]`` is the element id read by the r-th access and
    ``reader[r]`` the element id whose owner performs it (the update's
    target, or the element itself for diagonal/scale reads).  ``src`` is
    ascending, which is what lets :func:`distinct_fetches` stream it in
    slices that never split a source.
    """

    include_scale: bool
    src: np.ndarray
    reader: np.ndarray

    @property
    def num_reads(self) -> int:
        return len(self.src)


def build_read_index(updates: UpdateSet, include_scale: bool = True) -> ReadIndex:
    """Materialize and source-sort the read list of ``updates``.

    Every pair update reads two off-diagonal sources on behalf of its
    target; ``include_scale`` adds one diagonal read per element,
    matching the flag of :func:`data_traffic`.
    """
    edt = index_dtype(updates.pattern.nnz)
    srcs = [updates.source_i, updates.source_j]
    readers = [updates.target, updates.target]
    if include_scale:
        srcs.append(updates.scale_source)
        readers.append(np.arange(updates.pattern.nnz, dtype=edt))
    src = np.concatenate(srcs).astype(edt, copy=False)
    reader = np.concatenate(readers).astype(edt, copy=False)
    order = np.argsort(src, kind="stable")
    return ReadIndex(
        include_scale=include_scale,
        src=np.ascontiguousarray(src[order]),
        reader=np.ascontiguousarray(reader[order]),
    )


def read_index_of(updates: UpdateSet, include_scale: bool = True) -> ReadIndex:
    """The read index of ``updates``, built on first use and kept on the
    instance beside its cached properties — one per ``include_scale``,
    shared by every per-cell and batched measurement of the structure."""
    memo = vars(updates).setdefault("_read_indexes", {})
    index = memo.get(include_scale)
    if index is None:
        with obs.span("pipeline.read_index", include_scale=include_scale):
            index = memo[include_scale] = build_read_index(updates, include_scale)
        obs.counter("pipeline.stage.read_index")
    return index


def read_chunk_bounds(
    src: np.ndarray, chunk_reads: int, max_span: int = 0
) -> list[int]:
    """Chunk boundaries over a source-sorted read list.

    Returns ascending offsets ``[0, ..., len(src)]`` where every chunk
    is at most ``chunk_reads`` long and, when ``max_span`` is positive,
    covers source ids less than ``max_span`` apart — *except* when a
    single source's run of reads is itself longer than ``chunk_reads``:
    runs are never split, because the per-chunk dedup is only correct
    while all reads of one source stay in one chunk.  ``chunk_reads <=
    0`` puts no bound on the length.
    """
    reads = len(src)
    if reads == 0:
        return [0]
    if chunk_reads <= 0:
        chunk_reads = reads
    bounds = [0]
    while bounds[-1] < reads:
        lo = bounds[-1]
        cut = min(lo + chunk_reads, reads)
        if max_span > 0 and int(src[cut - 1]) - int(src[lo]) >= max_span:
            # First read of the first source out of span: a run start,
            # and past ``lo`` because the run at ``lo`` is within span.
            # (The key is given src's dtype, or numpy would convert the
            # whole of src to the key's on every call.)
            limit = src.dtype.type(int(src[lo]) + max_span)
            cut = int(np.searchsorted(src, limit, side="left"))
        if cut < reads:
            # Snap back to the start of the source run straddling the
            # cut; if that run began at (or before) the chunk start,
            # the run is longer than the budget — take it whole.
            run_start = int(np.searchsorted(src, src[cut], side="left"))
            if run_start > lo:
                cut = run_start
            else:
                cut = int(np.searchsorted(src, src[lo], side="right"))
        bounds.append(cut)
    return bounds


def distinct_fetches(
    owner: np.ndarray,
    nprocs: int,
    read_index: ReadIndex,
    chunk_reads: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The distinct non-local (processor, source element) fetches of one
    owner array, chunk by chunk.

    Yields parallel arrays ``(proc, src)`` holding every pair exactly
    once over the whole iteration (sources ascend from chunk to chunk).
    ``owner[e]`` must lie in ``[0, nprocs)`` for every element — an
    :class:`~repro.core.assignment.Assignment` guarantees it, raw arrays
    are checked by :func:`repro.machine.batched.batched_traffic` — since
    an out-of-range owner would alias a neighbouring source's slots.
    """
    owner = np.asarray(owner, dtype=np.int32)
    nprocs = int(nprocs)  # a numpy integer here would widen every key
    slots = _chunk_reads_setting(chunk_reads)
    span = max(1, slots // nprocs)
    src, reader = read_index.src, read_index.reader
    bounds = read_chunk_bounds(src, slots, span)
    # Never initialised: only slots written in a chunk are read back.
    table = np.empty(min(span, len(owner)) * nprocs, dtype=np.int32)
    for lo, hi in zip(bounds, bounds[1:]):
        s = src[lo:hi]
        p = owner[reader[lo:hi]]
        keep = p != owner[s]
        keep[1:] &= (p[1:] != p[:-1]) | (s[1:] != s[:-1])
        p, s = p[keep], s[keep]
        key = (s - src[lo]) * nprocs + p
        stamp = np.arange(len(key), dtype=np.int32)
        table[key] = stamp
        first = table[key] == stamp
        yield p[first], s[first]


def fetch_counts(
    owner: np.ndarray,
    nprocs: int,
    read_index: ReadIndex,
    chunk_reads: int | None = None,
) -> np.ndarray:
    """Distinct non-local fetches per processor for one owner array."""
    counts = np.zeros(nprocs, dtype=np.int64)
    for proc, _src in distinct_fetches(owner, nprocs, read_index, chunk_reads):
        counts += np.bincount(proc, minlength=nprocs)
    return counts


def fetch_pairs(
    owner: np.ndarray, nprocs: int, read_index: ReadIndex
) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct non-local fetch of one owner array as parallel
    int64 arrays ``(proc, src)``, sources ascending — what
    :func:`communication_matrix`, the simulated message ledger and the
    unit DAG of :func:`repro.machine.simulate.unit_graph` (owner = the
    element→unit map) aggregate, so all of them bit-match
    :func:`data_traffic`."""
    chunks = list(distinct_fetches(owner, nprocs, read_index))
    if not chunks:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    proc, src = (np.concatenate(part).astype(np.int64) for part in zip(*chunks))
    return proc, src


def data_traffic(
    assignment: Assignment, updates: UpdateSet, include_scale: bool = True
) -> TrafficResult:
    """Distinct non-local element fetches per processor.

    ``include_scale`` counts the read of the column diagonal during the
    scale update; the pair-update reads are always counted.
    """
    return TrafficResult(
        fetch_counts(
            assignment.owner_of_element,
            assignment.nprocs,
            read_index_of(updates, include_scale),
        )
    )


def communication_matrix(
    assignment: Assignment, updates: UpdateSet, include_scale: bool = True
) -> np.ndarray:
    """C[p, q] = distinct elements owned by q fetched by p (p != q).

    Not a paper metric, but exposes the paper's qualitative hot-spot
    claim: wrap mappings make every processor talk to every other, while
    block mappings confine traffic to small processor groups.
    """
    n = assignment.nprocs
    proc, src = fetch_pairs(
        assignment.owner_of_element, n, read_index_of(updates, include_scale)
    )
    link = proc * n + assignment.owner_of_element[src]
    return np.bincount(link, minlength=n * n).reshape(n, n)

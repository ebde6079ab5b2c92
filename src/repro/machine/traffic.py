"""Data-traffic accounting (paper §4).

"The data traffic is defined as a count of all the non-local data
accesses.  Accessing a single non-local element constitutes a unit data
traffic irrespective of the location from where it is fetched.  Once a
data element is fetched, that element is stored locally and subsequent
usage of that element in the local computations does not add to the
data traffic."

Implemented exactly: for each processor, the number of *distinct*
non-local elements read by any update it computes.  Both of the paper's
mappings own data in *units* (unit blocks; whole columns for wrap), and
the count is taken at the granularity ownership is defined at.  Three
paths, selected by what the :class:`~repro.core.assignment.Assignment`
carries — there is no switch:

**Unit index** (``partition`` set: every block scheme).  A processor
fetches an element iff one of its units reads it, so the stamp kernel
below runs over the partition's unit read index
(:func:`~repro.core.dependencies.unit_read_index`) — the distinct
cross-unit (reader unit, source element) pairs — with ``proc_of_unit``
as the reader's owner.  *Lemma:* in a source's read order the reads by
one unit are adjacent and its own unit's come first, so its readers are
the units of that order minus repeats of the predecessor and minus the
first if it is its own.  *Proof:* element (r, k) is read in its row role
by the targets (r, j), j running up the rows of column k to r; then in
its column role by the targets (i, r), i running from r down the rest of
column k; then, if it is a diagonal, by every element of column k,
itself first.  A unit block is the part of the factor inside a rectangle
of consecutive rows and columns (or, for a triangle, that rectangle's
lower half), so it meets a row, and a column, in one run of consecutive
entries — the source's own unit in the run that starts at the source —
and a unit holding targets of both the row and the column run holds
(r, r), where the first ends and the second begins.  The index is built
by the lemma from the runs, with no read list and no sort.

**Column prefix** (``proc_of_unit`` over columns, no partition: wrap
and block-cyclic).  Let column k have off-diagonal rows r_1 < ... < r_m
and pc[j] be the owner of column j.  Element (r_t, k) is read by the
targets (r_t, r_b), b <= t, and (r_a, r_t), a >= t — columns r_1..r_t —
so processor q fetches it iff q != pc[k] and q is among pc[r_1..r_t], a
prefix; the diagonal is read only inside its own column.  Hence
``fetches[q] = sum over k with pc[k] != q of (m_k - first_k(q) + 1)``,
first_k(q) the first t with pc[r_t] = q: one pass over the nonzeros of
L and no read list at all (:func:`column_fetch_counts`).  The (column,
processor, reach) triples themselves are the P×P matrix of
:func:`communication_matrix` and the wrap message ledger of
:func:`repro.machine.simulate.simulation_messages`; with one processor
per column the same lemma is the column unit DAG of the simulator.

**Element kernel** (neither: 2-D cyclic, arbitrary owners).
:func:`distinct_fetches` finds the distinct (processor, source element)
pairs in O(reads) without a sort; the unit index path runs it too, and
it hands :func:`communication_matrix`, the block message ledger and
(units in the place of processors, for an arbitrary element→unit map)
:func:`repro.machine.simulate.unit_graph` the pairs themselves.  Both
indexes are one :class:`~repro.symbolic.updates.ReadIndex`, a slice of
readers per source element; the element one
(:func:`~repro.symbolic.updates.build_read_index`) is a view of the
updates' reader sequences.  Per chunk of consecutive sources the slices
are expanded and ``proc = reader_owner[reader]`` is one gather; reads
of elements the reader owns, and repeats of the predecessor's (source,
processor), go in two comparisons; the rest is deduplicated through a
*stamp table*: read ``r`` writes ``r`` into slot ``(source - base) *
nprocs + proc`` of an uninitialised int32 array and represents its pair
iff it reads its own stamp back — whichever duplicate's write lands
last, exactly one read per pair survives.  A source is one slice, so no
pair spans two chunks (:func:`source_chunks`) and the per-chunk results
accumulate, bit-identical at every chunk size.  ``chunk_reads`` (default
:data:`DEFAULT_CHUNK_READS`) bounds both the reads and the table slots
of a chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.assignment import Assignment
from ..core.dependencies import unit_read_index
from ..sparse.dtypes import linear_index
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import ReadIndex, UpdateSet, build_read_index

__all__ = [
    "DEFAULT_CHUNK_READS", "TrafficResult", "ReadIndex", "build_read_index",
    "source_chunks", "distinct_fetches", "column_fetch_counts", "fetch_counts",
    "fetch_pairs", "kernel_inputs", "data_traffic", "communication_matrix",
]

#: Reads — and stamp-table slots — per chunk of the kernel.  At the
#: default the table is 4 MB and the per-read temporaries ~15 MB
#: whatever the problem size, which also measured fastest (larger
#: chunks fall out of cache: 4M is 10-15% slower at 1.4M and 11M reads).
DEFAULT_CHUNK_READS = 1_000_000


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


def source_chunks(offsets: np.ndarray, chunk_reads: int, max_span: int) -> list[int]:
    """Source boundaries of the kernel's chunks over an index's
    :attr:`~ReadIndex.offsets`: at most ``max_span`` consecutive sources
    with at most ``chunk_reads`` reads between them, or one source with
    more — whose reads, one slice, never straddle two chunks."""
    bounds, total = [0], int(offsets[-1])
    while bounds[-1] < len(offsets) - 1:
        lo = bounds[-1]
        # A key of the offsets' own dtype: any other would convert them all.
        reach = offsets.dtype.type(min(int(offsets[lo]) + chunk_reads, total))
        fit = int(np.searchsorted(offsets, reach, side="right")) - 1
        bounds.append(max(lo + 1, min(lo + max_span, fit)))
    return bounds


def distinct_fetches(
    owner: np.ndarray,
    nprocs: int,
    read_index: ReadIndex,
    reader_owner: np.ndarray | None = None,
    chunk_reads: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The distinct non-local (processor, source element) fetches of one
    owner array, chunk by chunk.

    Yields parallel arrays ``(proc, src)`` holding every pair exactly
    once over the whole iteration (sources ascend from chunk to chunk).
    ``reader_owner`` maps the index's ``reader`` ids to processors where
    they are not element ids (``proc_of_unit`` for a unit read index).
    Every owner must lie in ``[0, nprocs)`` — the
    :class:`~repro.core.assignment.Assignment` constructor checks it,
    before the ids are narrowed here — since an out-of-range owner would
    alias a neighbouring source's slots.
    """
    owner = np.asarray(owner, dtype=np.int32)
    reader_owner = (
        owner if reader_owner is None else np.asarray(reader_owner, dtype=np.int32)
    )
    nprocs = int(nprocs)  # a numpy integer here would widen every key
    # The stamp table has to be bounded (and its slots indexable by
    # int32), so a missing or non-positive value means the default.
    if chunk_reads is None or chunk_reads <= 0:
        chunk_reads = DEFAULT_CHUNK_READS
    slots = min(int(chunk_reads), int(np.iinfo(np.int32).max))
    span = max(1, slots // nprocs)
    bounds = source_chunks(read_index.offsets, slots, span)
    # Never initialised: only slots written in a chunk are read back.
    table = np.empty(min(span, len(owner)) * nprocs, dtype=np.int32)
    for lo, hi in zip(bounds, bounds[1:]):
        s, r = read_index.reads(lo, hi)
        p = reader_owner[r]
        keep = p != owner[s]
        keep[1:] &= (p[1:] != p[:-1]) | (s[1:] != s[:-1])
        p, s = p[keep], s[keep]
        key = (s - lo) * nprocs + p
        stamp = np.arange(len(key), dtype=np.int32)
        table[key] = stamp
        first = table[key] == stamp
        yield p[first], s[first]


def _column_reads(pattern: LowerPattern) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column-prefix lemma, one entry per off-diagonal element in
    CSC order: column ``reader[e]`` reads the last ``reach[e]`` elements
    of column ``col[e]`` (those from row ``reader[e]`` down)."""
    col = pattern.element_cols()
    eid = np.flatnonzero(pattern.rowidx != col)
    col = col[eid]
    return col, pattern.rowidx[eid], pattern.indptr[col + 1] - eid


def _column_fetches(
    pattern: LowerPattern, proc_of_col: np.ndarray, nprocs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct non-local fetches of a column map, one sort of
    nnz(L) (column, processor) keys: processor ``proc[f]`` fetches the
    last ``reach[f]`` elements of column ``col[f]``, a column it does
    not own, in (column, processor) order."""
    proc_of_col = np.asarray(proc_of_col)
    col, reader, reach = _column_reads(pattern)
    proc = proc_of_col[reader]
    # The first reader on every processor in every column fetches the
    # most; the other readers on that processor read a suffix of it.
    _, at = np.unique(linear_index(col, proc, nprocs), return_index=True)
    at = at[proc[at] != proc_of_col[col[at]]]
    return col[at], proc[at], reach[at]


def column_fetch_counts(
    pattern: LowerPattern, proc_of_col: np.ndarray, nprocs: int
) -> np.ndarray:
    """Distinct non-local fetches per processor when processor
    ``proc_of_col[j]`` owns all of column j: the prefix formula of the
    module docstring."""
    _col, proc, reach = _column_fetches(pattern, proc_of_col, nprocs)
    return np.bincount(proc, weights=reach, minlength=nprocs).astype(np.int64)


def kernel_inputs(
    assignment: Assignment, updates: UpdateSet, include_scale: bool = True
) -> tuple:
    """The arguments ``(owner, nprocs, read_index, reader_owner)`` of
    the stamp kernel for one assignment: over its partition's unit read
    index if it has one, else over the element read index."""
    owner = assignment.owner_of_element
    if assignment.partition is not None and assignment.proc_of_unit is not None:
        index = unit_read_index(assignment.partition, updates, include_scale)
        return owner, assignment.nprocs, index, assignment.proc_of_unit
    return owner, assignment.nprocs, build_read_index(updates, include_scale), None


def fetch_counts(
    owner: np.ndarray,
    nprocs: int,
    read_index: ReadIndex,
    reader_owner: np.ndarray | None = None,
    chunk_reads: int | None = None,
) -> np.ndarray:
    """Distinct non-local fetches per processor for one owner array."""
    counts = np.zeros(nprocs, dtype=np.int64)
    for proc, _src in distinct_fetches(owner, nprocs, read_index, reader_owner, chunk_reads):
        counts += np.bincount(proc, minlength=nprocs)
    return counts


def fetch_pairs(
    owner: np.ndarray,
    nprocs: int,
    read_index: ReadIndex,
    reader_owner: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct non-local fetch of one owner array as parallel
    int64 arrays ``(proc, src)``, sources ascending — what
    :func:`communication_matrix`, the block message ledger (both through
    :func:`kernel_inputs`) and the unit DAG of
    :func:`repro.machine.simulate.unit_graph` (owner = an arbitrary
    element→unit map) aggregate, so all of them bit-match
    :func:`data_traffic`."""
    chunks = list(distinct_fetches(owner, nprocs, read_index, reader_owner))
    if not chunks:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    proc, src = (np.concatenate(part).astype(np.int64) for part in zip(*chunks))
    return proc, src


def data_traffic(
    assignment: Assignment, updates: UpdateSet, include_scale: bool = True
) -> TrafficResult:
    """Distinct non-local element fetches per processor, by the path the
    assignment's unit-level view selects (module docstring).

    ``include_scale`` counts the read of the column diagonal during the
    scale update; the pair-update reads are always counted.
    """
    if assignment.partition is None and assignment.proc_of_unit is not None:
        counts = column_fetch_counts(
            assignment.pattern, assignment.proc_of_unit, assignment.nprocs
        )
    else:
        counts = fetch_counts(*kernel_inputs(assignment, updates, include_scale))
    return TrafficResult(counts)


def communication_matrix(
    assignment: Assignment, updates: UpdateSet, include_scale: bool = True
) -> np.ndarray:
    """C[p, q] = distinct elements owned by q fetched by p (p != q).

    Not a paper metric, but exposes the paper's qualitative hot-spot
    claim: wrap mappings make every processor talk to every other, while
    block mappings confine traffic to small processor groups.
    """
    n = assignment.nprocs
    if assignment.partition is None and assignment.proc_of_unit is not None:
        col, proc, reach = _column_fetches(assignment.pattern, assignment.proc_of_unit, n)
        owner = np.asarray(assignment.proc_of_unit)[col]
    else:
        proc, src = fetch_pairs(*kernel_inputs(assignment, updates, include_scale))
        owner, reach = assignment.owner_of_element[src], None
    link = linear_index(proc, owner, n)
    return np.bincount(link, weights=reach, minlength=n * n).astype(np.int64).reshape(n, n)

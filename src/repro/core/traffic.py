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
fetches an element iff one of its units reads it, so the per-line pass
below runs over the partition's unit read index
(:func:`~repro.core.dependencies.unit_read_index`) — who reads each
element, consecutive repeats of a unit dropped — with ``proc_of_unit``
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

**Element kernel** (neither: 2-D cyclic, arbitrary owners).  The same
pass over the element read index
(:func:`~repro.symbolic.updates.build_read_index`), which also hands
:func:`communication_matrix`, the block message ledger and (units in
the place of processors, for an arbitrary element→unit map)
:func:`repro.machine.simulate.unit_graph` the pairs themselves.

**The suffix lemma.**  Both indexes are one
:class:`~repro.symbolic.updates.ReadIndex`: every source reads a suffix
of one segment of ``reader`` (a line of its supernode, a diagonal its
column; at unit level the same lines with repeats of a unit dropped).
*Processor q reads source s, whose slice starts at ``first[s]`` in
segment g, iff q's last occurrence in g lies at or after ``first[s]``*
— the slice runs to the end of g.  So with ``cover[i]`` the number of
sources whose slice holds entry i (those of its segment with ``first <=
i``; memoised with the index as its ``sources``), ``fetches[q]`` is the
sum of ``cover`` over q's last occurrences, less one per source its own
processor reads, and the pairs are each last occurrence crossed with
the sources covering it: O(entries + sources) per cell, no sort, no
read expanded.  A segment never straddles two chunks
(:func:`segment_chunks`), so the per-chunk results accumulate,
bit-identical at every chunk size; ``chunk_reads`` (default
:data:`DEFAULT_CHUNK_READS`) bounds both the entries and the table
slots of a chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..sparse.dtypes import index_dtype, linear_index
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import ReadIndex, UpdateSet, build_read_index, ragged_range
from .assignment import Assignment
from .dependencies import unit_read_index

__all__ = [
    "DEFAULT_CHUNK_READS", "TrafficResult", "ReadIndex", "build_read_index",
    "segment_chunks", "distinct_fetches", "column_fetch_counts", "fetch_counts",
    "fetch_pairs", "kernel_inputs", "data_traffic", "communication_matrix",
]

#: Index entries — and table slots — per chunk of the kernel.  At the
#: default the table is at most 4 MB whatever the problem size, which
#: also measured fastest (larger chunks fell out of cache: 4M was
#: 10-15% slower at 1.4M and 11M reads).
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


def segment_chunks(bounds: np.ndarray, chunk_reads: int | None, nprocs: int) -> list[int]:
    """The kernel's chunks as segment ids over an index's ``bounds``:
    whole segments, at most ``chunk_reads`` entries and table slots
    (segments x ``nprocs``) a chunk, or one segment with more; the slot
    limit spread evenly over as few chunks as it allows, so the table is
    no larger than they need.  A missing or non-positive ``chunk_reads``
    means :data:`DEFAULT_CHUNK_READS`: the table has to be bounded (and
    its slots indexable by int32)."""
    if chunk_reads is None or chunk_reads <= 0:
        chunk_reads = DEFAULT_CHUNK_READS
    slots = min(int(chunk_reads), int(np.iinfo(np.int32).max))
    segments, total = len(bounds) - 1, int(bounds[-1])
    span = max(1, slots // int(nprocs))
    span = -(-segments // max(1, -(-segments // span)))
    chunks = [0]
    while chunks[-1] < segments:
        lo = chunks[-1]
        # A key of the bounds' own dtype: any other would convert them all.
        reach = bounds.dtype.type(min(int(bounds[lo]) + slots, total))
        fit = int(np.searchsorted(bounds, reach, side="right")) - 1
        chunks.append(max(lo + 1, min(lo + span, fit)))
    return chunks


def _last_reads(
    owner: np.ndarray,
    nprocs: int,
    read_index: ReadIndex,
    reader_owner: np.ndarray | None,
    chunk_reads: int | None,
) -> Iterator[tuple[np.ndarray, ...]]:
    """The suffix lemma, chunk by chunk of segments: ``(lo, hi, key,
    count, owned)`` — the chunk's segments ``lo .. hi - 1``; for every
    last read of a processor in one of them, its slot ``(segment - lo) *
    nprocs + proc`` and the ``count`` sources whose slice holds it, the
    first of the segment's run of the ``by_first`` of
    :attr:`ReadIndex.sources`; and the owners of the chunk's sources
    that their own processor reads."""
    owner = np.asarray(owner)
    reader_owner = np.asarray(owner if reader_owner is None else reader_owner, dtype=np.int32)
    nprocs = int(nprocs)  # a numpy integer here would widen every key
    bounds = read_index.bounds
    by_first, cover = read_index.sources
    chunks = segment_chunks(bounds, chunk_reads, nprocs)
    span = int(np.diff(chunks).max(initial=0))
    steps = np.arange(0, span * nprocs, nprocs, dtype=np.int32)
    # A slot holds 1 + the position of the last entry written to it, so
    # what an earlier chunk left there lies before this chunk's entries.
    table = np.zeros(span * nprocs, dtype=index_dtype(len(read_index.reader) + 1))
    base = 0  # the sources of the segments before the chunk
    for lo, hi in zip(chunks, chunks[1:]):
        chunk = slice(int(bounds[lo]), int(bounds[hi]))
        key = np.repeat(steps[:hi - lo], np.diff(bounds[lo:hi + 1]))
        key += np.take(reader_owner, read_index.reader[chunk])
        # Each slot has to end up holding its last entry, whatever order
        # NumPy lands duplicate writes in: rewrite the entries still
        # ahead of their slot until none is.
        pos = np.arange(chunk.start + 1, chunk.stop + 1, dtype=table.dtype)
        table[key] = pos
        stored = np.take(table, key)
        while (ahead := np.flatnonzero(stored < pos)).size:
            table[key[ahead]] = pos[ahead]
            stored = np.take(table, key)
        last = np.flatnonzero(stored == pos)
        del pos, stored
        # Every source of a segment reads its last entry.
        width = np.take(cover, bounds[lo + 1:hi + 1] - 1)
        own = np.repeat(steps[:hi - lo], width)
        src = by_first[base:base + len(own)]
        base += len(own)
        own += np.take(owner, src)
        owned = np.take(owner, src[np.take(table, own) > read_index.first[src]])
        # Only what is yielded stays alive while the caller works on it.
        del own
        key, count = np.take(key, last), np.take(cover[chunk], last)
        del last
        yield lo, hi, key, count, owned


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
    once over the whole iteration: each last read of a processor in a
    segment, crossed with the sources whose slice holds it, less the
    sources it owns.  ``reader_owner`` maps the index's ``reader`` ids
    to processors where they are not element ids (``proc_of_unit`` for
    a unit read index).  Every owner must lie in ``[0, nprocs)`` — the
    :class:`~repro.core.assignment.Assignment` constructor checks it,
    before the ids are narrowed here — since an out-of-range owner would
    alias a neighbouring segment's slots.
    """
    by_first, cover = read_index.sources
    bounds, owner = read_index.bounds, np.asarray(owner)
    base = 0  # the sources of the segments before the chunk
    for lo, hi, key, count, _owned in _last_reads(owner, nprocs, read_index, reader_owner, chunk_reads):
        width = np.take(cover, bounds[lo + 1:hi + 1] - 1)
        line_lo = np.cumsum(width, dtype=by_first.dtype)
        line_lo += base - width
        base += int(width.sum())
        # Floor division by a scalar is several times cheaper than %.
        segment = key // nprocs
        proc = key - segment * nprocs
        src = by_first[ragged_range(line_lo[segment], count, by_first.dtype)]
        proc = np.repeat(proc, count)
        keep = proc != owner[src]
        yield proc[keep], src[keep]


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
    the per-line pass for one assignment: over its partition's unit read
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
    """Distinct non-local fetches per processor for one owner array: the
    suffix lemma's count of the sources reading each processor's last
    reads, less one per source its own processor reads."""
    counts = np.zeros(nprocs, dtype=np.int64)
    for _lo, _hi, key, count, owned in _last_reads(owner, nprocs, read_index, reader_owner, chunk_reads):
        proc = key - key // nprocs * nprocs  # key % nprocs, without the slow modulo
        counts += np.bincount(proc, weights=count, minlength=nprocs).astype(np.int64)
        counts -= np.bincount(owned, minlength=nprocs)
    return counts


def fetch_pairs(
    owner: np.ndarray,
    nprocs: int,
    read_index: ReadIndex,
    reader_owner: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct non-local fetch of one owner array as parallel
    int64 arrays ``(proc, src)`` — what
    :func:`communication_matrix`, the block message ledger (both through
    :func:`kernel_inputs`) and the unit DAG of
    :func:`repro.machine.simulate.unit_graph` (owner = an arbitrary
    element→unit map) aggregate, so all of them bit-match
    :func:`data_traffic`.  The order of the pairs is unspecified."""
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

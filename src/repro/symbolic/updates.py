"""Pair updates of a Cholesky factorization, enumerated as runs.

The update ``L[i,j] -= L[i,k] * L[j,k]`` exists for every column k and
every pair of its off-diagonal rows i >= j (> k) — the paper's Figure 1
— and every element finally receives one diagonal/scale update.
Elements are identified by their position in the factor's
:class:`~repro.sparse.pattern.LowerPattern` (element ids).

The pairs are stored as *runs* over the fundamental supernodes of
:mod:`repro.symbolic.supernodes`.  If a supernode spans the columns f ..
f + w - 1 and column f has the off-diagonal rows r_0 < ... < r_{m-1},
column f + t has the rows r_t .. r_{m-1}; so run (a, b), a >= b, stands
for the pairs with target L[r_a, r_b] and sources L[r_a, k], L[r_b, k],
k = f .. f + min(b + 1, w) - 1, and column f + t's pairs are the runs
with b >= t, in the same order.  A run is stored as its target's element
id, supernode by supernode in ``np.tril_indices`` order.  The runs
(c, 0..c) are the *row* of line c — one line per off-diagonal entry of
a first column — and the runs (c..m-1, c) its *column*.

The element-level arrays ``target``, ``source_i``, ``source_j`` and
``source_col`` (column-major, then ``np.tril_indices`` order within a
column) are expansions of the runs, each computed on first use and on
its own; the mapping path never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from ..sparse.dtypes import index_dtype, linear_index
from ..sparse.pattern import LowerPattern
from .supernodes import supernode_bounds

__all__ = ["UpdateSet", "ReadIndex", "build_read_index", "enumerate_updates", "ragged_range"]


def ragged_range(starts, lengths, dtype) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``
    as one array of ``dtype``: each segment's offset repeated, plus one
    arange (in a dtype that also counts to the total)."""
    lengths = np.asarray(lengths)
    offsets = np.cumsum(lengths) - lengths
    work = np.promote_types(dtype, index_dtype(int(offsets[-1] + lengths[-1]) if len(lengths) else 0))
    out = np.repeat((np.asarray(starts) - offsets).astype(work), lengths)
    out += np.arange(len(out), dtype=work)
    return out.astype(dtype, copy=False)


@dataclass(frozen=True)
class UpdateSet:
    """All pair updates (and implicit scale updates) of a factorization.

    For pair update t: ``target[t]`` is the element id of L[i, j],
    ``source_i[t]`` of L[i, k], ``source_j[t]`` of L[j, k], and
    ``source_col[t]`` = k.  Scale updates are one per element, sourced
    from the diagonal element of the element's column.  What is stored
    is ``run_target`` over the supernode ``supernodes`` bounds (module
    docstring); the four arrays are expansions of it.
    """

    pattern: LowerPattern
    supernodes: np.ndarray
    run_target: np.ndarray

    @property
    def num_pair_updates(self) -> int:
        m = np.diff(self.pattern.indptr) - 1
        return int((m * (m + 1) // 2).sum())

    @cached_property
    def element_cols(self) -> np.ndarray:
        """Column of each element id (cached; used by several consumers)."""
        return self.pattern.element_cols()

    @cached_property
    def scale_source(self) -> np.ndarray:
        """For every element id, the element id of its column's diagonal."""
        return self.pattern.indptr[:-1][self.element_cols].astype(
            index_dtype(self.pattern.nnz)
        )

    @cached_property
    def update_counts(self) -> np.ndarray:
        """Number of pair updates targeting each element id: every run
        counts its multiplicity min(b + 1, w)."""
        _, row_len, width = _lines(self.pattern, self.supernodes)
        b = ragged_range(np.zeros_like(row_len), row_len, row_len.dtype)
        length = np.minimum(b + 1, np.repeat(width, row_len))
        return np.bincount(self.run_target, length, self.pattern.nnz).astype(np.int64)

    def element_work(self) -> np.ndarray:
        """Work per element in the paper's model: 2 per pair update + 1."""
        return 2 * self.update_counts + 1

    def total_work(self) -> int:
        """W_tot = 2 * (number of pair updates) + nnz(L)."""
        return 2 * self.num_pair_updates + self.pattern.nnz

    @cached_property
    def _supernode_tables(self) -> tuple[np.ndarray, ...]:
        """Per column its supernode and its offset t there; per supernode
        its m, and the runs and line-sequence entries (m² per supernode)
        of all earlier supernodes."""
        first = self.supernodes[:-1]
        m = np.diff(self.pattern.indptr)[first] - 1
        sn = np.repeat(np.arange(len(first)), np.diff(self.supernodes))
        runs, seq = m * (m + 1) // 2, m * m
        return sn, np.arange(self.pattern.n) - first[sn], m, np.cumsum(runs) - runs, np.cumsum(seq) - seq

    @cached_property
    def column_runs(self) -> tuple[np.ndarray, ...]:
        """The runs line by line: per supernode, for b = 0 .. m - 1, the
        runs (b .. m - 1, b).  Column f + t's pairs are then the lines
        t .. m - 1, and its pair of run (a, b) reads the elements base + a
        and base + b, base = indptr[f + t] + 1 - t.  Returns per run, in
        that order, ``(run, sn, a, b)`` (``run`` indexes ``run_target``)
        and per column ``(lo, hi, base)``: its pairs are runs ``lo:hi``."""
        col_sn, t, m, runs, _ = self._supernode_tables
        line_sn = np.repeat(np.arange(len(m), dtype=index_dtype(len(m))), m)
        b = np.arange(len(line_sn)) - (np.cumsum(m) - m)[line_sn]
        length = m[line_sn] - b
        sn = np.repeat(line_sn, length)
        a = ragged_range(b, length, index_dtype(int(m.max(initial=0)) ** 2))  # a (a + 1) fits
        b = np.repeat(b.astype(a.dtype), length)
        run = (runs[sn] + a * (a + 1) // 2 + b).astype(index_dtype(len(self.run_target)))
        lo = runs[col_sn] + t * m[col_sn] - t * (t - 1) // 2
        hi = (runs + m * (m + 1) // 2)[col_sn]
        return run, sn, a, b, lo, hi, self.pattern.indptr[:-1] + 1 - t

    @cached_property
    def _row_sources(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per off-diagonal element, ascending: its id, its position in
        its column (1 for the first) — the number of pairs it is the row
        source of — and the run of the first of them, (c, t) with
        c = pos - 1 + t."""
        sn, t, _, runs, _ = self._supernode_tables
        col = self.element_cols
        pos = np.arange(self.pattern.nnz) - self.pattern.indptr[col]
        off = np.flatnonzero(pos)
        col, pos = col[off], pos[off]
        c = pos - 1 + t[col]
        head = runs[sn[col]] + c * (c + 1) // 2 + t[col]
        edt = index_dtype(self.pattern.nnz)
        return off.astype(edt), pos.astype(edt), head.astype(index_dtype(len(self.run_target)))

    @cached_property
    def reader_sequences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Who reads what, in read order and independent of any
        partition: ``(targets, starts, first, end)``.

        Element e is read by the elements ``targets[first[e]:end[e]]``.
        ``targets`` holds, line by line, the m run targets of line c's
        row and then of its column below the run (c, c) — so the reads of
        element (r_c, f + t) are line c's from position t on — followed
        by every element id, so that a diagonal's slice is its column.
        ``starts`` marks the positions where a line or a column begins.
        """
        pattern, nnz = self.pattern, self.pattern.nnz
        off, pos, _ = self._row_sources
        sn, t, m, runs, seq = self._supernode_tables
        span = int((m * m).sum())
        idt = index_dtype(span + nnz)
        targets = np.empty(span + nnz, dtype=self.run_target.dtype)
        # A supernode's lines are the rows of the symmetric m x m matrix
        # of its runs' indices in tril order: one pattern per m.
        order = np.argsort(m, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(m[order])) + 1):
            x = np.arange(m[group[0]] if len(group) else 0)
            hi, lo = np.maximum.outer(x, x), np.minimum.outer(x, x)
            square = (hi * (hi + 1) // 2 + lo).ravel()
            at = seq[group, None] + np.arange(len(square))
            targets[at.ravel()] = self.run_target[(runs[group, None] + square).ravel()]
        targets[span:] = np.arange(nnz)
        col = self.element_cols[off]
        s, t = sn[col], t[col]
        at = seq[s] + (pos - 1 + t) * m[s] + t  # where each element's reads begin
        lead = np.flatnonzero(t == 0)  # one element per line
        starts = np.zeros(span + nnz, dtype=bool)
        starts[at[lead]] = starts[span + pattern.indptr[:-1]] = True
        first = np.arange(span, span + nnz, dtype=idt)
        end = (span + pattern.indptr[1:][self.element_cols]).astype(idt)
        first[off], end[off] = at, at - t + m[s]
        return targets, starts, first, end

    def _expand(self, name: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Array ``name`` of the pairs whose row sources are off-diagonal
        elements ``lo .. hi - 1`` (a column-major slice of the pairs)."""
        off, pos, head = (a[lo:hi] for a in self._row_sources)
        if name == "source_i":
            return np.repeat(off, pos)
        if name == "source_col":
            return np.repeat(self.element_cols[off], pos)
        if name == "source_j":
            return ragged_range(off - pos + 1, pos, off.dtype)
        return self.run_target[ragged_range(head, pos, head.dtype)]

    target = cached_property(lambda self: self._expand("target"))
    source_i = cached_property(lambda self: self._expand("source_i"))
    source_j = cached_property(lambda self: self._expand("source_j"))
    source_col = cached_property(lambda self: self._expand("source_col"))

    def pair_chunks(self, values: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """``(values[target], values[source_i], values[source_j])`` for
        consecutive column-major slices of the pairs, about nnz(L) pairs
        each, so a per-pair pass never holds more than O(nnz(L)) of them.
        ``values`` has one entry per element id."""
        off, pos, head = self._row_sources
        at_run = values[self.run_target]
        step = max(self.pattern.nnz, 1)
        cuts = np.searchsorted(np.cumsum(pos), np.arange(step, self.num_pair_updates, step))
        bounds = np.unique(np.concatenate([[0], cuts, [len(pos)]])).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            o, p, h = off[lo:hi], pos[lo:hi], head[lo:hi]
            yield (at_run[ragged_range(h, p, h.dtype)], np.repeat(values[o], p),
                   values[ragged_range(o - p + 1, p, o.dtype)])


def _lines(pattern: LowerPattern, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per line: its element in its supernode's first column, the number
    of runs in its row (its index there plus one), its supernode's width."""
    first, width = bounds[:-1], np.diff(bounds)
    m = np.diff(pattern.indptr)[first] - 1
    start = pattern.indptr[first] + 1
    line_eid = ragged_range(start, m, index_dtype(pattern.nnz))
    row_len = (line_eid - np.repeat(start, m) + 1).astype(line_eid.dtype)
    return line_eid, row_len, np.repeat(width, m)


@dataclass(frozen=True)
class ReadIndex:
    """Who reads each element, as one slice per source element: element
    e is read by ``reader[first[e]:end[e]]``, each reader once.

    At element level (:func:`build_read_index`) the readers are element
    ids and the slices overlap: the sources of one line read nested
    suffixes of it.  At unit level
    (:func:`repro.core.dependencies.unit_read_index`) they are unit ids
    and the slices are consecutive, so every entry of ``reader`` is one
    read, whose source ``src`` holds.  ``include_scale`` says whether a
    diagonal's slice holds the scale reads of its column or is empty.
    """

    include_scale: bool
    reader: np.ndarray
    first: np.ndarray
    end: np.ndarray
    src: np.ndarray | None = None

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each source's reads begin among all reads, sources
        ascending, and their number last."""
        length = self.end - self.first
        out = np.zeros(len(length) + 1, dtype=index_dtype(int(length.sum(dtype=np.int64))))
        np.cumsum(length, out=out[1:])
        return out

    @property
    def num_reads(self) -> int:
        return int(self.offsets[-1])

    def reads(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(src, reader)`` of every read of the sources ``lo .. hi - 1``,
        sources ascending."""
        first, end = self.first[lo:hi], self.end[lo:hi]
        if self.src is not None:
            at = slice(first[0], end[-1]) if len(first) else slice(0, 0)
            return self.src[at], self.reader[at]
        src = np.repeat(np.arange(lo, lo + len(first), dtype=index_dtype(len(self.first))), end - first)
        return src, self.reader[ragged_range(first, end - first, first.dtype)]


def build_read_index(updates: UpdateSet, include_scale: bool = True) -> ReadIndex:
    """The element read index of ``updates``: a view of its
    :attr:`~UpdateSet.reader_sequences` in O(nnz), with no sort and no
    per-pair array.

    Every pair update reads two off-diagonal sources on behalf of its
    target (once if they coincide); ``include_scale`` adds one diagonal
    read per element, matching the flag of
    :func:`repro.machine.traffic.data_traffic`.
    """
    targets, _starts, first, end = updates.reader_sequences
    if not include_scale:
        diagonal = updates.pattern.indptr[:-1]
        end = end.copy()
        end[diagonal] = first[diagonal]
    return ReadIndex(include_scale, targets, first, end)


#: Above this order the dense (n x n) element-id lookup (4 n² bytes)
#: is replaced by one global binary search.
_DENSE_LOOKUP_LIMIT = 4096


def enumerate_updates(pattern: LowerPattern) -> UpdateSet:
    """Every pair update of the factorization of ``pattern``, as runs.

    ``pattern`` must be closed under factorization fill (i.e. be the
    structure of L); a missing target raises ``ValueError`` naming the
    first column with such an update.  Only the supernodes' first
    columns are enumerated, and every run target is resolved in one
    vectorized lookup: a dense (row, col) -> element-id gather up to
    ``_DENSE_LOOKUP_LIMIT`` unknowns, one global ``searchsorted`` against
    the pattern's (col, row) key order beyond that.
    """
    indptr, rowidx, n = pattern.indptr, pattern.rowidx, pattern.n
    edt = index_dtype(pattern.nnz)
    bounds = supernode_bounds(pattern)
    line_eid, row_len, _ = _lines(pattern, bounds)
    # Run (a, b) of a line: i = r_a, the line's row; j = r_b, the b-th
    # off-diagonal row of the first column (its eid counts up from the
    # first off-diagonal one, line_eid - row_len + 1).
    i = np.repeat(rowidx[line_eid], row_len)
    j = rowidx[ragged_range(line_eid - row_len + 1, row_len, edt)]
    if n <= _DENSE_LOOKUP_LIMIT:
        dense = np.full((n, n), -1, dtype=edt)
        dense[rowidx, pattern.element_cols()] = np.arange(pattern.nnz, dtype=edt)
        target = dense[i, j]
        bad = target < 0
    else:
        # Element ids are positions in rowidx, and rowidx is sorted by
        # (column, row); one searchsorted over the linearized key
        # resolves all targets at once in O(nnz) memory.
        elem_key = linear_index(pattern.element_cols(), rowidx, n)
        query = linear_index(j, i, n)
        target = np.searchsorted(elem_key, query)
        bad = (target >= pattern.nnz) | (
            elem_key[np.minimum(target, pattern.nnz - 1)] != query
        )
        target = target.astype(edt, copy=False)
    if bad.any():
        # Every run's pair is in its supernode's first column, and the
        # runs ascend by supernode.
        line = np.searchsorted(np.cumsum(row_len), np.flatnonzero(bad)[0], side="right")
        bad_col = int(np.searchsorted(indptr, line_eid[line], side="right") - 1)
        raise ValueError(
            f"pattern is not closed under fill: column {bad_col} updates a "
            "structurally-zero target"
        )
    return UpdateSet(pattern=pattern, supernodes=bounds, run_target=target)

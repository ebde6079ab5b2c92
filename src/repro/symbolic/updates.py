"""Element-level update enumeration for Cholesky factorization.

This materializes the paper's Figure 1 dependency structure: the update
``L[i,j] -= L[i,k] * L[j,k]`` exists for every column k and every pair of
its off-diagonal nonzero rows i >= j (> k), and every element finally
receives one diagonal/scale update.  Elements are identified by their
position in the factor's :class:`~repro.sparse.pattern.LowerPattern`
(element ids), so the arrays here drive work accounting, traffic
accounting and block-dependency extraction with pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..obs import trace as obs
from ..sparse.dtypes import index_dtype, linear_index
from ..sparse.pattern import LowerPattern

__all__ = ["UpdateSet", "ReadIndex", "build_read_index", "read_index_of",
           "enumerate_updates", "enumerate_updates_reference"]


@dataclass(frozen=True)
class UpdateSet:
    """All pair updates (and implicit scale updates) of a factorization.

    For pair update t: ``target[t]`` is the element id of L[i, j],
    ``source_i[t]`` of L[i, k], ``source_j[t]`` of L[j, k], and
    ``source_col[t]`` = k.  Scale updates are one per element, sourced
    from the diagonal element of the element's column.
    """

    pattern: LowerPattern
    target: np.ndarray
    source_i: np.ndarray
    source_j: np.ndarray
    source_col: np.ndarray

    @property
    def num_pair_updates(self) -> int:
        return len(self.target)

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
        """Number of pair updates targeting each element id."""
        return np.bincount(self.target, minlength=self.pattern.nnz)

    def element_work(self) -> np.ndarray:
        """Work per element in the paper's model: 2 per pair update + 1."""
        return 2 * self.update_counts + 1

    def total_work(self) -> int:
        """W_tot = 2 * (number of pair updates) + nnz(L)."""
        return 2 * self.num_pair_updates + self.pattern.nnz


@dataclass(frozen=True)
class ReadIndex:
    """The assignment-invariant read list of a factorization, sorted by
    source element.

    ``src[r]`` is the element id read by the r-th access and
    ``reader[r]`` the element id whose owner performs it (the update's
    target, or the element itself for diagonal/scale reads).  ``src`` is
    ascending, and the reads of one source keep the order row role
    (``source_i``), column role (``source_j``), scale — what lets the
    traffic kernel stream it in slices that never split a source, and
    the unit read index drop duplicates by comparing neighbours.
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
    matching the flag of :func:`repro.machine.traffic.data_traffic`.
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
    shared by the dependency analysis and every traffic measurement of
    the structure."""
    memo = vars(updates).setdefault("_read_indexes", {})
    index = memo.get(include_scale)
    if index is None:
        with obs.span("pipeline.read_index", include_scale=include_scale):
            index = memo[include_scale] = build_read_index(updates, include_scale)
        obs.counter("pipeline.stage.read_index")
    return index


#: Above this order the dense (n x n) element-id lookup (8 n² bytes)
#: is replaced by per-column binary searches.
_DENSE_LOOKUP_LIMIT = 4096


def _make_eid_lookup(pattern: LowerPattern):
    """(rows, cols) -> element ids, dense-matrix or searchsorted-backed."""
    n = pattern.n
    nnz = pattern.nnz
    if n <= _DENSE_LOOKUP_LIMIT:
        dense = np.full((n, n), -1, dtype=np.int64)
        dense[pattern.rowidx, pattern.element_cols()] = np.arange(
            nnz, dtype=np.int64
        )
        return lambda i, j: dense[i, j]

    def lookup(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # Group queries by column; binary-search each column's row list.
        out = np.full(len(i), -1, dtype=np.int64)
        order = np.argsort(j, kind="stable")
        js = j[order]
        starts = np.searchsorted(js, np.arange(n))
        ends = np.searchsorted(js, np.arange(n), side="right")
        for col in np.unique(js).tolist():
            sel = order[starts[col] : ends[col]]
            lo, hi = pattern.indptr[col], pattern.indptr[col + 1]
            rows = pattern.rowidx[lo:hi]
            pos = np.searchsorted(rows, i[sel])
            ok = (pos < len(rows)) & (rows[np.minimum(pos, len(rows) - 1)] == i[sel])
            out[sel[ok]] = lo + pos[ok]
        return out

    return lookup


def enumerate_updates(pattern: LowerPattern) -> UpdateSet:
    """Enumerate every pair update of the factorization of ``pattern``.

    ``pattern`` must be closed under factorization fill (i.e. be the
    structure of L); a missing target element raises ``ValueError``.

    Single-pass numpy enumeration: per-column pair counts are expanded
    with repeat/cumsum (no per-column Python loop) and every target is
    resolved in one vectorized lookup — a dense (row, col) -> element-id
    gather up to ``_DENSE_LOOKUP_LIMIT`` unknowns (the same memory
    envelope the reference path always used), and one global
    ``searchsorted`` against the pattern's (col, row) key order beyond
    that, so no n x n table is ever built at scale.  The update order is
    identical to :func:`enumerate_updates_reference` (column-major, then
    row-major over each column's lower-triangular index pairs), which the
    test suite asserts array-for-array.
    """
    indptr = pattern.indptr
    rowidx = pattern.rowidx
    n = pattern.n
    edt = index_dtype(pattern.nnz)  # element-id storage dtype
    empty = np.zeros(0, dtype=edt)
    m = np.diff(indptr) - 1  # off-diagonal count per column
    nnz_off = int(m.sum())
    if nnz_off == 0:
        return UpdateSet(pattern, empty, empty, empty, empty)

    # One incidence per (column k, off-diagonal index a); incidence
    # (k, a) expands into the a+1 pairs (a, b) for b = 0..a, which is
    # exactly np.tril_indices order when one column's incidences are
    # taken consecutively.  Everything below is sized nnz_off until the
    # np.repeat calls fan out to one entry per pair.  Indices stay at
    # the narrow element-id dtype; the pair total is accumulated in
    # int64 unconditionally — it is the one count here that genuinely
    # overflows 32 bits on large problems.
    col_of_off = np.repeat(np.arange(n, dtype=edt), m)
    off_eid = np.arange(nnz_off, dtype=edt) + col_of_off + 1
    first_off_eid = (indptr[col_of_off] + 1).astype(edt)
    a_within = off_eid - first_off_eid
    reps = a_within + 1
    pair_cum = np.cumsum(reps, dtype=np.int64)
    total = int(pair_cum[-1])
    pdt = index_dtype(total)  # pair-index dtype (within-incidence offsets)

    b = np.arange(total, dtype=pdt)
    b -= np.repeat((pair_cum - reps).astype(pdt), reps)  # pair index within its incidence
    source_j = (np.repeat(first_off_eid, reps) + b).astype(edt, copy=False)
    source_i = np.repeat(off_eid, reps)
    k = np.repeat(col_of_off, reps)
    i = np.repeat(rowidx[off_eid], reps)
    j = rowidx[source_j]

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
        bad_col = int(k[np.flatnonzero(bad)[0]])
        raise ValueError(
            f"pattern is not closed under fill: column {bad_col} updates a "
            "structurally-zero target"
        )
    return UpdateSet(
        pattern=pattern,
        target=target,
        source_i=source_i,
        source_j=source_j,
        source_col=k,
    )


def enumerate_updates_reference(pattern: LowerPattern) -> UpdateSet:
    """Per-column reference enumeration, kept for cross-validation.

    Semantically identical to :func:`enumerate_updates` but loops over
    columns in Python.  For paper-scale problems a dense
    (row, col) -> element-id table makes the target lookup one
    fancy-indexing call; beyond ``_DENSE_LOOKUP_LIMIT`` unknowns a
    searchsorted path avoids the n² memory.
    """
    n = pattern.n
    eid = _make_eid_lookup(pattern)

    tgt_parts: list[np.ndarray] = []
    si_parts: list[np.ndarray] = []
    sj_parts: list[np.ndarray] = []
    k_parts: list[np.ndarray] = []
    for k in range(n):
        lo, hi = pattern.indptr[k], pattern.indptr[k + 1]
        off = pattern.rowidx[lo + 1 : hi]  # off-diagonal rows of column k
        m = len(off)
        if m == 0:
            continue
        a, b = np.tril_indices(m)  # i-index >= j-index
        i = off[a]
        j = off[b]
        t = eid(i, j)
        if (t < 0).any():  # pragma: no cover - violated only by bad input
            raise ValueError(
                f"pattern is not closed under fill: column {k} updates a "
                "structurally-zero target"
            )
        tgt_parts.append(t)
        si_parts.append(lo + 1 + a)
        sj_parts.append(lo + 1 + b)
        k_parts.append(np.full(m * (m + 1) // 2, k, dtype=np.int64))

    empty = np.zeros(0, dtype=np.int64)
    return UpdateSet(
        pattern=pattern,
        target=np.concatenate(tgt_parts) if tgt_parts else empty,
        source_i=np.concatenate(si_parts) if si_parts else empty,
        source_j=np.concatenate(sj_parts) if sj_parts else empty,
        source_col=np.concatenate(k_parts) if k_parts else empty,
    )

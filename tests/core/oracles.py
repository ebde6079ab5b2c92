"""Core oracles, kept for the tests to compare against.

* :func:`region_scan_partition` — the partitioner as it was written
  first: unit rows emitted strip by strip as Python tuples (split counts
  and chunk bounds by loops), each unit then claiming its elements by a
  scan of its column range (:func:`row_elements`).
  ``repro.core.partitioner`` emits each kind of unit for all clusters at
  once and claims every unit's elements with two searches.
* :func:`interleaved_adaptive_oracle` — the paper's §3.2 parameter (a)
  as an interleaved pass: clusters left to right, each triangle split
  under a cap read off its already-allocated predecessors, then
  allocated by §3.4 at once, with Python lists and sets over the
  per-pair update arrays.  ``repro.core.adaptive`` reaches the same
  answer as a fixed point of the static pipeline instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.clusters import find_clusters
from repro.core.partitioner import _COLUMN, _RECTANGLE, _TRIANGLE, Partition


def chunk_bounds_loop(lo, hi, parts):
    """Split [lo, hi] into ``parts`` near-equal chunks, larger first."""
    length = hi - lo + 1
    assert 1 <= parts <= length
    base, extra = divmod(length, parts)
    out = []
    start = lo
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size - 1))
        start += size
    return out


def triangle_split_count_loop(area, grain, max_parts=None):
    """Largest b with b(b+1)/2 unit blocks allowed by the grain (and
    ``max_parts``)."""
    pd = max(1, area // max(grain, 1))
    if max_parts is not None:
        pd = min(pd, max_parts)
    b = 1
    while (b + 1) * (b + 2) // 2 <= pd:
        b += 1
    return b


def rectangle_grid_loop(height, width, area, grain):
    """Grid (nr, nc) maximizing nr*nc <= P_d, ties toward squarer units."""
    pd = min(max(1, area // max(grain, 1)), height * width)
    best = (1, 1)
    best_score = (-1, float("inf"))
    for nc in range(1, min(width, pd) + 1):
        nr = min(height, pd // nc)
        if nr < 1:
            continue
        count = nr * nc
        aspect = abs((height / nr) - (width / nc))
        score = (count, -aspect)
        if score > (best_score[0], -best_score[1]):
            best = (nr, nc)
            best_score = (count, aspect)
    return best


def triangle_rows(cluster, s, e, grain, max_parts):
    """Unit rows of the diagonal triangle of strip [s, e]: diagonal unit
    triangles top to bottom, then unit rectangles row-major."""
    width = e - s + 1
    b = min(triangle_split_count_loop(width * (width + 1) // 2, grain, max_parts), width)
    chunks = chunk_bounds_loop(s, e, b)
    rows = [
        (_TRIANGLE, _TRIANGLE, cluster, lo, hi, lo, hi, 0, 0, ci, 0)
        for ci, (lo, hi) in enumerate(chunks)
    ]
    rows += [
        (_RECTANGLE, _TRIANGLE, cluster, *chunks[ci], *chunks[ri], 0, 1, ri, ci)
        for ri in range(1, b)
        for ci in range(ri)
    ]
    return rows


def rectangle_rows(cluster, rect_index, s, e, r_lo, r_hi, grain):
    """Unit rows of the ``rect_index``-th dense rectangle of strip
    [s, e]: a grid of unit rectangles, row-major."""
    height, width = r_hi - r_lo + 1, e - s + 1
    nr, nc = rectangle_grid_loop(height, width, height * width, grain)
    col_chunks = chunk_bounds_loop(s, e, nc)
    return [
        (_RECTANGLE, _RECTANGLE, cluster, c_lo, c_hi, u_lo, u_hi, 1 + rect_index, 0, ri, ci)
        for ri, (u_lo, u_hi) in enumerate(chunk_bounds_loop(r_lo, r_hi, nr))
        for ci, (c_lo, c_hi) in enumerate(col_chunks)
    ]


def elements_in_region(pattern, col_lo, col_hi, row_lo, row_hi, triangular, ecol):
    """Element ids of pattern entries inside an inclusive region: one
    slice of the column range plus one boolean row filter (``ecol``, the
    column of every element id, gives the triangular floor)."""
    lo = int(pattern.indptr[col_lo])
    hi = int(pattern.indptr[col_hi + 1])
    rows = pattern.rowidx[lo:hi]
    floor = np.int64(row_lo)
    if triangular:
        floor = np.maximum(floor, ecol[lo:hi])
    return lo + np.flatnonzero((rows >= floor) & (rows <= row_hi))


def row_elements(pattern, row, ecol):
    """Element ids inside the extents of one unit row."""
    return elements_in_region(pattern, *row[3:7], row[0] == _TRIANGLE, ecol)


def region_scan_partition(pattern, clusters, grain_triangle, grain_rectangle=None,
                          max_parts=None):
    """``(table, unit_of_element)``: the rows strip by strip, each unit
    claiming its elements by its own region scan."""
    grain_rectangle = grain_triangle if grain_rectangle is None else grain_rectangle
    ecol = pattern.element_cols()
    rows = []
    for c in range(len(clusters)):
        s, e = int(clusters.col_lo[c]), int(clusters.col_hi[c])
        if clusters.is_column[c]:
            rows.append((_COLUMN, _COLUMN, c, s, s, s, int(clusters.column_row_hi[c]),
                         0, 0, 0, 0))
            continue
        cap = None if max_parts is None else int(max_parts[c]) or None
        rows += triangle_rows(c, s, e, grain_triangle, cap)
        a, b = clusters.rect_indptr[c], clusters.rect_indptr[c + 1]
        for k, (r_lo, r_hi) in enumerate(clusters.rect_rows[a:b].tolist()):
            rows += rectangle_rows(c, k, s, e, r_lo, r_hi, grain_rectangle)
    unit_of_element = np.full(pattern.nnz, -1, dtype=np.int64)
    for uid, row in enumerate(rows):
        unit_of_element[row_elements(pattern, row, ecol)] = uid
    return np.array(rows, dtype=np.int64).reshape(-1, 11).T, unit_of_element


def interleaved_adaptive_oracle(pattern, updates, nprocs, grain=4, min_width=4,
                                zero_tolerance=0.0, policy="first"):
    """``(partition, assignment)`` of the interleaved adaptive pass.

    A unit's predecessors are the units owning a source of an update
    targeting it (pair sources and its column's diagonal), taken in
    ascending unit order; only allocated ones count.  As in the static
    scheduler's step 1, every independent column is wrapped and charged
    up front, before the scan.
    """
    clusters = find_clusters(pattern, min_width=min_width, zero_tolerance=zero_tolerance)
    cols = pattern.element_cols()
    ew = updates.element_work().astype(np.float64)
    order = np.argsort(updates.target, kind="stable")
    sorted_targets = updates.target[order]
    source_i, source_j = updates.source_i, updates.source_j
    unit_of_element = np.full(pattern.nnz, -1, dtype=np.int64)
    rows, proc = [], []
    work = np.zeros(nprocs, dtype=np.float64)
    marker = 0

    # Step 1: column s is updated iff some k < s has L[s, k] != 0.
    incoming = np.bincount(pattern.rowidx[pattern.rowidx != cols], minlength=pattern.n)
    wrapped = {}
    for c in range(len(clusters)):
        s = int(clusters.col_lo[c])
        if clusters.is_column[c] and incoming[s] == 0:
            wrapped[c] = len(wrapped) % nprocs
            lo, hi = pattern.indptr[s], pattern.indptr[s + 1]
            work[wrapped[c]] += ew[lo:hi].sum()

    def take_marker():
        nonlocal marker
        p, marker = marker, (marker + 1) % nprocs
        return p

    def predecessor_procs(elements):
        """Processors of the allocated predecessors, ascending unit
        order, each once."""
        lo = np.searchsorted(sorted_targets, elements, side="left")
        hi = np.searchsorted(sorted_targets, elements, side="right")
        idx = np.concatenate([order[a:b] for a, b in zip(lo, hi)] + [order[:0]])
        sources = np.concatenate([source_i[idx], source_j[idx], pattern.indptr[cols[elements]]])
        units = np.unique(unit_of_element[sources])
        out = []
        for u in units[units >= 0].tolist():
            if proc[u] not in out:
                out.append(proc[u])
        return out

    def add(row, p=None):
        """Append a unit; allocate it to ``p`` unless ``p`` is None."""
        uid = len(rows)
        rows.append(row)
        proc.append(-1)
        elements = row_elements(pattern, row, cols)
        if p is not None:
            allocate(uid, elements, p)
        return uid, elements

    def allocate(uid, elements, p, charge=True):
        proc[uid] = p
        unit_of_element[elements] = uid
        if charge:
            work[p] += ew[elements].sum()

    for c in range(len(clusters)):
        s, e = int(clusters.col_lo[c]), int(clusters.col_hi[c])
        if clusters.is_column[c]:
            uid, elements = add((_COLUMN, _COLUMN, c, s, s, s, int(clusters.column_row_hi[c]), 0, 0, 0, 0))
            if c in wrapped:
                allocate(uid, elements, wrapped[c], charge=False)
                continue
            preds = predecessor_procs(elements)
            if not preds or policy == "round_robin":
                p = take_marker()
            elif policy == "first":
                p = preds[0]
            else:  # least_loaded
                p = min(set(preds), key=lambda q: (work[q], q))
            allocate(uid, elements, p)
            continue

        # Parameter (a): the triangle's allocated predecessors cap its split.
        preds = predecessor_procs(elements_in_region(pattern, s, e, s, e, True, cols))
        p_a = []
        for row in triangle_rows(c, s, e, grain, len(preds) or None):
            uid, elements = add(row)
            p = next((q for q in predecessor_procs(elements) if q not in p_a), None)
            p = take_marker() if p is None else p
            p_a.append(p)
            allocate(uid, elements, p)
        a, b = clusters.rect_indptr[c], clusters.rect_indptr[c + 1]
        for k, (r_lo, r_hi) in enumerate(clusters.rect_rows[a:b].tolist()):
            ordered = sorted(set(p_a), key=lambda q: (work[q], q))
            for slot, row in enumerate(rectangle_rows(c, k, s, e, r_lo, r_hi, grain)):
                add(row, ordered[slot % len(ordered)])

    table = np.array(rows, dtype=np.int64).reshape(-1, 11).T
    partition = Partition(pattern, clusters, table, unit_of_element, grain, grain)
    proc_of_unit = np.asarray(proc, dtype=np.int64)
    assignment = Assignment("block-adaptive", nprocs, pattern,
                            proc_of_unit[unit_of_element], proc_of_unit, partition)
    return partition, assignment

"""Core oracles, kept for the tests to compare against.

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
from repro.core.partitioner import (
    _COLUMN,
    Partition,
    _elements_in_region,
    _rectangle_rows,
    _row_elements,
    _triangle_rows,
)


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
        elements = _row_elements(pattern, row, cols)
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
        preds = predecessor_procs(_elements_in_region(pattern, s, e, s, e, True, cols))
        p_a = []
        for row in _triangle_rows(c, s, e, grain, len(preds) or None):
            uid, elements = add(row)
            p = next((q for q in predecessor_procs(elements) if q not in p_a), None)
            p = take_marker() if p is None else p
            p_a.append(p)
            allocate(uid, elements, p)
        a, b = clusters.rect_indptr[c], clusters.rect_indptr[c + 1]
        for k, (r_lo, r_hi) in enumerate(clusters.rect_rows[a:b].tolist()):
            ordered = sorted(set(p_a), key=lambda q: (work[q], q))
            for slot, row in enumerate(_rectangle_rows(c, k, s, e, r_lo, r_hi, grain)):
                add(row, ordered[slot % len(ordered)])

    table = np.array(rows, dtype=np.int64).reshape(-1, 11).T
    partition = Partition(pattern, clusters, table, unit_of_element, grain, grain)
    proc_of_unit = np.asarray(proc, dtype=np.int64)
    assignment = Assignment("block-adaptive", nprocs, pattern,
                            proc_of_unit[unit_of_element], proc_of_unit, partition)
    return partition, assignment

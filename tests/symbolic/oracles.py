"""Symbolic-factorization oracles: the two ``*_reference`` bodies that
used to live in ``src/``, kept for the tests to compare against.

Neither reads the lower adjacency through
``SymmetricGraph.lower_adjacency`` or climbs a tree the way
``symbolic_cholesky`` does: both take a *well-formed* graph (sorted
rows, both triangles stored), permute it with ``SymmetricGraph.permute``
and read ``neighbors()``.

* :func:`merge_oracle` — the column-merge recurrence
  ``struct(L_j) = {j} ∪ adj_lower(A'_j) ∪ ⋃_{parent(c)=j} (struct(L_c) − {c})``
  with ``np.unique`` per column.  It takes the elimination tree from
  its own columns (``parent(c)`` is the first row below the diagonal of
  column c), so it shares no code with ``repro.symbolic`` at all.
* :func:`row_walk_counts_oracle` — column counts by the full row-subtree
  traversal, the O(nnz(L)) definition the Gilbert–Ng–Peyton skeleton
  count short-cuts.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.pattern import LowerPattern, SymmetricGraph
from repro.symbolic.etree import etree
from repro.symbolic.fill import SymbolicFactor


def _permuted(graph: SymmetricGraph, perm):
    if perm is None:
        return graph, np.arange(graph.n, dtype=np.int64)
    perm = np.asarray(perm, dtype=np.int64)
    return graph.permute(perm), perm


def merge_oracle(graph: SymmetricGraph, perm=None) -> SymbolicFactor:
    """Structure of L and elimination tree of P A Pᵀ by per-column merges."""
    work, perm = _permuted(graph, perm)
    n = work.n
    parent = np.full(n, -1, dtype=np.int64)
    children: list[list[int]] = [[] for _ in range(n)]
    cols: list[np.ndarray] = []
    for j in range(n):
        nbrs = work.neighbors(j)
        pieces = [np.array([j], dtype=np.int64), nbrs[nbrs > j]]
        for c in children[j]:
            pieces.append(cols[c][1:])  # drop the child's diagonal entry c
        col = np.unique(np.concatenate(pieces))
        cols.append(col)
        if len(col) > 1:
            parent[j] = col[1]
            children[int(col[1])].append(j)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(c) for c in cols])
    rowidx = np.concatenate(cols) if n else np.zeros(0, dtype=np.int64)
    return SymbolicFactor(LowerPattern(n, indptr, rowidx), parent, perm)


def row_walk_counts_oracle(graph: SymmetricGraph, perm=None) -> np.ndarray:
    """nnz per column of L (diagonal included): entry (i, j) of L exists
    iff j is on the elimination-tree path from some k ∈ adj_lower(A'_i)
    up to i."""
    work, _ = _permuted(graph, perm)
    n = work.n
    parent = etree(work)
    counts = np.ones(n, dtype=np.int64)  # diagonals
    mark = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        mark[i] = i
        for k in work.neighbors(i):
            k = int(k)
            if k >= i:
                continue
            # Walk up the tree from k until reaching a column already
            # marked for row i; every new column gains entry (i, col).
            while mark[k] != i:
                mark[k] = i
                counts[k] += 1
                k = int(parent[k])
                assert k >= 0, "row subtree escaped the tree"
    return counts

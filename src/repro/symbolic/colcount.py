"""Column and row nonzero counts of the Cholesky factor.

Counts are derivable without forming the full symbolic factor:
:func:`column_counts` is Gilbert–Ng–Peyton skeleton counting — only the
*leaves* of each row subtree contribute, with over-counts cancelled at
least common ancestors found by a path-compressed union-find.  It runs
in O(nnz(A) α) instead of O(nnz(L)), which is what the paper's
arithmetic-work figure (:func:`sequential_work`) and Table 1's
nnz(L) (:func:`factor_nnz`) need when the factor itself is not wanted.
"""

from __future__ import annotations

import numpy as np

from ..sparse.pattern import SymmetricGraph
from .etree import etree, postorder
from .fill import symbolic_cholesky

__all__ = [
    "column_counts",
    "gnp_column_counts",
    "row_counts",
    "factor_nnz",
    "sequential_work",
]


def column_counts(graph: SymmetricGraph, perm=None) -> np.ndarray:
    """nnz per column of L (diagonal included), by Gilbert–Ng–Peyton
    skeleton counting.

    For each row subtree only its leaves add to a column's count; the
    double-counted shared path above two consecutive leaves is removed
    at their least common ancestor, located with a path-compressed
    union-find keyed by first descendants in a postorder.
    """
    return gnp_column_counts(graph, etree(graph, perm), perm)


def gnp_column_counts(graph: SymmetricGraph, parent: np.ndarray, perm=None) -> np.ndarray:
    """Gilbert–Ng–Peyton counts for P A Pᵀ whose elimination tree
    ``parent`` is known (see :func:`column_counts`)."""
    n = graph.n
    _, adj_ptr, adj = graph.lower_adjacency(perm)
    # The skeleton is read by column: rows i > j of column j, which is
    # the row CSR transposed (a stable sort keeps the rows ascending).
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(adj, minlength=n), out=indptr[1:])
    rows = np.repeat(np.arange(n), np.diff(adj_ptr))
    indices = rows[np.argsort(adj, kind="stable")].tolist()
    indptr = indptr.tolist()
    post = postorder(parent)
    parent_l = parent.tolist()
    # first[j] = postorder rank of j's first (deepest-leftmost) descendant;
    # delta starts at 1 for etree leaves (their diagonal) and 0 otherwise.
    first = [-1] * n
    delta = [0] * n
    for k, j in enumerate(post.tolist()):
        if first[j] == -1:
            delta[j] = 1  # j is a leaf of the elimination tree
        while j != -1 and first[j] == -1:
            first[j] = k
            j = parent_l[j]
    maxfirst = [-1] * n
    prevleaf = [-1] * n
    ancestor = list(range(n))
    for j in post.tolist():
        p = parent_l[j]
        if p != -1:
            delta[p] -= 1  # j's path is counted within p's subtree
        for i in indices[indptr[j] : indptr[j + 1]]:
            # j is a leaf of row i's subtree iff no previously processed
            # neighbour of i lies in j's subtree (first-descendant test).
            if maxfirst[i] >= first[j]:
                continue
            maxfirst[i] = first[j]
            delta[j] += 1  # (i, j) starts a new path of row i's subtree
            pl = prevleaf[i]
            if pl != -1:
                # Cancel the shared path above lca(pl, j).
                q = pl
                while ancestor[q] != q:
                    q = ancestor[q]
                delta[q] -= 1
                while ancestor[pl] != pl:
                    ancestor[pl], pl = q, ancestor[pl]
            prevleaf[i] = j
        if p != -1:
            ancestor[j] = p
    # Accumulate subtree deltas up the tree (parent[j] > j in an etree).
    counts = np.asarray(delta, dtype=np.int64)
    for j in range(n):
        p = parent_l[j]
        if p != -1:
            counts[p] += counts[j]
    return counts


def row_counts(graph: SymmetricGraph, perm=None) -> np.ndarray:
    """nnz per row of L (diagonal included)."""
    factor = symbolic_cholesky(graph, perm)
    out = np.zeros(factor.n, dtype=np.int64)
    np.add.at(out, factor.pattern.rowidx, 1)
    return out


def factor_nnz(graph: SymmetricGraph, perm=None) -> int:
    """Total nonzeros of L, diagonal included (Table 1, last column)."""
    return int(column_counts(graph, perm).sum())


def sequential_work(graph: SymmetricGraph, perm=None) -> int:
    """Total factorization work in the paper's cost model.

    With m_k off-diagonal nonzeros in column k of L, column k generates
    m_k(m_k+1)/2 pair updates at 2 units each, and every element of L
    receives one diagonal/scale update at 1 unit:
    ``W_tot = Σ_k m_k(m_k+1) + nnz(L)``.
    """
    counts = column_counts(graph, perm)
    m = counts - 1
    return int((m * (m + 1)).sum() + counts.sum())

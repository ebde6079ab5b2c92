"""Symbolic Cholesky factorization: the zero/nonzero structure of L.

This is the input the paper's partitioner starts from ("the partitioning
starts with the zero-nonzero structure of the filled sparse matrix
obtained after the symbolic factorization phase").

:func:`symbolic_cholesky` is the classical up-looking pass: entry (i, j)
of L exists iff j lies on the elimination-tree path from some
k ∈ adj_lower(A'_i) up to i, and the tree itself grows out of the same
climbs, so one walk over the rows of the permuted lower adjacency yields
both — no separate tree, postorder or column pre-count.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..obs import trace as obs
from ..sparse.dtypes import index_dtype
from ..sparse.pattern import LowerPattern, SymmetricGraph
from .etree import tree_levels

__all__ = [
    "symbolic_cholesky",
    "fill_in",
    "SymbolicFactor",
]

#: Bumped whenever the symbolic implementation changes in a way that
#: should invalidate warm ``prepare()`` disk caches.
SYMBOLIC_IMPL_VERSION = 2


class SymbolicFactor:
    """Structure of L for P A Pᵀ, plus the elimination tree.

    Attributes
    ----------
    pattern : LowerPattern
        Structure of L (diagonal included), in the permuted index space.
    parent : ndarray
        Elimination tree of the permuted matrix.
    perm : ndarray
        The ordering used (``perm[k]`` = original index of variable k).
    """

    def __init__(self, pattern: LowerPattern, parent: np.ndarray, perm: np.ndarray):
        self.pattern = pattern
        self.parent = parent
        self.perm = perm

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    def column_counts(self) -> np.ndarray:
        return np.diff(self.pattern.indptr)


def symbolic_cholesky(graph: SymmetricGraph, perm=None) -> SymbolicFactor:
    """Compute the structure of the Cholesky factor of P A Pᵀ.

    One up-looking pass.  For row i, climb ``parent`` from each
    k ∈ adj_lower(A'_i) until a column already marked for row i: the
    columns passed are exactly row i of L.  A climb that runs out of
    tree has found a root of the forest built so far, which becomes a
    child of i — so the elimination tree needs no pass of its own, and
    no path compression either, because a climb never re-enters a
    marked column: the whole walk is O(nnz(L)).
    """
    n = graph.n
    idt = index_dtype(n)
    perm, adj_ptr, adj = graph.lower_adjacency(perm)
    adj_ptr, adj = adj_ptr.tolist(), adj.tolist()
    parent = [-1] * n
    mark = [-1] * n
    # Columns of L's entries, row after row, in one typed buffer: a
    # Python list of boxed ints would cost ~10x the factor itself.
    colbuf = array(idt.char)
    rowlen = []
    for i in range(n):
        mark[i] = i
        row = [i]
        for k in adj[adj_ptr[i] : adj_ptr[i + 1]]:
            while mark[k] != i:
                mark[k] = i
                row.append(k)
                k = parent[k]
                if k < 0:  # ran out of tree: that root hangs under i
                    parent[row[-1]] = i
                    break
        colbuf.fromlist(row)
        rowlen.append(len(row))
    cols = np.frombuffer(colbuf, dtype=idt)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    # Rows arrived ascending, so one sort of the narrow col * n + row
    # key is the CSC order, every column's diagonal first.
    key = cols.astype(index_dtype(n * n))
    key *= n
    key += np.repeat(np.arange(n, dtype=idt), rowlen)
    key.sort()
    key %= n
    parent = np.asarray(parent, dtype=np.int64)
    if obs.is_enabled():
        obs.counter("perf.symbolic.factor_nnz", len(cols))
        obs.counter("perf.symbolic.fill_entries", len(cols) - n - len(adj))
        levels = tree_levels(parent)
        obs.counter(
            "perf.symbolic.postorder_depth",
            int(levels.max()) + 1 if n else 0,
        )
    return SymbolicFactor(LowerPattern(n, indptr, key.astype(idt, copy=False)), parent, perm)


def fill_in(graph: SymmetricGraph, perm=None) -> int:
    """Number of fill entries: nnz(L) − nnz(lower(A'))."""
    factor = symbolic_cholesky(graph, perm)
    return factor.nnz - graph.nnz_lower

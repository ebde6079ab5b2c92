"""Elimination tree of a symmetric matrix (Liu 1986).

``parent[j]`` is the parent of column j in the elimination tree of the
Cholesky factor, or -1 for a root.  The tree drives the symbolic
factorization and the cluster analysis.
"""

from __future__ import annotations

import numpy as np

from ..sparse.pattern import SymmetricGraph

__all__ = ["etree", "postorder", "tree_levels", "children_lists"]


def etree(graph: SymmetricGraph, perm=None) -> np.ndarray:
    """Elimination tree of P A Pᵀ via Liu's path-compression algorithm.

    Runs in nearly O(nnz) using a virtual-ancestor (path halving) array.
    """
    n = graph.n
    # Plain lists: the walk is pointer-chasing, where per-element numpy
    # indexing costs several times a list access.
    parent = [-1] * n
    ancestor = [-1] * n
    _, adj_ptr, adj = graph.lower_adjacency(perm)
    adj_ptr, adj = adj_ptr.tolist(), adj.tolist()
    for i in range(n):
        for k in adj[adj_ptr[i] : adj_ptr[i + 1]]:
            # Walk from k up to the current root, compressing to i.
            while True:
                a = ancestor[k]
                if a == i:
                    break
                ancestor[k] = i
                if a == -1:
                    parent[k] = i
                    break
                k = a
    return np.asarray(parent, dtype=np.int64)


def children_lists(parent: np.ndarray) -> list[list[int]]:
    """children[j] = sorted list of j's children in the elimination tree."""
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        p = int(parent[j])
        if p >= 0:
            children[p].append(j)
    return children


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postordering of the elimination tree (children before parents).

    Returns ``post`` with ``post[k]`` = the node visited k-th.
    """
    n = len(parent)
    children = children_lists(parent)
    roots = [j for j in range(n) if parent[j] < 0]
    out = np.empty(n, dtype=np.int64)
    k = 0
    for root in roots:
        stack = [(root, 0)]
        while stack:
            node, ci = stack.pop()
            if ci < len(children[node]):
                stack.append((node, ci + 1))
                stack.append((children[node][ci], 0))
            else:
                out[k] = node
                k += 1
    if k != n:  # pragma: no cover - would indicate a cycle
        raise AssertionError("parent array is not a forest")
    return out


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Depth of each node (roots at level 0)."""
    n = len(parent)
    level = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        path = []
        v = j
        while v >= 0 and level[v] < 0:
            path.append(v)
            v = int(parent[v])
        base = 0 if v < 0 else int(level[v]) + 1
        for i, node in enumerate(reversed(path)):
            level[node] = base + i
    return level

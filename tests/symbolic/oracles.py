"""Symbolic-factorization oracles: the ``*_reference`` bodies that used
to live in ``src/``, kept for the tests to compare against.

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

The run-length update model of ``repro.symbolic.updates`` is checked
against three more, none of which knows about runs:

* :func:`enumerate_updates_oracle` — every pair update, one column at a
  time through ``np.tril_indices``, in the element-level layout the
  runs expand to;
* :func:`supernodes_oracle` — fundamental supernodes by comparing
  neighbouring columns in a loop;
* :func:`read_list_oracle` — the element read list the way it was built
  before the reader sequences: every read concatenated and stably
  sorted by source;
* :func:`unit_read_index_oracle` — the unit read index the way it was
  built before the runs: that read list minus own-unit reads and
  repeats of the predecessor.

The elimination tree and the factor's counts without the factor, which
no user path computes (``symbolic_cholesky`` grows the tree in its own
row walk), moved here from ``src/`` as the checks of each other and of
``symbolic_cholesky``:

* :func:`etree` — Liu's path-compression elimination tree, with
  :func:`children_lists` and :func:`postorder`;
* :func:`column_counts` / :func:`gnp_column_counts` — Gilbert–Ng–Peyton
  skeleton counting: only the *leaves* of each row subtree contribute,
  with over-counts cancelled at least common ancestors found by a
  path-compressed union-find, in O(nnz(A) α);
* :func:`row_counts`, :func:`factor_nnz`, :func:`sequential_work` — the
  row counts, nnz(L) (Table 1) and the paper's total work read off them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.dtypes import index_dtype
from repro.sparse.pattern import LowerPattern, SymmetricGraph
from repro.symbolic.fill import SymbolicFactor, symbolic_cholesky


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


@dataclass(frozen=True)
class PairUpdates:
    """The four element-level arrays of every pair update."""

    target: np.ndarray
    source_i: np.ndarray
    source_j: np.ndarray
    source_col: np.ndarray

    @property
    def num_pair_updates(self) -> int:
        return len(self.target)


#: Above this order the dense (n x n) element-id lookup is replaced by
#: per-column binary searches.
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


def enumerate_updates_oracle(pattern: LowerPattern) -> PairUpdates:
    """Every pair update, column by column in Python: column-major, then
    ``np.tril_indices`` order over each column's off-diagonal rows."""
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
        if (t < 0).any():
            raise ValueError(
                f"pattern is not closed under fill: column {k} updates a "
                "structurally-zero target"
            )
        tgt_parts.append(t)
        si_parts.append(lo + 1 + a)
        sj_parts.append(lo + 1 + b)
        k_parts.append(np.full(m * (m + 1) // 2, k, dtype=np.int64))

    empty = np.zeros(0, dtype=np.int64)
    return PairUpdates(
        target=np.concatenate(tgt_parts) if tgt_parts else empty,
        source_i=np.concatenate(si_parts) if si_parts else empty,
        source_j=np.concatenate(sj_parts) if sj_parts else empty,
        source_col=np.concatenate(k_parts) if k_parts else empty,
    )


def supernodes_oracle(pattern: LowerPattern) -> list[tuple[int, int]]:
    """Columns c and c + 1 share a supernode iff
    ``struct(col c) == {c} ∪ struct(col c + 1)``."""
    n = pattern.n
    out: list[tuple[int, int]] = []
    if n == 0:
        return out
    start = 0
    for c in range(n - 1):
        cur = pattern.col(c)
        nxt = pattern.col(c + 1)
        same = len(cur) == len(nxt) + 1 and np.array_equal(cur[1:], nxt)
        if not same:
            out.append((start, c))
            start = c + 1
    out.append((start, n - 1))
    return out


def read_list_oracle(
    pattern: LowerPattern, pairs: PairUpdates, include_scale: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """``(src, reader)`` of every read of ``pairs``: row-role, column-role,
    then scale reads, stably sorted by source."""
    srcs = [pairs.source_i, pairs.source_j]
    readers = [pairs.target, pairs.target]
    if include_scale:
        srcs.append(pattern.indptr[:-1][pattern.element_cols()])
        readers.append(np.arange(pattern.nnz))
    src, reader = np.concatenate(srcs), np.concatenate(readers)
    order = np.argsort(src, kind="stable")
    return src[order].astype(index_dtype(pattern.nnz)), reader[order]


def unit_read_index_oracle(
    partition, pattern: LowerPattern, pairs: PairUpdates, include_scale: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """``(src, reader unit)`` of the read list of ``pairs`` minus own-unit
    reads and repeats of the predecessor (same unit, same source)."""
    src, reader = read_list_oracle(pattern, pairs, include_scale)
    uoe = partition.unit_of_element.astype(index_dtype(partition.num_units))
    reader = uoe[reader]
    keep = reader != uoe[src]
    keep[1:] &= (reader[1:] != reader[:-1]) | (src[1:] != src[:-1])
    kept = np.flatnonzero(keep)
    return src[kept], reader[kept]


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

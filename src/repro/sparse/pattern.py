"""Structure-only sparse matrix types.

Two views of symmetry are used throughout the library:

* :class:`SymmetricGraph` — the adjacency structure of a symmetric matrix
  (both halves, no diagonal).  This is what orderings consume.
* :class:`LowerPattern` — a compressed-sparse-column lower-triangular
  pattern with the diagonal always present.  This is what the symbolic
  factorization produces and what the partitioner consumes.

Both are immutable after construction; all index arrays are sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtypes import as_index_array as _as_index_array
from .dtypes import as_permutation, index_dtype, linear_index

__all__ = ["SymmetricGraph", "LowerPattern"]


@dataclass(frozen=True)
class SymmetricGraph:
    """Adjacency structure of an n x n symmetric matrix.

    Stored in CSR form covering *both* triangles, diagonal excluded.
    ``indices[indptr[i]:indptr[i+1]]`` are the sorted neighbours of node
    ``i``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr must have length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr is inconsistent with indices")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, u, v) -> "SymmetricGraph":
        """Build from undirected edge lists ``(u[k], v[k])``.

        Duplicate edges and self loops are removed.
        """
        u = _as_index_array(u)
        v = _as_index_array(v)
        if len(u) != len(v):
            raise ValueError("u and v must have equal length")
        if len(u) and (u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n):
            raise ValueError("edge endpoint out of range")
        keep = u != v
        u, v = u[keep], v[keep]
        # Symmetrize, then dedupe via the linearized key of each directed
        # edge.  The sorted unique keys are already in (src, dst) order,
        # so src/dst are recovered by div/mod — no lexsort pass.
        idt = index_dtype(n)
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        key = np.unique(linear_index(src, dst, n))
        src = (key // n).astype(idt)
        dst = (key % n).astype(idt)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, dst)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SymmetricGraph":
        """Build from a dense symmetric matrix (or boolean mask)."""
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        mask = a != 0
        if not np.array_equal(mask, mask.T):
            raise ValueError("pattern is not symmetric")
        u, v = np.nonzero(np.triu(mask, 1))
        return cls.from_edges(a.shape[0], u, v)

    @classmethod
    def empty(cls, n: int) -> "SymmetricGraph":
        return cls(
            n, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=index_dtype(n))
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges (off-diagonal nonzero pairs / 2)."""
        return len(self.indices) // 2

    @property
    def nnz_lower(self) -> int:
        """Nonzeros of the lower triangle including the diagonal."""
        return self.n + self.num_edges

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, i: int | None = None):
        d = np.diff(self.indptr)
        return d if i is None else int(d[i])

    def has_edge(self, i: int, j: int) -> bool:
        nb = self.neighbors(i)
        k = np.searchsorted(nb, j)
        return bool(k < len(nb) and nb[k] == j)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (u, v) arrays with u < v, one entry per undirected edge."""
        src = np.repeat(np.arange(self.n, dtype=index_dtype(self.n)), np.diff(self.indptr))
        dst = self.indices
        keep = src < dst
        return src[keep], dst[keep]

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def permute(self, perm) -> "SymmetricGraph":
        """Apply a symmetric permutation.

        ``perm[k]`` is the old index of the node that becomes new index
        ``k`` (i.e. the elimination order).  The result G' satisfies
        G'.has_edge(k, l) == G.has_edge(perm[k], perm[l]).
        """
        perm = as_permutation(perm, self.n)
        inv = np.empty(self.n, dtype=index_dtype(self.n))
        inv[perm] = np.arange(self.n, dtype=index_dtype(self.n))
        u, v = self.edges()
        return SymmetricGraph.from_edges(self.n, inv[u], inv[v])

    def lower_adjacency(self, perm=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Strictly-lower adjacency of P A Pᵀ as a row CSR.

        Returns ``(perm, indptr, cols)``: the validated int64 ordering
        (the identity for ``perm=None``) and, for row ``i`` of the
        permuted matrix, its ascending columns ``k < i`` in
        ``cols[indptr[i]:indptr[i+1]]``.  The stored adjacency is read
        as an *edge set* — an entry counts whichever triangle it was
        stored in, rows in any order, duplicates and self loops dropped
        — so the permuted graph is never symmetrised or materialised.
        """
        n, idt = self.n, index_dtype(self.n)
        src = np.repeat(np.arange(n, dtype=idt), np.diff(self.indptr))
        dst = np.asarray(self.indices)
        bad = dst[(dst < 0) | (dst >= n)]
        if bad.size:
            raise ValueError(f"neighbour index {int(bad[0])} out of range for n = {n}")
        if perm is None:
            perm = np.arange(n, dtype=np.int64)
        else:
            perm = as_permutation(perm, n)
            inv = np.empty(n, dtype=idt)
            inv[perm] = np.arange(n, dtype=idt)
            src, dst = inv[src], inv[dst]
        key = linear_index(np.maximum(src, dst), np.minimum(src, dst), n)[src != dst]
        key.sort()
        key = key[np.diff(key, prepend=-1) != 0]
        rows = key // n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return perm, indptr, (key - rows * n).astype(idt)

    def to_dense_bool(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=bool)
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        out[src, self.indices] = True
        return out

    def lower(self) -> "LowerPattern":
        """Lower-triangular pattern (diagonal added) of this matrix."""
        u, v = self.edges()  # u < v; lower entry is (v, u): row v, col u
        diag = np.arange(self.n, dtype=index_dtype(self.n))
        rows = np.concatenate([v, diag])
        cols = np.concatenate([u, diag])
        return LowerPattern.from_entries(self.n, rows, cols)

    def __eq__(self, other) -> bool:  # pragma: no cover - trivial
        return (
            isinstance(other, SymmetricGraph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True)
class LowerPattern:
    """CSC pattern of a lower-triangular matrix with unit-present diagonal.

    ``rowidx[indptr[j]:indptr[j+1]]`` are the sorted row indices of column
    ``j``; the first entry of every column is the diagonal ``j`` itself.
    Element ids are positions in ``rowidx`` and are used throughout the
    partitioner as stable element handles.
    """

    n: int
    indptr: np.ndarray
    rowidx: np.ndarray

    def __post_init__(self) -> None:
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr must have length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.rowidx):
            raise ValueError("indptr inconsistent with rowidx")
        if self.n:
            lo = np.asarray(self.indptr[:-1])
            empty = np.flatnonzero(lo >= np.asarray(self.indptr[1:]))
            if empty.size:
                raise ValueError(
                    f"column {int(empty[0])} is missing its diagonal entry"
                )
            bad = np.flatnonzero(
                np.asarray(self.rowidx)[lo] != np.arange(self.n)
            )
            if bad.size:
                raise ValueError(f"column {int(bad[0])} is missing its diagonal entry")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_entries(cls, n: int, rows, cols) -> "LowerPattern":
        """Build from (row, col) entry lists; diagonal entries are added,
        duplicates removed, upper-triangle entries rejected."""
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        if len(rows) != len(cols):
            raise ValueError("rows and cols must have equal length")
        if len(rows) and (rows < cols).any():
            raise ValueError("entry above the diagonal in a LowerPattern")
        if len(rows) and (rows.max() >= n or cols.min() < 0):
            raise ValueError("entry out of range")
        diag = np.arange(n, dtype=index_dtype(n))
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
        key = np.unique(linear_index(cols, rows, n))
        cols = key // n
        rows = (key % n).astype(index_dtype(n))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, rows)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "LowerPattern":
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        rows, cols = np.nonzero(np.tril(a != 0))
        return cls.from_entries(a.shape[0], rows, cols)

    @classmethod
    def dense(cls, n: int) -> "LowerPattern":
        """Fully dense lower triangle of order n."""
        cols = np.repeat(np.arange(n, dtype=np.int64), np.arange(n, 0, -1))
        rows = np.concatenate([np.arange(j, n, dtype=np.int64) for j in range(n)]) \
            if n else np.zeros(0, dtype=np.int64)
        return cls.from_entries(n, rows, cols)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.rowidx)

    def col(self, j: int) -> np.ndarray:
        """Sorted row indices of column j (diagonal first)."""
        return self.rowidx[self.indptr[j] : self.indptr[j + 1]]

    def col_count(self, j: int | None = None):
        d = np.diff(self.indptr)
        return d if j is None else int(d[j])

    def offdiag_count(self, j: int | None = None):
        d = np.diff(self.indptr) - 1
        return d if j is None else int(d[j])

    def has(self, i: int, j: int) -> bool:
        return self.element_id(i, j) >= 0

    def element_id(self, i: int, j: int) -> int:
        """Position of entry (i, j) in ``rowidx``, or -1 if structurally zero."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        k = lo + np.searchsorted(self.rowidx[lo:hi], i)
        if k < hi and self.rowidx[k] == i:
            return int(k)
        return -1

    def element_ids(self, i, j) -> np.ndarray:
        """Vectorized :meth:`element_id` for arrays of rows/cols."""
        i = _as_index_array(i)
        j = _as_index_array(j)
        out = np.empty(len(i), dtype=np.int64)
        for k in range(len(i)):
            out[k] = self.element_id(int(i[k]), int(j[k]))
        return out

    def element_rows(self) -> np.ndarray:
        """Row index of every element id (alias of ``rowidx``)."""
        return self.rowidx

    def element_cols(self) -> np.ndarray:
        """Column index of every element id."""
        return np.repeat(
            np.arange(self.n, dtype=index_dtype(self.n)), np.diff(self.indptr)
        )

    def to_dense_bool(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=bool)
        out[self.rowidx, self.element_cols()] = True
        return out

    def to_symmetric_graph(self) -> SymmetricGraph:
        cols = self.element_cols()
        off = self.rowidx != cols
        return SymmetricGraph.from_edges(self.n, self.rowidx[off], cols[off])

    def contains(self, other: "LowerPattern") -> bool:
        """True if every entry of ``other`` is present here."""
        if self.n != other.n:
            return False
        mine = set(zip(self.rowidx.tolist(), self.element_cols().tolist()))
        theirs = zip(other.rowidx.tolist(), other.element_cols().tolist())
        return all(t in mine for t in theirs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LowerPattern)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.rowidx, other.rowidx)
        )

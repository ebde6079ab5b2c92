"""Numeric symmetric sparse matrices in lower-triangular CSC form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtypes import as_permutation, index_dtype
from .pattern import LowerPattern, SymmetricGraph

__all__ = ["SymmetricCSC", "LowerCSC"]


@dataclass(frozen=True)
class SymmetricCSC:
    """A symmetric matrix stored as its lower triangle (values + pattern).

    ``values[k]`` is the numeric value of element id ``k`` of ``pattern``.
    Entries may be numerically zero; the pattern is authoritative.
    """

    pattern: LowerPattern
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.pattern.nnz:
            raise ValueError("values length must equal pattern.nnz")

    @classmethod
    def from_entries(cls, n: int, rows, cols, vals) -> "SymmetricCSC":
        rows = np.asarray(rows, dtype=index_dtype(n))
        cols = np.asarray(cols, dtype=index_dtype(n))
        vals = np.asarray(vals, dtype=np.float64)
        pattern = LowerPattern.from_entries(n, rows, cols)
        values = np.zeros(pattern.nnz, dtype=np.float64)
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            values[pattern.element_id(r, c)] += v
        return cls(pattern, values)

    @classmethod
    def from_dense(cls, a: np.ndarray, tol: float = 0.0) -> "SymmetricCSC":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(a, a.T):
            raise ValueError("matrix is not symmetric")
        rows, cols = np.nonzero(np.abs(np.tril(a)) > tol)
        return cls.from_entries(a.shape[0], rows, cols, a[rows, cols])

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    def get(self, i: int, j: int) -> float:
        if i < j:
            i, j = j, i
        k = self.pattern.element_id(i, j)
        return 0.0 if k < 0 else float(self.values[k])

    def diagonal(self) -> np.ndarray:
        return self.values[self.pattern.indptr[:-1]]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.float64)
        rows = self.pattern.rowidx
        cols = self.pattern.element_cols()
        out[rows, cols] = self.values
        out[cols, rows] = self.values
        return out

    def graph(self) -> SymmetricGraph:
        return self.pattern.to_symmetric_graph()

    def permute(self, perm) -> "SymmetricCSC":
        """Symmetric permutation: result[k, l] = self[perm[k], perm[l]]."""
        perm = as_permutation(perm, self.n)
        inv = np.empty(self.n, dtype=index_dtype(self.n))
        inv[perm] = np.arange(self.n, dtype=index_dtype(self.n))
        rows = inv[self.pattern.rowidx]
        cols = inv[self.pattern.element_cols()]
        lo_r = np.maximum(rows, cols)
        lo_c = np.minimum(rows, cols)
        return SymmetricCSC.from_entries(self.n, lo_r, lo_c, self.values)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Symmetric matrix-vector product using only the stored triangle."""
        x = np.asarray(x, dtype=np.float64)
        rows = self.pattern.rowidx
        cols = self.pattern.element_cols()
        y = np.zeros(self.n, dtype=np.float64)
        np.add.at(y, rows, self.values * x[cols])
        off = rows != cols
        np.add.at(y, cols[off], self.values[off] * x[rows[off]])
        return y


@dataclass(frozen=True)
class LowerCSC:
    """A lower-triangular factor: values aligned with a :class:`LowerPattern`."""

    pattern: LowerPattern
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.pattern.nnz:
            raise ValueError("values length must equal pattern.nnz")

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    def get(self, i: int, j: int) -> float:
        k = self.pattern.element_id(i, j)
        return 0.0 if k < 0 else float(self.values[k])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.float64)
        out[self.pattern.rowidx, self.pattern.element_cols()] = self.values
        return out

"""Conversions to and from scipy.sparse.

The library's own structures are deliberately minimal; these adapters
let users bring matrices from the scipy ecosystem (and push factors back
into it) without touching internals.  scipy is imported by the
adapters themselves, so importing :mod:`repro` does not load it.
"""

from __future__ import annotations

import numpy as np

from .csc import LowerCSC, SymmetricCSC
from .pattern import SymmetricGraph

__all__ = [
    "symmetric_from_scipy",
    "graph_from_scipy",
    "symmetric_to_scipy",
    "lower_to_scipy",
]


def symmetric_from_scipy(matrix, tol: float = 0.0) -> SymmetricCSC:
    """Build a :class:`SymmetricCSC` from any scipy sparse matrix.

    The matrix must be numerically symmetric (checked to ``tol`` + a
    small relative slack); only the lower triangle is stored.
    """
    import scipy.sparse as sp
    m = sp.coo_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    asym = abs(m - m.T)
    if asym.nnz and asym.max() > max(tol, 1e-12 * max(abs(m.max()), 1.0)):
        raise ValueError("matrix is not symmetric")
    keep = m.row >= m.col
    return SymmetricCSC.from_entries(
        m.shape[0], m.row[keep], m.col[keep], m.data[keep]
    )


def graph_from_scipy(matrix) -> SymmetricGraph:
    """Adjacency structure of a scipy sparse matrix's symmetric pattern
    (the pattern is symmetrized; values are ignored)."""
    import scipy.sparse as sp
    m = sp.coo_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    off = m.row != m.col
    return SymmetricGraph.from_edges(m.shape[0], m.row[off], m.col[off])


def symmetric_to_scipy(a: SymmetricCSC):
    """Expand a :class:`SymmetricCSC` to a full (both-triangles) scipy CSC."""
    import scipy.sparse as sp
    rows = a.pattern.rowidx
    cols = a.pattern.element_cols()
    offd = rows != cols
    r = np.concatenate([rows, cols[offd]])
    c = np.concatenate([cols, rows[offd]])
    v = np.concatenate([a.values, a.values[offd]])
    return sp.coo_matrix((v, (r, c)), shape=(a.n, a.n)).tocsc()


def lower_to_scipy(L: LowerCSC):
    """A :class:`LowerCSC` factor as a scipy lower-triangular CSC."""
    import scipy.sparse as sp
    rows = L.pattern.rowidx
    cols = L.pattern.element_cols()
    return sp.coo_matrix((L.values, (rows, cols)), shape=(L.n, L.n)).tocsc()

"""Numerical Cholesky factorization (sparse left-looking).

The sparse routine consumes the symbolic structure produced by
:func:`repro.symbolic.symbolic_cholesky` and fills in the values — the
"numerical factorization" step of the paper's four-step pipeline.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import LowerCSC, SymmetricCSC
from ..sparse.pattern import LowerPattern
from ..symbolic.fill import SymbolicFactor, symbolic_cholesky

__all__ = ["sparse_cholesky", "NotPositiveDefiniteError"]


class NotPositiveDefiniteError(ValueError):
    """Raised when a non-positive pivot is encountered."""

    def __init__(self, column: int, pivot: float):
        super().__init__(
            f"matrix is not positive definite: pivot {pivot:g} at column {column}"
        )
        self.column = column
        self.pivot = pivot


def sparse_cholesky(
    a: SymmetricCSC, symbolic: SymbolicFactor | None = None
) -> LowerCSC:
    """Left-looking sparse Cholesky.

    ``symbolic`` must be the symbolic factor of ``a`` with the identity
    ordering (i.e. ``a`` is already permuted).  If omitted it is computed
    here.  Column j is built by scattering A's column into a dense work
    vector, subtracting every update from columns k with L[j, k] != 0,
    then scaling by the pivot square root.
    """
    if symbolic is None:
        symbolic = symbolic_cholesky(a.graph())
    pat: LowerPattern = symbolic.pattern
    n = a.n
    values = np.zeros(pat.nnz, dtype=np.float64)
    work = np.zeros(n, dtype=np.float64)

    # Row lists: for row j, the (element id, column k) of each L[j, k], k < j.
    row_elems: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    apat = a.pattern
    for j in range(n):
        lo, hi = pat.indptr[j], pat.indptr[j + 1]
        struct = pat.rowidx[lo:hi]

        # Scatter column j of A (lower part).
        alo, ahi = apat.indptr[j], apat.indptr[j + 1]
        work[apat.rowidx[alo:ahi]] = a.values[alo:ahi]

        # Apply updates from every column k that has a nonzero in row j.
        for eid, k in row_elems[j]:
            ljk = values[eid]
            klo = eid  # element (j, k) position; entries below it have rows >= j
            khi = pat.indptr[k + 1]
            rows = pat.rowidx[klo:khi]
            np.subtract.at(work, rows, ljk * values[klo:khi])

        pivot = work[j]
        if pivot <= 0.0:
            work[struct] = 0.0
            raise NotPositiveDefiniteError(j, float(pivot))
        d = np.sqrt(pivot)
        colvals = work[struct]
        colvals[0] = d
        colvals[1:] = colvals[1:] / d
        values[lo:hi] = colvals
        work[struct] = 0.0

        # Register this column in the row lists of its off-diagonal rows.
        for off, i in enumerate(struct[1:].tolist(), start=1):
            row_elems[i].append((lo + off, j))

    return LowerCSC(pat, values)

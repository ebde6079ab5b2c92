"""Numeric oracles: the sequential triangular solves and the four-step
SPD solver that used to live in ``src/``, kept as the references the
distributed solves of ``repro.mpsim`` are compared against.

* :func:`solve_lower`, :func:`solve_lower_transpose` — column-oriented
  forward and back substitution with a ``LowerCSC`` factor.
* :class:`SPDSolver`, :func:`solve_spd` — the paper's four steps (§2):
  1. ordering (permutation P), 2. symbolic factorization, 3. numerical
  factorization, 4. triangular solves:  L u = P b,  Lᵀ v = u,  x = Pᵀ v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numeric import sparse_cholesky
from repro.ordering import order as order_graph
from repro.sparse.csc import LowerCSC, SymmetricCSC
from repro.symbolic.fill import SymbolicFactor, symbolic_cholesky


def solve_lower(L: LowerCSC, b: np.ndarray) -> np.ndarray:
    """Solve L x = b by column-oriented forward substitution."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (L.n,):
        raise ValueError(f"b must have shape ({L.n},)")
    x = b.copy()
    pat = L.pattern
    for j in range(L.n):
        lo, hi = pat.indptr[j], pat.indptr[j + 1]
        xj = x[j] / L.values[lo]
        x[j] = xj
        if hi > lo + 1:
            x[pat.rowidx[lo + 1 : hi]] -= xj * L.values[lo + 1 : hi]
    return x


def solve_lower_transpose(L: LowerCSC, b: np.ndarray) -> np.ndarray:
    """Solve Lᵀ x = b by column-oriented (row of Lᵀ) back substitution."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (L.n,):
        raise ValueError(f"b must have shape ({L.n},)")
    x = b.copy()
    pat = L.pattern
    for j in range(L.n - 1, -1, -1):
        lo, hi = pat.indptr[j], pat.indptr[j + 1]
        if hi > lo + 1:
            x[j] -= float(L.values[lo + 1 : hi] @ x[pat.rowidx[lo + 1 : hi]])
        x[j] /= L.values[lo]
    return x


@dataclass
class SPDSolver:
    """A factored SPD system ready for repeated solves.

    Attributes
    ----------
    perm : ndarray
        Ordering used (perm[k] = original index of permuted variable k).
    symbolic : SymbolicFactor
        Structure of L in the permuted space.
    factor : LowerCSC
        The numerical Cholesky factor of P A Pᵀ.
    """

    perm: np.ndarray
    symbolic: SymbolicFactor
    factor: LowerCSC

    @classmethod
    def factorize(cls, a: SymmetricCSC, ordering: str = "mmd") -> "SPDSolver":
        perm = order_graph(a.graph(), ordering)
        permuted = a.permute(perm)
        # The symbolic factor of the permuted matrix with identity ordering.
        symbolic = symbolic_cholesky(permuted.graph())
        factor = sparse_cholesky(permuted, symbolic)
        return cls(np.asarray(perm, dtype=np.int64), symbolic, factor)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.factor.n,):
            raise ValueError(f"b must have shape ({self.factor.n},)")
        pb = b[self.perm]
        u = solve_lower(self.factor, pb)
        v = solve_lower_transpose(self.factor, u)
        x = np.empty_like(v)
        x[self.perm] = v
        return x


def solve_spd(a: SymmetricCSC, b: np.ndarray, ordering: str = "mmd") -> np.ndarray:
    """Solve A x = b for SPD sparse A; convenience one-shot wrapper."""
    return SPDSolver.factorize(a, ordering).solve(b)

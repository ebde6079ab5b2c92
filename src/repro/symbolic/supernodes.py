"""Fundamental supernode detection.

A fundamental supernode is a maximal strip of consecutive columns
[s, e] where each column c has struct(L_c) = {c} ∪ struct(L_{c+1}) for
c < e.  The paper's *clusters* (dense-diagonal strips) are a relaxation;
supernodes are the strictest case, and the unit the run-length update
model of :mod:`repro.symbolic.updates` is built on.
"""

from __future__ import annotations

import numpy as np

from ..sparse.pattern import LowerPattern

__all__ = ["supernode_bounds", "fundamental_supernodes", "supernode_of_column"]


def supernode_bounds(pattern: LowerPattern) -> np.ndarray:
    """First column of every fundamental supernode, then ``n`` (int64).

    Column c joins column c + 1 iff it is one entry longer and its
    entries after the diagonal are column c + 1's, one for one: entry
    ``e`` of column c faces entry ``e + count[c] - 1``.  One comparison
    per entry of L, on any pattern (fill-closed or not).
    """
    n = pattern.n
    count = np.diff(pattern.indptr)
    joins = count[:-1] == count[1:] + 1
    col = pattern.element_cols()
    e = np.flatnonzero((pattern.rowidx != col) & np.append(joins, False)[col])
    shift = count[col[e]] - 1
    joins[col[e[pattern.rowidx[e] != pattern.rowidx[e + shift]]]] = False
    return np.append(np.flatnonzero(np.append(n > 0, ~joins)), n).astype(np.int64)


def fundamental_supernodes(pattern: LowerPattern) -> list[tuple[int, int]]:
    """Maximal supernodes as (start, end) inclusive column ranges."""
    bounds = supernode_bounds(pattern).tolist()
    return [(s, e - 1) for s, e in zip(bounds, bounds[1:])]


def supernode_of_column(pattern: LowerPattern) -> np.ndarray:
    """Map column -> index of its fundamental supernode."""
    width = np.diff(supernode_bounds(pattern))
    return np.repeat(np.arange(len(width), dtype=np.int64), width)

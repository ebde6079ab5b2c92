"""Elimination-tree parallelism statistics.

The paper argues its scheme "provides enough parallelism to keep the
idle time to a minimum" when processors are few relative to schedulable
units.  The elimination tree bounds that parallelism: tree height caps
the critical path of column-level elimination and the width profile
bounds how many columns are ever simultaneously ready.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.pattern import SymmetricGraph
from .etree import etree, tree_levels

__all__ = ["TreeStats", "tree_stats"]


@dataclass(frozen=True)
class TreeStats:
    """Shape statistics of an elimination tree."""

    n: int
    height: int
    num_leaves: int
    num_roots: int
    width_profile: np.ndarray  # nodes per level

    @property
    def max_width(self) -> int:
        return int(self.width_profile.max()) if len(self.width_profile) else 0

    @property
    def average_parallelism(self) -> float:
        """n / height: the level-parallel speedup bound for unit-cost
        columns."""
        return self.n / max(self.height, 1)


def tree_stats(graph: SymmetricGraph, perm=None) -> TreeStats:
    """Statistics of the elimination tree of P A Pᵀ."""
    parent = etree(graph, perm)
    n = len(parent)
    if n == 0:
        return TreeStats(0, 0, 0, 0, np.zeros(0, dtype=np.int64))
    levels = tree_levels(parent)
    height = int(levels.max()) + 1
    has_child = np.zeros(n, dtype=bool)
    for j in range(n):
        p = int(parent[j])
        if p >= 0:
            has_child[p] = True
    return TreeStats(
        n=n,
        height=height,
        num_leaves=int((~has_child).sum()),
        num_roots=int((parent < 0).sum()),
        width_profile=np.bincount(levels, minlength=height).astype(np.int64),
    )

"""Computational-work accounting (paper §4 cost model).

Updating an element by a pair of off-diagonal elements costs **2**
units; the diagonal/scale update of an element costs **1** unit.  The
work assigned to a processor is the work of the elements it owns.
"""

from __future__ import annotations

import numpy as np

from ..symbolic.updates import UpdateSet
from .assignment import Assignment

__all__ = [
    "processor_work",
    "unit_work",
    "total_work",
]


def processor_work(assignment: Assignment, updates: UpdateSet) -> np.ndarray:
    """Work units per processor under owner-computes."""
    ew = updates.element_work().astype(np.float64)
    out = np.bincount(
        assignment.owner_of_element, weights=ew, minlength=assignment.nprocs
    )
    return out.astype(np.int64)


def unit_work(partition, updates: UpdateSet) -> np.ndarray:
    """Work units per unit block of a partition."""
    ew = updates.element_work()
    out = np.zeros(partition.num_units, dtype=np.int64)
    np.add.at(out, partition.unit_of_element, ew)
    return out


def total_work(updates: UpdateSet) -> int:
    """Total (partition-invariant) work: 2·#pair-updates + nnz(L)."""
    return updates.total_work()

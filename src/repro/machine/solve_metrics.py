"""Work and traffic accounting for the triangular-solve phase.

The paper's conclusion notes that "in real applications factoring is
only a part of the overall solution ... other computations such as
triangular solves can provide additional flexibility in balancing the
load which is not taken into account here".  This module extends the §4
cost model to the solves so that claim can be quantified:

* **Work** — each off-diagonal nonzero L[i, j] costs one multiply-add
  (charged to its owner), each column one division (charged to the
  diagonal's owner).  One forward plus one backward solve doubles it.
* **Traffic** — owner-computes with the paper's fetch-once rule:
  the owner of element (i, j) reads the solution value x_j (held by the
  owner of the diagonal (j, j)); the accumulator of row i (held by the
  owner of (i, i)) reads one aggregated contribution per remote
  contributing processor.  The backward solve is symmetric with the
  roles of i and j exchanged.  :mod:`repro.mpsim.solve` executes exactly
  this: one message per fetch counted here.
"""

from __future__ import annotations

import numpy as np

from ..core.assignment import Assignment
from ..core.metrics import LoadBalance, load_balance
from ..core.traffic import TrafficResult

__all__ = ["solve_work", "solve_traffic", "solve_balance"]


def solve_work(assignment: Assignment, both_sweeps: bool = True) -> np.ndarray:
    """Work per processor for the triangular solve(s).

    One unit per off-diagonal multiply-add, one per diagonal division;
    ``both_sweeps`` charges the forward and the backward solve.
    """
    owner = assignment.owner_of_element
    per_proc = np.bincount(owner, minlength=assignment.nprocs).astype(np.int64)
    return 2 * per_proc if both_sweeps else per_proc


def solve_balance(assignment: Assignment, both_sweeps: bool = True) -> LoadBalance:
    return load_balance(solve_work(assignment, both_sweeps))


def _sweep_traffic(
    elem_owner: np.ndarray,
    diag_owner_of_col: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    n: int,
    nprocs: int,
) -> np.ndarray:
    """Distinct non-local fetches for one forward sweep.

    ``rows``/``cols`` are the off-diagonal coordinates and ``elem_owner``
    their owners; element (i, j)'s owner reads x_j; row i's accumulator
    owner reads one aggregate per remote contributing processor.
    """
    # Reads of solution values: (element owner, source column) pairs.
    key = np.unique(elem_owner.astype(np.int64) * np.int64(n) + cols)
    proc = key // n
    src_col = key % n
    nonlocal_x = proc != diag_owner_of_col[src_col]
    per_proc = np.bincount(proc[nonlocal_x], minlength=nprocs)

    # Aggregated contributions: (accumulator owner, row, contributing proc).
    acc_owner = diag_owner_of_col[rows]
    contrib_key = np.unique(
        (acc_owner.astype(np.int64) * np.int64(n) + rows) * np.int64(nprocs)
        + elem_owner
    )
    a_owner = contrib_key // (n * nprocs)
    contributing = contrib_key % nprocs
    remote = a_owner != contributing
    per_proc = per_proc + np.bincount(a_owner[remote], minlength=nprocs)
    return per_proc.astype(np.int64)


def solve_traffic(assignment: Assignment, both_sweeps: bool = True) -> TrafficResult:
    """Distinct-fetch traffic of the triangular solve phase."""
    pattern = assignment.pattern
    owner = assignment.owner_of_element
    cols = pattern.element_cols()
    off = pattern.rowidx != cols
    rows, cols, elem_owner = pattern.rowidx[off], cols[off], owner[off]
    diag_owner = owner[pattern.indptr[:-1]]
    n = pattern.n
    forward = _sweep_traffic(
        elem_owner, diag_owner, rows, cols, n, assignment.nprocs
    )
    if not both_sweeps:
        return TrafficResult(forward)
    # Backward sweep (Lᵀ): element (i, j) contributes L[i,j]·x_i to the
    # dot product of column j — swap the roles of rows and columns.
    backward = _sweep_traffic(
        elem_owner, diag_owner, cols, rows, n, assignment.nprocs
    )
    return TrafficResult(forward + backward)

"""Distributed triangular solves under element (block) ownership.

Completes the distributed execution of a block schedule: after
:func:`repro.mpsim.distributed_block_cholesky`, the factor's values are
spread element-wise across processors.  The solves run owner-computes at
the same granularity:

* **forward** (L x = b): when x_j is finalized by the owner of the
  diagonal (j, j), it is sent to every processor owning an off-diagonal
  element of column j; each such processor computes its contributions
  L[i,j]·x_j and ships one aggregated batch per accumulator owner.
* **backward** (Lᵀ x = b): symmetric, with solution values flowing from
  high to low columns and per-column partial dot products aggregated at
  the diagonal owners.

Both match the sequential solves to machine precision for any ownership
map (asserted in the tests).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import LowerCSC
from .comm import ANY_SOURCE, Comm
from .engine import gather_on_ranks

__all__ = ["distributed_block_forward_solve", "distributed_block_backward_solve"]

_TAG_FWD = 6
_TAG_BWD = 7


def _column_owner_sets(pattern, owner):
    """For each column j: processors owning its off-diagonal elements."""
    n = pattern.n
    out: list[set[int]] = [set() for _ in range(n)]
    cols = pattern.element_cols()
    for e in range(pattern.nnz):
        j = int(cols[e])
        if int(pattern.rowidx[e]) != j:
            out[j].add(int(owner[e]))
    return out


def distributed_block_forward_solve(
    L: LowerCSC,
    b: np.ndarray,
    owner_of_element: np.ndarray,
    nprocs: int,
    timeout: float | None = 120.0,
) -> np.ndarray:
    """Solve L x = b with element-granular owner-computes."""
    pattern = L.pattern
    n = pattern.n
    owner = np.asarray(owner_of_element, dtype=np.int64)
    if len(owner) != pattern.nnz:
        raise ValueError("owner_of_element must cover every factor element")
    diag_eids = pattern.indptr[:-1]
    diag_owner = owner[diag_eids]
    cols = pattern.element_cols()
    col_owners = _column_owner_sets(pattern, owner)

    # pending[i]: number of off-diagonal row-i elements (each delivers one
    # contribution into acc[i]).
    pending_global = np.zeros(n, dtype=np.int64)
    offdiag = pattern.rowidx != cols
    np.add.at(pending_global, pattern.rowidx[offdiag], 1)

    def rank_fn(comm: Comm):
        me = comm.rank
        my_diag_cols = [j for j in range(n) if diag_owner[j] == me]
        acc = {j: float(b[j]) for j in my_diag_cols}
        pending = {j: int(pending_global[j]) for j in my_diag_cols}
        x: dict[int, float] = {}

        # Off-diagonal elements I own, grouped by column.
        my_col_elems: dict[int, list[int]] = {}
        for e in np.nonzero(owner == me)[0].tolist():
            j = int(cols[e])
            if int(pattern.rowidx[e]) != j:
                my_col_elems.setdefault(j, []).append(e)

        # Message expectations.
        expected_x = sum(
            1 for j in my_col_elems if diag_owner[j] != me
        )
        expected_contrib = 0
        contrib_sources: dict[tuple[int, int], int] = {}
        for e in np.nonzero(offdiag)[0].tolist():
            i = int(pattern.rowidx[e])
            if int(diag_owner[i]) == me and int(owner[e]) != me:
                key = (int(cols[e]), int(owner[e]))
                contrib_sources[key] = contrib_sources.get(key, 0) + 1
        expected_contrib = len(contrib_sources)

        def emit_contributions(j: int, xj: float):
            """Apply/ship my contributions L[i,j]*xj for column j."""
            newly = []
            by_dest: dict[int, list[tuple[int, float]]] = {}
            for e in my_col_elems.get(j, ()):
                i = int(pattern.rowidx[e])
                delta = float(L.values[e]) * xj
                dest = int(diag_owner[i])
                if dest == me:
                    acc[i] -= delta
                    pending[i] -= 1
                    if pending[i] == 0:
                        newly.append(i)
                else:
                    by_dest.setdefault(dest, []).append((i, delta))
            for dest, items in by_dest.items():
                comm.send(("contrib", j, items), dest, _TAG_FWD)
            return newly

        def finalize(j: int):
            d = float(L.values[diag_eids[j]])
            xj = acc[j] / d
            x[j] = xj
            newly = []
            for p in sorted(col_owners[j] - {me}):
                comm.send(("x", j, xj), p, _TAG_FWD)
            if me in col_owners[j]:
                newly.extend(emit_contributions(j, xj))
            return newly

        ready = sorted(j for j in my_diag_cols if pending[j] == 0)
        got_x = 0
        got_contrib = 0
        while (
            len(x) < len(my_diag_cols)
            or got_x < expected_x
            or got_contrib < expected_contrib
        ):
            while ready:
                ready.extend(finalize(ready.pop(0)))
                ready.sort()
            if (
                len(x) == len(my_diag_cols)
                and got_x == expected_x
                and got_contrib == expected_contrib
            ):
                break  # the ready-drain completed the remaining work
            payload = comm.recv(ANY_SOURCE, _TAG_FWD)
            if payload[0] == "x":
                got_x += 1
                _, j, xj = payload
                ready.extend(emit_contributions(j, xj))
            else:
                got_contrib += 1
                _, _j, items = payload
                for i, delta in items:
                    acc[i] -= delta
                    pending[i] -= 1
                    if pending[i] == 0:
                        ready.append(i)
            ready.sort()
        return x, None

    return gather_on_ranks(rank_fn, n, nprocs, timeout)[0]


def distributed_block_backward_solve(
    L: LowerCSC,
    b: np.ndarray,
    owner_of_element: np.ndarray,
    nprocs: int,
    timeout: float | None = 120.0,
) -> np.ndarray:
    """Solve Lᵀ x = b with element-granular owner-computes."""
    pattern = L.pattern
    n = pattern.n
    owner = np.asarray(owner_of_element, dtype=np.int64)
    if len(owner) != pattern.nnz:
        raise ValueError("owner_of_element must cover every factor element")
    diag_eids = pattern.indptr[:-1]
    diag_owner = owner[diag_eids]
    cols = pattern.element_cols()
    offdiag_ids = np.nonzero(pattern.rowidx != cols)[0]

    # Row-wise owner sets: who owns elements with row i (j < i)?
    row_owners: list[set[int]] = [set() for _ in range(n)]
    for e in offdiag_ids.tolist():
        row_owners[int(pattern.rowidx[e])].add(int(owner[e]))

    # Per column: number of contributing processors into its dot product.
    dot_sources: list[set[int]] = [set() for _ in range(n)]
    for e in offdiag_ids.tolist():
        dot_sources[int(cols[e])].add(int(owner[e]))

    def rank_fn(comm: Comm):
        me = comm.rank
        my_diag_cols = [j for j in range(n) if diag_owner[j] == me]
        x: dict[int, float] = {}
        acc = {j: float(b[j]) for j in my_diag_cols}
        pending_procs = {
            j: len(dot_sources[j]) for j in my_diag_cols
        }

        # My off-diagonal elements grouped by row (the x value they need)
        # and by column (the dot they contribute to).
        my_by_row: dict[int, list[int]] = {}
        my_cols_count: dict[int, int] = {}
        for e in np.nonzero(owner == me)[0].tolist():
            i, j = int(pattern.rowidx[e]), int(cols[e])
            if i == j:
                continue
            my_by_row.setdefault(i, []).append(e)
            my_cols_count[j] = my_cols_count.get(j, 0) + 1

        partial: dict[int, float] = {}  # column -> my partial dot
        remaining = dict(my_cols_count)  # elements not yet folded per column

        expected_x = sum(1 for i in my_by_row if diag_owner[i] != me)
        expected_dots = sum(
            1 for j in my_diag_cols for p in dot_sources[j] if p != me
        )

        def fold_x(i: int, xi: float):
            """Fold x_i into my partial dots; ship completed columns."""
            newly = []
            for e in my_by_row.get(i, ()):
                j = int(cols[e])
                partial[j] = partial.get(j, 0.0) + float(L.values[e]) * xi
                remaining[j] -= 1
                if remaining[j] == 0:
                    dest = int(diag_owner[j])
                    if dest == me:
                        acc[j] -= partial[j]
                        pending_procs[j] -= 1
                        if pending_procs[j] == 0:
                            newly.append(j)
                    else:
                        comm.send(("dot", j, partial[j]), dest, _TAG_BWD)
            return newly

        def finalize(j: int):
            xj = acc[j] / float(L.values[diag_eids[j]])
            x[j] = xj
            newly = []
            for p in sorted(row_owners[j] - {me}):
                comm.send(("x", j, xj), p, _TAG_BWD)
            if me in row_owners[j]:
                newly.extend(fold_x(j, xj))
            return newly

        ready = sorted(
            (j for j in my_diag_cols if pending_procs[j] == 0), reverse=True
        )
        got_x = 0
        got_dots = 0
        while (
            len(x) < len(my_diag_cols)
            or got_x < expected_x
            or got_dots < expected_dots
        ):
            while ready:
                ready.extend(finalize(ready.pop(0)))
                ready.sort(reverse=True)
            if (
                len(x) == len(my_diag_cols)
                and got_x == expected_x
                and got_dots == expected_dots
            ):
                break  # the ready-drain completed the remaining work
            payload = comm.recv(ANY_SOURCE, _TAG_BWD)
            if payload[0] == "x":
                got_x += 1
                _, i, xi = payload
                ready.extend(fold_x(i, xi))
            else:
                got_dots += 1
                _, j, dot = payload
                acc[j] -= dot
                pending_procs[j] -= 1
                if pending_procs[j] == 0:
                    ready.append(j)
            ready.sort(reverse=True)
        return x, None

    return gather_on_ranks(rank_fn, n, nprocs, timeout)[0]

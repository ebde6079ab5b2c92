"""Distributed triangular solves: one owner-computes sweep.

After a distributed factorization the factor's values are spread over
the processors, element by element (block schedule) or column by column
(a column owns all of its elements).  Both solves are the same sweep
over the off-diagonal elements: element (i, j) reads ``x[src]`` and adds
``L[i, j] * x[src]`` into its owner's partial sum for ``dst``, with
(src, dst) = (j, i) for L x = b and (i, j) for Lᵀ x = b.  Unknowns are
numbered in solve order (j forward, n - 1 - j backward), so src < dst
and the lowest ready task first is the right order for both.

* the owner of diagonal ``t`` finishes x_t once the partial sum of every
  contributing processor is in, and sends it to every other processor
  owning an element that reads it;
* a processor whose last element for ``dst`` has been folded in sends
  its partial sum, one scalar, to the owner of diagonal ``dst``.

These are the two fetches :func:`repro.machine.solve_traffic` charges:
the messages a rank receives are its modelled traffic, in each
direction, for any ownership map (asserted in the tests), and the
solution matches the sequential solves to rounding.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import LowerCSC
from .engine import Countdown, Endpoint, gather_on_ranks, remote_peers, run_tasks

__all__ = [
    "distributed_forward_solve",
    "distributed_backward_solve",
    "distributed_block_forward_solve",
    "distributed_block_backward_solve",
]

_TAG_SOLVE = 6


def _sweep(L: LowerCSC, b: np.ndarray, owner_of_element: np.ndarray, nprocs: int,
           backward: bool) -> np.ndarray:
    """Solve L x = b, or Lᵀ x = b if ``backward``, by the sweep of the
    module docstring.  Bad input is refused before any rank starts."""
    pattern = L.pattern
    n = pattern.n
    owner = np.asarray(owner_of_element, dtype=np.int64)
    if len(owner) != pattern.nnz:
        raise ValueError("owner_of_element must cover every factor element")
    if len(owner) and (owner.min() < 0 or owner.max() >= nprocs):
        raise ValueError("owner out of range")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},)")
    pivot = L.values[pattern.indptr[:-1]]
    if not pivot.all():
        raise ValueError(f"zero on the diagonal of L in column {int(np.argmin(pivot != 0))}")
    cols = pattern.element_cols()
    off = pattern.rowidx != cols
    src, dst = cols[off], pattern.rowidx[off]
    home = owner[pattern.indptr[:-1]]  # who finishes each unknown
    if backward:
        src, dst = n - 1 - dst, n - 1 - src
        home, pivot, b = home[::-1], pivot[::-1], b[::-1]
    reader, coef = owner[off], L.values[off]
    # The other processors reading x_t, and how many others hold a
    # partial sum for t.
    read_ptr, read_proc = remote_peers(src, reader, home, nprocs)
    n_remote = np.diff(remote_peers(dst, reader, home, nprocs)[0])
    home_of = home.tolist()

    def rank(comm: Endpoint):
        me = comm.rank
        mine = np.flatnonzero(home == me)
        held = np.flatnonzero(reader == me)
        held = held[np.argsort(src[held], kind="stable")]
        weight, into = coef[held], dst[held]
        # acc[t] is b[t] minus what has reached me of t's sum on my
        # unknowns (x_t once finished) and, elsewhere, minus the partial
        # sum I owe t's owner.
        acc = np.zeros(n)
        acc[mine] = b[mine]
        # waiting.count[t] = my elements still to fold into t, plus, for
        # an unknown of mine, the partial sums still to arrive.
        waiting = Countdown(src[held], into, n, np.where(home == me, n_remote, 0))

        def fold(t: int, xt: float) -> list[int]:
            lo, hi = waiting.ptr[t], waiting.ptr[t + 1]
            acc[into[lo:hi]] -= weight[lo:hi] * xt
            ready = []
            for d in waiting.fire(t):
                if home_of[d] == me:
                    ready.append(d)
                else:
                    comm.send((False, d, float(acc[d])), home_of[d], _TAG_SOLVE)
            return ready

        def finish(t: int) -> list[int]:
            acc[t] = xt = float(acc[t] / pivot[t])
            for dest in read_proc[read_ptr[t] : read_ptr[t + 1]].tolist():
                comm.send((True, t, xt), dest, _TAG_SOLVE)
            return fold(t, xt)

        def receive(is_x: bool, t: int, value: float) -> list[int]:
            if is_x:
                return fold(t, value)
            acc[t] += value
            waiting.count[t] -= 1
            return [] if waiting.count[t] else [t]

        yield from run_tasks(
            [t for t in mine.tolist() if not waiting.count[t]], len(mine),
            int(np.count_nonzero(read_proc == me) + n_remote[mine].sum()),
            finish, receive,
        )
        return dict(zip(mine.tolist(), acc[mine].tolist())), None

    name = "backward_solve" if backward else "forward_solve"
    x = gather_on_ranks(rank, n, nprocs, name)[0]
    return x[::-1].copy() if backward else x


def distributed_block_forward_solve(
    L: LowerCSC, b: np.ndarray, owner_of_element: np.ndarray, nprocs: int
) -> np.ndarray:
    """Solve L x = b with element-granular owner-computes."""
    return _sweep(L, b, owner_of_element, nprocs, backward=False)


def distributed_block_backward_solve(
    L: LowerCSC, b: np.ndarray, owner_of_element: np.ndarray, nprocs: int
) -> np.ndarray:
    """Solve Lᵀ x = b with element-granular owner-computes."""
    return _sweep(L, b, owner_of_element, nprocs, backward=True)


def _column_owners(L: LowerCSC, proc_of_col: np.ndarray) -> np.ndarray:
    """The element owners of a column map: a column owns its elements."""
    proc_of_col = np.asarray(proc_of_col, dtype=np.int64)
    if len(proc_of_col) != L.n:
        raise ValueError("proc_of_col must map every column")
    return proc_of_col[L.pattern.element_cols()]


def distributed_forward_solve(
    L: LowerCSC, b: np.ndarray, proc_of_col: np.ndarray, nprocs: int
) -> np.ndarray:
    """Solve L x = b with the columns of L owned by ``proc_of_col``."""
    return _sweep(L, b, _column_owners(L, proc_of_col), nprocs, backward=False)


def distributed_backward_solve(
    L: LowerCSC, b: np.ndarray, proc_of_col: np.ndarray, nprocs: int
) -> np.ndarray:
    """Solve Lᵀ x = b with the columns of L owned by ``proc_of_col``."""
    return _sweep(L, b, _column_owners(L, proc_of_col), nprocs, backward=True)

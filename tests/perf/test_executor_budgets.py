"""What the numeric executors read of the updates, pinned without a clock.

Fan-out and fan-in apply a source column's pair updates as one slice of
a per-column table read off the supernode runs, and the block executor
expands its segments from the runs: none of them, nor the solve sweep,
builds a per-pair array.  Pinned by patching the four per-pair
expansions of ``UpdateSet`` to raise while the executors run, and the
bytes by the ``tracemalloc`` peak of one call on LAP30 at P = 2.  Per-pair
set-up read 12.6 / 12.6 / 13.6 MB there (fan-out / fan-in / block); the
run tables 4.3 / 4.3 / 6.4 MB.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import block_mapping, prepare
from repro.mpsim import (
    distributed_backward_solve,
    distributed_block_backward_solve,
    distributed_block_cholesky,
    distributed_block_forward_solve,
    distributed_cholesky,
    distributed_cholesky_fanin,
    distributed_forward_solve,
)
from repro.numeric import sparse_cholesky
from repro.sparse import load, spd_from_graph
from repro.symbolic.updates import UpdateSet

NPROCS = 2
EXPANSIONS = ("target", "source_i", "source_j", "source_col")


def _forbidden(*args, **kwargs):
    raise AssertionError("a per-pair expansion in a numeric executor")


def _lap30():
    graph = load("LAP30")
    prep = prepare(graph, name="LAP30")
    a = spd_from_graph(graph, 0).permute(prep.perm)
    return prep, a, np.arange(a.n) % NPROCS, block_mapping(prep, NPROCS, grain=25)


def _factorizations(prep, a, owners, block):
    return {
        "fanout": lambda: distributed_cholesky(a, prep.pattern, owners, NPROCS),
        "fanin": lambda: distributed_cholesky_fanin(a, prep.pattern, owners, NPROCS),
        "block": lambda: distributed_block_cholesky(
            a, block.partition, block.assignment, prep.updates, block.dependencies
        ),
    }


def test_no_per_pair_arrays(monkeypatch):
    prep, a, owners, block = _lap30()
    want = sparse_cholesky(a, prep.symbolic)
    for attr in EXPANSIONS:
        monkeypatch.setattr(UpdateSet, attr, property(_forbidden))
    for name, run in _factorizations(prep, a, owners, block).items():
        L, _ = run()
        assert np.allclose(L.values, want.values, rtol=0.0, atol=1e-10), name
    b = np.linspace(1.0, 2.0, a.n)
    element_owners = block.assignment.owner_of_element
    for solve, by in ((distributed_forward_solve, owners),
                      (distributed_backward_solve, owners),
                      (distributed_block_forward_solve, element_owners),
                      (distributed_block_backward_solve, element_owners)):
        assert np.isfinite(solve(want, b, by, NPROCS)).all()


@pytest.mark.parametrize("name, budget_mb", [("fanout", 6), ("fanin", 6), ("block", 8)])
def test_peak_of_one_call(name, budget_mb):
    run = _factorizations(*_lap30())[name]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget_mb * 1e6

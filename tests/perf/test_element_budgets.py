"""What the element kernel reads of the updates, pinned without a clock.

Owner arrays with no unit-level view (2-D cyclic, random owners) and the
unit DAG of an arbitrary element→unit map run the stamp kernel over the
element read index, which is a view of the updates' reader sequences:
no per-pair array and no sort.  Pinned by patching the four per-pair
expansions to raise while the user-facing calls run, and the bytes by a
``tracemalloc`` peak per pair update.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import Assignment, prepare, two_d_cyclic
from repro.machine import communication_matrix, data_traffic, unit_graph
from repro.sparse import grid9, load
from repro.symbolic import enumerate_updates
from repro.symbolic.updates import UpdateSet

MATRICES = ("LAP30", "CANN1072")


def _forbidden(*args, **kwargs):
    raise AssertionError("not on the element path")


@pytest.mark.parametrize("name", MATRICES)
def test_no_per_pair_arrays(name, monkeypatch):
    pattern = prepare(load(name), name=name).pattern
    for attr in ("source_i", "source_j", "source_col", "target"):
        monkeypatch.setattr(UpdateSet, attr, property(_forbidden))
    updates = enumerate_updates(pattern)
    owners = np.random.default_rng(0).integers(0, 16, size=pattern.nnz)
    cells = [two_d_cyclic(pattern, 4, 4), Assignment("random", 16, pattern, owners)]
    for include_scale in (True, False):
        for cell in cells:
            data_traffic(cell, updates, include_scale)
            communication_matrix(cell, updates, include_scale)
        unit_graph(two_d_cyclic(pattern, 2, 3).owner_of_element, updates, 6, include_scale)


def test_element_traffic_peak_per_pair():
    """One 2-D cyclic (4 x 4) traffic figure on a fresh ``UpdateSet``,
    its reader sequences included: the last commit that sorted a read
    list read 60.9 B per pair update here with the sequences already
    built."""
    pattern = prepare(grid9(80, 80)).pattern
    updates = enumerate_updates(pattern)
    cell = two_d_cyclic(pattern, 4, 4)
    tracemalloc.start()
    try:
        data_traffic(cell, updates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / updates.num_pair_updates <= 16

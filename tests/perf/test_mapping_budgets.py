"""What the mapping path reads of the updates, pinned without a clock.

The mapping path — partition, dependencies, schedule (block and
adaptive), traffic, work — reads the run-length updates and nothing
finer: no element read index and no per-pair array.  Both are pinned
by patching the element-level builders to raise while the user-facing
calls run (``target`` alone stays allowed: the end-to-end benchmark
reads ``len(updates.target)`` once per pass), and the bytes by
``tracemalloc`` peaks per pair update.
A block cell's traffic counts each segment of the unit read index once,
expanding no read at all.
"""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    adaptive_block_mapping,
    block_mapping,
    block_mappings,
    partition_prepared,
    prepare,
    schedule_blocks,
    wrap_mapping,
    wrap_mappings,
)
from repro.core.partitioner import Partition
from repro.machine import data_traffic
from repro.perf import sweep
from repro.sparse import grid9, load, social_graph
from repro.symbolic import enumerate_updates
from repro.symbolic.updates import ReadIndex, UpdateSet

MATRICES = ("LAP30", "CANN1072")


def _forbidden(*args, **kwargs):
    raise AssertionError("not on the mapping path")


def _map_every_way(name):
    prepared = prepare(load(name), name=name)
    block_mapping(prepared, 16, grain=25)
    wrap_mapping(prepared, 16)
    partitioned = partition_prepared(prepared, grain=4)
    block_mappings(partitioned, (4, 64))
    wrap_mappings(prepared, (4, 64))
    sweep([name], procs=(4, 16), grains=(25,))
    adaptive_block_mapping(prepared, 16, grain=4)


@pytest.mark.parametrize("name", MATRICES)
def test_no_element_read_list(name, monkeypatch):
    for module in [m for k, m in sys.modules.items() if k.startswith("repro.")]:
        if hasattr(module, "build_read_index"):
            monkeypatch.setattr(module, "build_read_index", _forbidden)
    _map_every_way(name)


@pytest.mark.parametrize("name", MATRICES)
def test_no_per_pair_arrays(name, monkeypatch):
    for attr in ("source_i", "source_j", "source_col"):
        monkeypatch.setattr(UpdateSet, attr, property(_forbidden))
    _map_every_way(name)


def _mapping_peak_per_pair(graph) -> float:
    prepared = prepare(graph)
    tracemalloc.start()
    try:
        updates = prepared.updates
        partitioned = partition_prepared(prepared, grain=25)
        block_mappings(partitioned, (16, 64))
        wrap_mappings(prepared, (16, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / updates.num_pair_updates


def test_mapping_peak_per_pair_on_a_fill_heavy_grid():
    """The element read list alone was 24 B per pair update (two reads
    per pair at 4 + 4 B, plus its sort): the last commit that built it
    read 65.5 B per pair here, the runs 13-14."""
    assert _mapping_peak_per_pair(grid9(80, 80)) <= 24


def test_mapping_peak_per_pair_on_a_low_fill_network():
    """Width-1 supernodes: a run per pair, so what the runs save here is
    only the read list — no more than what the line layout costs (the
    last commit that built the read list read 164.3 B per pair)."""
    graph = social_graph(20000, chords_per_node=0.8, max_len=64, seed=0)
    assert _mapping_peak_per_pair(graph) <= 164


def test_enumeration_and_expansion_bytes():
    """The runs plus the four arrays: live, 4 B per array per pair and at
    most 12 B per run; at peak, no more than the last commit that stored
    the four arrays (44.9 B per pair)."""
    pattern = prepare(load("LAP30")).pattern
    tracemalloc.start()
    try:
        updates = enumerate_updates(pattern)
        for attr in ("target", "source_i", "source_j", "source_col"):
            getattr(updates, attr)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs, runs = updates.num_pair_updates, len(updates.run_target)
    assert (pairs, runs) == (232_956, 58_119)
    assert live <= 16 * pairs + 12 * runs
    assert peak <= 44.9 * pairs


def _block_cell(name: str, grain: int, nprocs: int):
    """``(updates, cell, fresh)``: a block cell of ``name`` and the same
    cell over a copy of its partition with nothing memoised on it, as
    the partition cache hands one out."""
    prepared = prepare(load(name), name=name)
    pm = partition_prepared(prepared, grain=grain)
    cell = schedule_blocks(pm.partition, pm.dependencies, nprocs, unit_work=pm.unit_work)
    p = cell.partition
    fresh = Partition(p.pattern, p.clusters, p.table, p.unit_of_element,
                      p.grain_triangle, p.grain_rectangle)
    return prepared.updates, cell, dataclasses.replace(cell, partition=fresh)


@pytest.mark.parametrize("name", MATRICES)
def test_block_traffic_expands_no_read(name, monkeypatch):
    """Building the unit read index and counting a cell over it expands
    neither the index's slices nor any other ragged range."""
    updates, cell, fresh = _block_cell(name, 4, 16)
    want = data_traffic(cell, updates).per_processor
    monkeypatch.setattr(ReadIndex, "reads", _forbidden)
    for module in [m for k, m in sys.modules.items() if k.startswith("repro.")]:
        if hasattr(module, "ragged_range"):
            monkeypatch.setattr(module, "ragged_range", _forbidden)
    got = data_traffic(fresh, updates).per_processor
    monkeypatch.undo()
    np.testing.assert_array_equal(got, want)


def test_block_traffic_peak_per_call():
    """One ``data_traffic`` call of a LAP30 g = 4 block cell on P = 1024
    processors, over a fresh partition, so the call builds the unit read
    index too.  The table of (segment, processor) slots is capped at
    ``DEFAULT_CHUNK_READS`` (4 MB) as the stamp table it replaces was.
    Measured with numpy 2.4.6: the per-read stamp kernel over the
    expanded unit index peaked at 6 964 784 B, the per-line pass at
    5 007 931 B; the bound leaves the pass 11 % and stays below the
    stamp kernel's peak."""
    updates, _cell, fresh = _block_cell("LAP30", 4, 1024)
    tracemalloc.start()
    try:
        data_traffic(fresh, updates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_600_000

"""The chunked traffic kernel vs the independent oracle.

The contract the streaming kernel must keep: for ANY chunk size the
accumulated counts equal :func:`tests.conftest.traffic_oracle` — the
paper's definition, sharing nothing with the kernel — on every bundled
matrix.  Chunk boundaries are snapped to source-run starts, so no
(processor, source) pair can be double-counted across chunks, and a
chunk's sources are kept within one stamp table; these tests drive the
kernel at adversarially tiny chunk sizes where any snapping or
table-bound bug shows up immediately.
"""

import numpy as np
import pytest

from repro.core import (
    partition_prepared,
    prepare,
    schedule_blocks,
    wrap_assignment,
)
from repro.machine import build_read_index, read_chunk_bounds
from repro.machine.traffic import fetch_counts, kernel_inputs
from repro.sparse import harwell_boeing as hb

from ..conftest import bare_owners, traffic_oracle

PROCS = (3, 16, 64)


@pytest.fixture(scope="module", params=hb.names())
def prepped(request):
    return prepare(hb.load(request.param), name=request.param)


@pytest.fixture(scope="module")
def mixed_batch(prepped):
    """Block and wrap assignments at three processor counts — the block
    cells both as scheduled (the unit read index) and as bare owners
    with no unit-level view (the element read list, which wrap cells
    take through ``kernel_inputs`` anyway) — with the oracle's answer
    for each."""
    pm = partition_prepared(prepped, grain=25, min_width=4)
    block = [
        schedule_blocks(pm.partition, pm.dependencies, p, unit_work=pm.unit_work)
        for p in PROCS
    ]
    wrap = [wrap_assignment(prepped.pattern, p) for p in PROCS]
    bare = [bare_owners(a) for a in block]
    assignments = block + bare + wrap
    expected = [
        traffic_oracle(a.owner_of_element, a.nprocs, prepped.updates)
        for a in assignments
    ]
    return assignments, expected


class TestChunkedBitIdentity:
    @pytest.mark.parametrize("chunk_reads", [1, 7, 1000, 10**9, 0])
    def test_every_bundled_matrix(self, prepped, mixed_batch, chunk_reads):
        assignments, expected = mixed_batch
        index = build_read_index(prepped.updates)
        for a, want in zip(assignments, expected):
            inputs = kernel_inputs(a, prepped.updates, read_index=index)
            got = fetch_counts(*inputs, chunk_reads=chunk_reads)
            np.testing.assert_array_equal(got, want)


class TestReadChunkBounds:
    def test_trivial_cases(self):
        assert read_chunk_bounds(np.zeros(0, dtype=np.int32), 10) == [0]
        src = np.array([0, 0, 1], dtype=np.int32)
        assert read_chunk_bounds(src, 0) == [0, 3]  # 0 disables chunking
        assert read_chunk_bounds(src, 10) == [0, 3]

    def test_bounds_never_split_a_source_run(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            runs = rng.integers(1, 9, size=rng.integers(1, 40))
            src = np.repeat(np.arange(len(runs)), runs).astype(np.int32)
            chunk = int(rng.integers(1, 12))
            bounds = read_chunk_bounds(src, chunk)
            assert bounds[0] == 0 and bounds[-1] == len(src)
            assert bounds == sorted(set(bounds))
            for b in bounds[1:-1]:
                assert src[b] != src[b - 1], "boundary splits a source run"

    def test_giant_single_run_becomes_one_chunk(self):
        src = np.zeros(100, dtype=np.int32)
        assert read_chunk_bounds(src, 7) == [0, 100]

    def test_covers_all_reads_exactly_once(self):
        src = np.repeat(np.arange(20), 3).astype(np.int32)
        bounds = read_chunk_bounds(src, 4)
        spans = list(zip(bounds, bounds[1:]))
        assert sum(hi - lo for lo, hi in spans) == len(src)
        assert all(hi > lo for lo, hi in spans)

    def test_max_span_bounds_the_source_range_of_a_chunk(self):
        """What keeps a chunk's keys inside one stamp table: its source
        ids lie less than ``max_span`` apart, gaps in the ids included."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            ids = np.cumsum(rng.integers(1, 6, size=rng.integers(1, 40)))
            src = np.repeat(ids, rng.integers(1, 5, size=len(ids))).astype(np.int32)
            chunk, span = int(rng.integers(1, 12)), int(rng.integers(1, 9))
            bounds = read_chunk_bounds(src, chunk, span)
            assert bounds[0] == 0 and bounds[-1] == len(src)
            assert bounds == sorted(set(bounds))
            for lo, hi in zip(bounds, bounds[1:]):
                assert src[hi - 1] - src[lo] < span
                assert hi == len(src) or src[hi] != src[hi - 1]

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
from repro.machine import batched_traffic, build_read_index, read_chunk_bounds
from repro.sparse import harwell_boeing as hb

from ..conftest import traffic_oracle

PROCS = (3, 16, 64)


@pytest.fixture(scope="module", params=hb.names())
def prepped(request):
    return prepare(hb.load(request.param), name=request.param)


@pytest.fixture(scope="module")
def mixed_batch(prepped):
    """Block and wrap owner arrays at three processor counts, with the
    oracle's answer for each."""
    pm = partition_prepared(prepped, grain=25, min_width=4)
    block = [
        schedule_blocks(pm.partition, pm.dependencies, p, unit_work=pm.unit_work)
        for p in PROCS
    ]
    wrap = [wrap_assignment(prepped.pattern, p) for p in PROCS]
    assignments = block + wrap
    owners = [a.owner_of_element for a in assignments]
    nprocs = [a.nprocs for a in assignments]
    expected = [
        traffic_oracle(o, p, prepped.updates) for o, p in zip(owners, nprocs)
    ]
    return owners, nprocs, expected


class TestChunkedBitIdentity:
    @pytest.mark.parametrize("chunk_reads", [1, 7, 1000, 10**9, 0])
    def test_every_bundled_matrix(self, prepped, mixed_batch, chunk_reads):
        owners, nprocs, expected = mixed_batch
        index = build_read_index(prepped.updates)
        chunked = batched_traffic(
            prepped.updates, owners, nprocs, read_index=index,
            chunk_reads=chunk_reads,
        )
        assert len(chunked) == len(expected)
        for got, want in zip(chunked, expected):
            np.testing.assert_array_equal(got.per_processor, want)

    def test_env_override(self, prepped, mixed_batch, monkeypatch):
        owners, nprocs, expected = mixed_batch
        monkeypatch.setenv("REPRO_BATCH_CHUNK_READS", "13")
        chunked = batched_traffic(prepped.updates, owners, nprocs)
        for got, want in zip(chunked, expected):
            np.testing.assert_array_equal(got.per_processor, want)


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

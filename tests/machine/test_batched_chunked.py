"""The chunked traffic kernel vs the independent oracle.

The contract the streaming kernel must keep: for ANY chunk size the
accumulated counts equal :func:`tests.conftest.traffic_oracle` — the
paper's definition, sharing nothing with the kernel — on every bundled
matrix.  A chunk is a range of consecutive segments of the read index,
so a segment — and with it every source whose slice is a suffix of it —
never straddles two chunks, and a chunk holds at most ``chunk_reads``
table slots (segments x processors) or exactly one segment; these tests
drive the kernel at adversarially tiny chunk sizes where any range or
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
from repro.core.traffic import DEFAULT_CHUNK_READS, distinct_fetches, fetch_counts, kernel_inputs, segment_chunks
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
    with no unit-level view (the element read index, which wrap cells
    take through ``kernel_inputs`` too) — with the oracle's answer
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
        for a, want in zip(assignments, expected):
            inputs = kernel_inputs(a, prepped.updates)
            got = fetch_counts(*inputs, chunk_reads=chunk_reads)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunk_reads", [1, 7, 1000, 0])
    def test_no_source_in_two_chunks(self, prepped, mixed_batch, chunk_reads):
        """Every chunk's fetches are of sources no other chunk yields,
        read in the chunk's own segments: whole segments, at most
        ``chunk_reads`` table slots of them or one."""
        assignments, _expected = mixed_batch
        slots = chunk_reads or DEFAULT_CHUNK_READS
        for a in assignments:
            inputs = kernel_inputs(a, prepped.updates)
            bounds, first = inputs[2].bounds, inputs[2].first
            chunks = segment_chunks(bounds, chunk_reads, a.nprocs)
            fetched = list(distinct_fetches(*inputs, chunk_reads=chunk_reads))
            assert len(fetched) == len(chunks) - 1
            seen = np.zeros(prepped.pattern.nnz, dtype=bool)
            for (_proc, src), lo, hi in zip(fetched, chunks, chunks[1:]):
                assert (hi - lo) * a.nprocs <= slots or hi - lo == 1
                segment = np.searchsorted(bounds, first[src], side="right") - 1
                assert ((lo <= segment) & (segment < hi)).all()
                assert not seen[src].any()
                seen[np.unique(src)] = True


def _chunks(lengths, chunk, nprocs=1):
    """``segment_chunks`` given each segment's number of entries."""
    return segment_chunks(np.cumsum([0, *lengths]), chunk, nprocs)


def _assert_chunks(lengths, chunk, nprocs):
    """The bounds cover the segments in ascending ranges of whole
    segments with at most ``chunk`` entries and ``chunk`` table slots
    (segments x ``nprocs``), or of one segment with more."""
    bounds = _chunks(lengths, chunk, nprocs)
    assert bounds[0] == 0 and bounds[-1] == len(lengths)
    for lo, hi in zip(bounds, bounds[1:]):
        assert hi > lo
        fits = sum(lengths[lo:hi]) <= chunk and (hi - lo) * nprocs <= chunk
        assert fits or hi - lo == 1
    return bounds


def _span(segments, chunk, nprocs):
    """The longest chunk the slot limit leaves: the segments spread over
    as few chunks as it allows."""
    fewest = -(-segments // max(1, chunk // nprocs))
    return -(-segments // fewest)


class TestReadChunkBounds:
    def test_trivial_cases(self):
        assert _chunks([], 10) == [0]
        assert _chunks([2, 1], 10) == [0, 2]
        assert _chunks([2, 1], 2) == [0, 1, 2]
        assert _chunks([0, 0, 0], 3) == [0, 3]
        assert _chunks([0, 0, 0], 1) == [0, 1, 2, 3]
        assert _chunks([1] * 5, 0) == _chunks([1] * 5, None) == [0, 5]

    def test_bounds_never_split_a_source_run(self):
        """Bounds are segment ids: a segment, which holds the whole slice
        of each of its sources, is never cut, and each chunk is as long
        as the entry limit and the spread of the slot limit allow."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            lengths = rng.integers(0, 9, size=rng.integers(1, 40)).tolist()
            chunk, nprocs = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            bounds = _assert_chunks(lengths, chunk, nprocs)
            span = _span(len(lengths), chunk, nprocs)
            for lo, hi in zip(bounds, bounds[1:-1]):
                assert hi - lo == span or sum(lengths[lo:hi + 1]) > chunk

    def test_giant_single_run_becomes_one_chunk(self):
        assert _chunks([100], 7) == [0, 1]
        assert _chunks([1, 100, 1], 7) == [0, 1, 2, 3]

    def test_covers_all_reads_exactly_once(self):
        lengths = [3] * 20
        bounds = _assert_chunks(lengths, 4, 1)
        assert bounds == list(range(21))
        assert sum(sum(lengths[lo:hi]) for lo, hi in zip(bounds, bounds[1:])) == 60

    def test_max_span_bounds_the_source_range_of_a_chunk(self):
        """What keeps a chunk's keys inside one table: at most
        ``chunk_reads // nprocs`` segments, so at most ``chunk_reads``
        slots — in as few chunks as that allows, none longer than they
        need to be, so the table is no larger either."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            segments = int(rng.integers(1, 40))
            chunk, nprocs = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            bounds = _assert_chunks([0] * segments, chunk, nprocs)
            assert len(bounds) - 1 == -(-segments // max(1, chunk // nprocs))
            assert max(np.diff(bounds)) == _span(segments, chunk, nprocs)

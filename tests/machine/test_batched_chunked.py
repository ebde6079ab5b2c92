"""The chunked traffic kernel vs the independent oracle.

The contract the streaming kernel must keep: for ANY chunk size the
accumulated counts equal :func:`tests.conftest.traffic_oracle` — the
paper's definition, sharing nothing with the kernel — on every bundled
matrix.  A chunk is a range of consecutive source elements, so a
source's reads, one slice of the index, never straddle two chunks, and
a chunk's sources are kept within one stamp table; these tests drive the
kernel at adversarially tiny chunk sizes where any range or table-bound
bug shows up immediately.
"""

import numpy as np
import pytest

from repro.core import (
    partition_prepared,
    prepare,
    schedule_blocks,
    wrap_assignment,
)
from repro.machine.traffic import distinct_fetches, fetch_counts, kernel_inputs, source_chunks
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
        """Every chunk's fetches are of sources no other chunk yields."""
        assignments, _expected = mixed_batch
        for a in assignments:
            seen = np.zeros(prepped.pattern.nnz, dtype=bool)
            for _proc, src in distinct_fetches(*kernel_inputs(a, prepped.updates),
                                               chunk_reads=chunk_reads):
                assert not seen[src].any()
                seen[np.unique(src)] = True


def _chunks(lengths, chunk, span):
    """``source_chunks`` given each source's number of reads."""
    return source_chunks(np.cumsum([0, *lengths]), chunk, span)


def _assert_chunks(lengths, chunk, span):
    """The bounds cover the sources in ascending ranges of at most
    ``span`` sources and ``chunk`` reads, or of one source with more."""
    bounds = _chunks(lengths, chunk, span)
    assert bounds[0] == 0 and bounds[-1] == len(lengths)
    for lo, hi in zip(bounds, bounds[1:]):
        assert 0 < hi - lo <= span
        assert sum(lengths[lo:hi]) <= chunk or hi - lo == 1
    return bounds


class TestReadChunkBounds:
    def test_trivial_cases(self):
        assert _chunks([], 10, 10) == [0]
        assert _chunks([2, 1], 10, 10) == [0, 2]
        assert _chunks([2, 1], 2, 10) == [0, 1, 2]
        assert _chunks([0, 0, 0], 1, 10) == [0, 3]

    def test_bounds_never_split_a_source_run(self):
        """Bounds are source ids: a source is never cut, and each chunk is
        as long as both limits allow."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            lengths = rng.integers(0, 9, size=rng.integers(1, 40)).tolist()
            chunk, span = int(rng.integers(1, 12)), int(rng.integers(1, 9))
            bounds = _assert_chunks(lengths, chunk, span)
            for lo, hi in zip(bounds, bounds[1:-1]):
                assert hi - lo == span or sum(lengths[lo:hi + 1]) > chunk

    def test_giant_single_run_becomes_one_chunk(self):
        assert _chunks([100], 7, 10) == [0, 1]
        assert _chunks([1, 100, 1], 7, 10) == [0, 1, 2, 3]

    def test_covers_all_reads_exactly_once(self):
        lengths = [3] * 20
        bounds = _assert_chunks(lengths, 4, 100)
        assert bounds == list(range(21))
        assert sum(sum(lengths[lo:hi]) for lo, hi in zip(bounds, bounds[1:])) == 60

    def test_max_span_bounds_the_source_range_of_a_chunk(self):
        """What keeps a chunk's keys inside one stamp table: at most
        ``max_span`` sources, sources without reads included."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            lengths = rng.integers(0, 3, size=rng.integers(1, 40)).tolist()
            span = int(rng.integers(1, 9))
            _assert_chunks(lengths, 10**9, span)

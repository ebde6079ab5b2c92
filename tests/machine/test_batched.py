"""Metrics for K assignments vs independent oracles.

``batched_metrics`` is a loop of :func:`data_traffic` +
:func:`processor_work` calls; its contract is array-for-array value
identity with :func:`tests.conftest.traffic_oracle` and with the work
model applied update by update (:func:`work_oracle`) — on every bundled
matrix, every mapping scheme, and mixed processor counts inside one
batch.  Hostile owner arrays never reach the kernel: the
:class:`Assignment` constructor refuses them.
"""

import numpy as np
import pytest

from repro.core import (
    Assignment,
    adaptive_block_mapping,
    block_mapping,
    partition_prepared,
    prepare,
    schedule_blocks,
    two_d_cyclic,
    wrap_assignment,
)
from repro.machine import (
    batched_metrics,
    build_read_index,
    data_traffic,
)
from repro.core.dependencies import unit_read_index
from repro.sparse import grid9
from repro.sparse import harwell_boeing as hb

from ..conftest import bare_owners, traffic_oracle

PROCS = (3, 16, 64)


@pytest.fixture(scope="module", params=hb.names())
def prepped(request):
    return prepare(hb.load(request.param), name=request.param)


def _assignments(prepped, scheme):
    if scheme == "wrap":
        return [wrap_assignment(prepped.pattern, p) for p in PROCS]
    if scheme == "block":
        pm = partition_prepared(prepped, grain=25, min_width=4)
        return [
            schedule_blocks(pm.partition, pm.dependencies, p, unit_work=pm.unit_work)
            for p in PROCS
        ]
    return [
        adaptive_block_mapping(prepped, p, grain=25, min_width=4).assignment
        for p in PROCS
    ]


def work_oracle(owner, nprocs: int, updates) -> np.ndarray:
    """Work per processor straight from the paper's cost model: 2 units
    to the target's owner per pair update, 1 per element for its scale
    update (no ``element_work``, no weighted bincount)."""
    work = np.zeros(nprocs, dtype=np.int64)
    np.add.at(work, owner[updates.target], 2)
    np.add.at(work, owner, 1)
    return work


def _assert_identical(updates, assignments, read_index=None):
    batched = batched_metrics(updates, assignments, read_index=read_index)
    assert len(batched) == len(assignments)
    for a, (traffic, balance) in zip(assignments, batched):
        ref_traffic = traffic_oracle(a.owner_of_element, a.nprocs, updates)
        ref_work = work_oracle(a.owner_of_element, a.nprocs, updates)
        np.testing.assert_array_equal(traffic.per_processor, ref_traffic)
        np.testing.assert_array_equal(
            data_traffic(a, updates).per_processor, ref_traffic
        )
        np.testing.assert_array_equal(balance.per_processor, ref_work)
        assert traffic.total == int(ref_traffic.sum())
        assert balance.imbalance == ref_work.max() / ref_work.mean() - 1.0


class TestEveryBundledMatrix:
    @pytest.mark.parametrize("scheme", ["wrap", "block", "block-adaptive"])
    def test_matches_reference(self, prepped, scheme):
        _assert_identical(prepped.updates, _assignments(prepped, scheme))


class TestBatchShapes:
    @pytest.fixture(scope="class")
    def lap30(self):
        return prepare(hb.load("LAP30"), name="LAP30")

    def test_mixed_schemes_and_procs_in_one_batch(self, lap30):
        pm = partition_prepared(lap30, grain=4, min_width=4)
        mixed = [
            wrap_assignment(lap30.pattern, 7),
            schedule_blocks(pm.partition, pm.dependencies, 16, unit_work=pm.unit_work),
            adaptive_block_mapping(lap30, 1024).assignment,
            wrap_assignment(lap30.pattern, 1),
        ]
        _assert_identical(lap30.updates, mixed)

    def test_single_assignment_batch(self, lap30):
        _assert_identical(lap30.updates, [wrap_assignment(lap30.pattern, 16)])

    def test_empty_batch(self, lap30):
        assert batched_metrics(lap30.updates, []) == []

    def test_prepared_read_index_is_equivalent(self, lap30):
        assignments = [wrap_assignment(lap30.pattern, p) for p in PROCS]
        assignments += [bare_owners(a) for a in assignments]  # the index's consumers
        index = build_read_index(lap30.updates)
        _assert_identical(lap30.updates, assignments, read_index=index)

    def test_exclude_scale_matches_reference(self, lap30):
        updates = lap30.updates
        assignments = [wrap_assignment(lap30.pattern, p) for p in PROCS]
        assignments += [bare_owners(a) for a in assignments]
        batched = batched_metrics(updates, assignments, include_scale=False)
        for a, (traffic, _balance) in zip(assignments, batched):
            ref = traffic_oracle(
                a.owner_of_element, a.nprocs, updates, include_scale=False
            )
            np.testing.assert_array_equal(traffic.per_processor, ref)

    def test_random_owner_arrays(self, lap30):
        rng = np.random.default_rng(7)
        nnz = lap30.pattern.nnz
        nprocs = [5, 33, 900]
        assignments = [
            Assignment("random", p, lap30.pattern,
                       rng.integers(0, p, size=nnz).astype(np.int64))
            for p in nprocs
        ]
        _assert_identical(lap30.updates, assignments)


class TestValidation:
    @pytest.fixture(scope="class")
    def lap30(self):
        return prepare(hb.load("LAP30"), name="LAP30")

    def test_mismatched_read_index_rejected(self, lap30):
        index = build_read_index(lap30.updates, include_scale=False)
        with pytest.raises(ValueError, match="include_scale"):
            batched_metrics(
                lap30.updates,
                [bare_owners(wrap_assignment(lap30.pattern, 4))],
                read_index=index,
                include_scale=True,
            )

    def test_read_index_of_another_structure_rejected(self, lap30):
        """Regression: an index built from another structure used to be
        read as this one's, giving some other traffic and no error."""
        other = build_read_index(prepare(grid9(20, 20)).updates)
        cell = two_d_cyclic(lap30.pattern, 2, 2)
        np.testing.assert_array_equal(
            batched_metrics(lap30.updates, [cell])[0][0].per_processor,
            [4247, 12040, 12259, 4150],
        )
        with pytest.raises(ValueError, match="not built from these updates"):
            batched_metrics(lap30.updates, [cell], read_index=other)
        # A second enumeration of the same structure is another UpdateSet.
        again = build_read_index(prepare(hb.load("LAP30")).updates)
        with pytest.raises(ValueError, match="not built from these updates"):
            batched_metrics(lap30.updates, [cell], read_index=again)

    def test_unit_read_index_rejected_by_the_view_check(self, lap30):
        """Regression: a unit read index has one slice per element too, so
        the refusal quoted two equal element counts; it names the view
        check now."""
        pm = partition_prepared(lap30, grain=4)
        index = unit_read_index(pm.partition, lap30.updates)
        cell = two_d_cyclic(lap30.pattern, 2, 2)
        with pytest.raises(ValueError, match="not a view of their reader sequences") as err:
            batched_metrics(lap30.updates, [cell], read_index=index)
        assert f"{lap30.pattern.nnz} elements" not in str(err.value)

    def test_same_structure_other_updates_rejected_by_the_view_check(self, lap30):
        """Regression: the element index of a second enumeration of the
        same structure indexes as many elements, and the refusal said so
        twice; it names the view check now."""
        again = build_read_index(prepare(hb.load("LAP30")).updates)
        assert len(again.first) == lap30.pattern.nnz
        cell = two_d_cyclic(lap30.pattern, 2, 2)
        with pytest.raises(ValueError, match="not a view of their reader sequences") as err:
            batched_metrics(lap30.updates, [cell], read_index=again)
        assert f"{lap30.pattern.nnz} elements" not in str(err.value)

    def test_wrong_owner_length_rejected(self, lap30):
        owner = np.zeros(lap30.pattern.nnz, dtype=np.int64)
        for bad in (owner[:3], owner.reshape(-1, 1), owner.reshape(1, -1)):
            with pytest.raises(ValueError, match="one entry per element"):
                Assignment("wrap", 4, lap30.pattern, bad)

    @pytest.mark.parametrize("bad", [-1, 4, 2**32, 2**32 + 1])
    def test_owner_out_of_range_rejected(self, lap30, bad):
        """An owner outside [0, nprocs) would alias another segment's
        table slots (and one past 2^31 would wrap into range when
        the kernel narrows it): refused before any kernel sees it."""
        hostile = wrap_assignment(lap30.pattern, 4).owner_of_element.astype(np.int64)
        hostile[len(hostile) // 2] = bad
        with pytest.raises(ValueError, match="out of processor range"):
            Assignment("raw", 4, lap30.pattern, hostile)

    def test_owner_in_range_for_another_cell_rejected(self, lap30):
        """Each array is checked against its own processor count."""
        owner = wrap_assignment(lap30.pattern, 8).owner_of_element
        Assignment("raw", 8, lap30.pattern, owner)
        with pytest.raises(ValueError, match="out of processor range"):
            Assignment("raw", 4, lap30.pattern, owner)

    def test_nonpositive_nprocs_rejected(self, lap30):
        owner = np.zeros(lap30.pattern.nnz, dtype=np.int64)
        for nprocs in (0, -2):
            with pytest.raises(ValueError, match="nprocs must be positive"):
                Assignment("raw", nprocs, lap30.pattern, owner)


class TestReadIndex:
    def test_sorted_by_source_and_complete(self):
        prep = prepare(hb.load("DWT512"), name="DWT512")
        updates, pattern = prep.updates, prep.pattern
        index = build_read_index(updates)
        src, _reader = index.reads()
        assert np.all(np.diff(src) >= 0)
        # Two reads per pair update — one where its two sources coincide,
        # once per off-diagonal element — plus one scale read per element.
        pairs, repeats = updates.num_pair_updates, pattern.nnz - pattern.n
        assert index.num_reads == len(src) == 2 * pairs - repeats + pattern.nnz
        no_scale = build_read_index(updates, include_scale=False)
        assert no_scale.num_reads == 2 * pairs - repeats

    def test_a_view_of_the_cached_sequences(self):
        """The element read index sorts and expands nothing: both flags
        view the one set of sequences cached on the ``UpdateSet``."""
        updates = prepare(hb.load("LAP30"), name="LAP30").updates
        with_scale, without = build_read_index(updates), build_read_index(updates, False)
        assert with_scale.include_scale and not without.include_scale
        assert with_scale.reader is without.reader is updates.reader_sequences[0]
        assert with_scale.first is without.first is updates.reader_sequences[2]
        assert "target" not in vars(updates) and "source_i" not in vars(updates)

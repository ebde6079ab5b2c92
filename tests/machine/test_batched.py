"""Batched multi-assignment metrics vs the independent traffic oracle
and the per-assignment work path.

The batched path's contract is array-for-array value identity with
:func:`tests.conftest.traffic_oracle` (and hence with
:func:`data_traffic`, pinned to agree here too) and
:func:`processor_work_reference` — on every bundled matrix, every
mapping scheme, and mixed processor counts inside one batch.
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
    batched_load_balance,
    batched_metrics,
    batched_traffic,
    build_read_index,
    data_traffic,
    load_balance,
    processor_work_reference,
    read_index_of,
)
from repro.obs import trace as obs
from repro.sparse import harwell_boeing as hb

from ..conftest import traffic_oracle

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


def _assert_identical(updates, assignments, read_index=None):
    batched = batched_metrics(updates, assignments, read_index=read_index)
    assert len(batched) == len(assignments)
    for a, (traffic, balance) in zip(assignments, batched):
        ref_traffic = traffic_oracle(a.owner_of_element, a.nprocs, updates)
        ref_balance = load_balance(processor_work_reference(a, updates))
        np.testing.assert_array_equal(traffic.per_processor, ref_traffic)
        np.testing.assert_array_equal(
            data_traffic(a, updates).per_processor, ref_traffic
        )
        np.testing.assert_array_equal(
            balance.per_processor, ref_balance.per_processor
        )
        assert traffic.total == int(ref_traffic.sum())
        assert balance.imbalance == ref_balance.imbalance


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
        _assert_identical(lap30.updates, assignments, read_index=lap30.read_index)

    def test_exclude_scale_matches_reference(self, lap30):
        updates = lap30.updates
        assignments = [wrap_assignment(lap30.pattern, p) for p in PROCS]
        owners = [a.owner_of_element for a in assignments]
        batched = batched_traffic(
            updates, owners, list(PROCS), include_scale=False
        )
        for a, traffic in zip(assignments, batched):
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
            batched_traffic(
                lap30.updates,
                [wrap_assignment(lap30.pattern, 4).owner_of_element],
                [4],
                read_index=index,
                include_scale=True,
            )

    def test_wrong_owner_length_rejected(self, lap30):
        bad = Assignment(
            "wrap", 4, lap30.pattern,
            np.zeros(lap30.pattern.nnz, dtype=np.int64),
        )
        object.__setattr__(bad, "owner_of_element", np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="elements"):
            batched_metrics(lap30.updates, [bad])

    def test_nprocs_count_mismatch_rejected(self, lap30):
        owners = [wrap_assignment(lap30.pattern, 4).owner_of_element]
        with pytest.raises(ValueError, match="one processor count"):
            batched_traffic(lap30.updates, owners, [4, 8])
        with pytest.raises(ValueError, match="one processor count"):
            batched_load_balance(lap30.updates, owners, [4, 8])

    @pytest.mark.parametrize("bad", [-1, 4, 2**32, 2**32 + 1])
    def test_owner_out_of_range_rejected(self, lap30, bad):
        """An owner outside [0, nprocs) would alias another source's
        stamp-table slots (and one past 2^31 would wrap into range when
        narrowed): refused, naming the cell and the value."""
        good = wrap_assignment(lap30.pattern, 4).owner_of_element
        hostile = good.astype(np.int64)
        hostile[len(hostile) // 2] = bad
        with pytest.raises(ValueError, match=rf"owner array 1 .* {bad}, outside \[0, 4\)"):
            batched_traffic(lap30.updates, [good, hostile], [4, 4])
        with pytest.raises(ValueError, match="owner array 0"):
            batched_load_balance(lap30.updates, [hostile], [4])

    def test_owner_in_range_for_another_cell_rejected(self, lap30):
        """Each array is checked against its own processor count."""
        owners = [wrap_assignment(lap30.pattern, p).owner_of_element for p in (8, 8)]
        with pytest.raises(ValueError, match=r"owner array 1 .* 7, outside \[0, 4\)"):
            batched_traffic(lap30.updates, owners, [8, 4])

    def test_nonpositive_nprocs_rejected(self, lap30):
        owners = [np.zeros(lap30.pattern.nnz, dtype=np.int64)]
        with pytest.raises(ValueError, match="nprocs must be positive"):
            batched_traffic(lap30.updates, owners, [0])


class TestReadIndex:
    def test_sorted_by_source_and_complete(self):
        prep = prepare(hb.load("DWT512"), name="DWT512")
        updates = prep.updates
        index = build_read_index(updates)
        assert np.all(np.diff(index.src) >= 0)
        # Two pair-update reads per update plus one scale read per element.
        assert index.num_reads == 2 * updates.num_pair_updates + prep.pattern.nnz
        no_scale = build_read_index(updates, include_scale=False)
        assert no_scale.num_reads == 2 * updates.num_pair_updates

    def test_memoised_per_update_set_and_flag(self):
        """Per-cell, batched and ``PreparedMatrix.read_index`` callers
        share one index per (UpdateSet, include_scale): each flag value
        is built exactly once however the structure is measured — on
        the element kernel (2-D cyclic) or, through the unit read index
        built from it, on a block assignment."""
        prep = prepare(hb.load("LAP30"), name="LAP30")
        updates = prep.updates
        a = two_d_cyclic(prep.pattern, 2, 2)
        with obs.enabled() as rec:
            b = block_mapping(prep, 4, grain=25).assignment
            for _ in range(2):
                data_traffic(a, updates)
                batched_metrics(updates, [a, b, a])
                data_traffic(a, updates, include_scale=False)
                batched_metrics(updates, [a, b], include_scale=False)
            assert prep.read_index is read_index_of(updates)
        assert rec.counters["pipeline.stage.read_index"] == 2
        assert read_index_of(updates).include_scale
        assert not read_index_of(updates, include_scale=False).include_scale
        assert read_index_of(updates) is not read_index_of(updates, False)
        # A fresh UpdateSet starts a fresh memo.
        other = prepare(hb.load("LAP30"), name="LAP30").updates
        assert read_index_of(other) is not read_index_of(updates)

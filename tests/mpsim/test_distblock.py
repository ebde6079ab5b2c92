"""Numerical execution of the block schedule on the runtime."""

import numpy as np
import pytest

from repro.core import (
    SchedulerOptions,
    adaptive_block_mapping,
    block_mapping,
    prepare,
)
from repro.mpsim import distributed_block_cholesky
from repro.numeric import sparse_cholesky
from repro.sparse import grid9, load, spd_from_graph


@pytest.fixture(scope="module")
def system():
    g = grid9(7, 7)
    prep = prepare(g, name="grid9(7,7)")
    a = spd_from_graph(g, seed=9).permute(prep.perm)
    Lref = sparse_cholesky(a, prep.symbolic)
    return prep, a, Lref


class TestDistributedBlockCholesky:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    @pytest.mark.parametrize("grain", [4, 25])
    def test_matches_sequential(self, system, nprocs, grain):
        prep, a, Lref = system
        r = block_mapping(prep, nprocs, grain=grain)
        L, _ = distributed_block_cholesky(
            a, r.partition, r.assignment, prep.updates, r.dependencies
        )
        assert np.allclose(L.values, Lref.values, atol=1e-12)

    def test_adaptive_schedule_executes(self, system):
        prep, a, Lref = system
        r = adaptive_block_mapping(prep, 4, grain=4)
        L, _ = distributed_block_cholesky(
            a, r.partition, r.assignment, prep.updates, r.dependencies
        )
        assert np.allclose(L.values, Lref.values, atol=1e-12)

    def test_all_policies_execute(self, system):
        prep, a, Lref = system
        for policy in ("first", "least_loaded", "round_robin"):
            r = block_mapping(
                prep, 3, grain=8, options=SchedulerOptions(policy)
            )
            L, _ = distributed_block_cholesky(
                a, r.partition, r.assignment, prep.updates, r.dependencies
            )
            assert np.allclose(L.values, Lref.values, atol=1e-12)

    def test_coarse_grain_fewer_messages(self, system):
        """The paper's claim, observed in real messages: larger unit
        blocks mean fewer (larger) messages."""
        prep, a, _ = system
        msgs = {}
        for grain in (4, 25):
            r = block_mapping(prep, 4, grain=grain)
            _, stats = distributed_block_cholesky(
                a, r.partition, r.assignment, prep.updates, r.dependencies
            )
            msgs[grain] = sum(s.messages_sent for s in stats)
        assert msgs[25] < msgs[4]

    def test_message_count_matches_cross_processor_edges(self, system):
        """Exactly one message flows per (unit, consumer-processor) pair."""
        prep, a, _ = system
        r = block_mapping(prep, 3, grain=8)
        _, stats = distributed_block_cholesky(
            a, r.partition, r.assignment, prep.updates, r.dependencies
        )
        proc_of_unit = r.assignment.proc_of_unit
        expected = len(
            {
                (s, int(proc_of_unit[t]))
                for s, t in r.dependencies.edges.tolist()
                if proc_of_unit[s] != proc_of_unit[t]
            }
        )
        total = sum(s.messages_sent for s in stats)
        assert total == expected

    def test_requires_scale_edges(self, system):
        from repro.core import analyze_dependencies

        prep, a, _ = system
        r = block_mapping(prep, 2, grain=8)
        no_scale = analyze_dependencies(
            r.partition, prep.updates, include_scale=False
        )
        with pytest.raises(ValueError, match="scale"):
            distributed_block_cholesky(
                a, r.partition, r.assignment, prep.updates, no_scale
            )

    def test_mismatched_partition_rejected(self, system):
        prep, a, _ = system
        r1 = block_mapping(prep, 2, grain=8)
        r2 = block_mapping(prep, 2, grain=4)
        with pytest.raises(ValueError, match="partition"):
            distributed_block_cholesky(
                a, r1.partition, r2.assignment, prep.updates, r1.dependencies
            )

    def test_paper_matrix_end_to_end(self):
        """Full paper pipeline on DWT512, executed as a block program."""
        g = load("DWT512")
        prep = prepare(g, name="DWT512")
        a = spd_from_graph(g, seed=21).permute(prep.perm)
        Lref = sparse_cholesky(a, prep.symbolic)
        r = block_mapping(prep, 4, grain=25)
        L, _ = distributed_block_cholesky(
            a, r.partition, r.assignment, prep.updates, r.dependencies
        )
        assert np.allclose(L.values, Lref.values, atol=1e-10)

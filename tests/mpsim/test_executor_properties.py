"""The numeric executors on generated structures and on abuse.

Properties, over ``tests.conftest.generated_graphs`` (n <= 200) x block
grain in {1, 4, 25} x P in {1, 3, 16} x random column owners: every
executor returns the sequential factor to 1e-10; the block executor
sends exactly one message per (source unit, consumer processor) pair of
the dependency graph, and every one of them carries the whole unit; the
triangular-solve sweep, under random element owners, random column
owners and the block mapping's, returns the sequential solutions to
1e-10 and each rank receives exactly the messages ``solve_traffic``
charges it, in each direction.
Then the degenerate inputs of ROADMAP item 4: n = 1, a diagonal matrix,
more processors than units or columns, partitions with empty units,
everything on one rank.
The example count is the active Hypothesis profile's (the CI
kernel-identity step runs this module under ``--hypothesis-profile=full``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze_dependencies, block_mapping, prepare
from repro.core.assignment import Assignment
from repro.core.partitioner import Partition
from repro.machine import solve_traffic
from repro.mpsim import (
    distributed_backward_solve,
    distributed_block_backward_solve,
    distributed_block_cholesky,
    distributed_block_forward_solve,
    distributed_cholesky,
    distributed_cholesky_fanin,
    distributed_forward_solve,
)
from repro.mpsim.distblock import _TAG_UNIT
from repro.mpsim.engine import Endpoint
from repro.mpsim.solve import _TAG_SOLVE
from repro.numeric import solve_lower, solve_lower_transpose, sparse_cholesky
from repro.obs import trace as obs
from repro.sparse import LowerCSC, spd_from_graph
from repro.sparse.pattern import SymmetricGraph

from ..conftest import generated_graphs

PROCS = (1, 3, 16)
GRAINS = (1, 4, 25)
#: Who owns the factor during a solve: random element owners, random
#: column owners, or the block mapping at a grain.
OWNERSHIPS = ("element", "column", *GRAINS)


def system(graph, seed):
    prep = prepare(graph, name="generated")
    a = spd_from_graph(graph, seed=seed).permute(prep.perm)
    return prep, a, sparse_cholesky(a, prep.symbolic).values


def run_block(prep, a, result):
    return distributed_block_cholesky(
        a, result.partition, result.assignment, prep.updates, result.dependencies
    )


def close(values, want):
    return np.allclose(values, want, rtol=0.0, atol=1e-10)


def solve_owners(prep, nprocs, how, seed):
    """One of ``OWNERSHIPS`` as (the forward and backward solve taking
    it, their owner argument, the element owners it stands for)."""
    pattern = prep.pattern
    rng = np.random.default_rng(seed)
    if how == "column":
        proc_of_col = rng.integers(0, nprocs, size=pattern.n)
        solves = distributed_forward_solve, distributed_backward_solve
        return solves, proc_of_col, proc_of_col[pattern.element_cols()]
    if how == "element":
        owner = rng.integers(0, nprocs, size=pattern.nnz)
    else:
        owner = block_mapping(prep, nprocs, grain=how).assignment.owner_of_element
    return (distributed_block_forward_solve, distributed_block_backward_solve), owner, owner


def traced_solves(prep, values, solves, owners, nprocs, seed=5):
    """Both solves under a recorder, each checked against the sequential
    solve; returns the sweep's messages every rank received (all of them
    delivered), forward then backward."""
    L = LowerCSC(prep.pattern, values)
    b = np.random.default_rng(seed).random(L.n) + 1.0
    out = []
    for solve, sequential in zip(solves, (solve_lower, solve_lower_transpose)):
        with obs.enabled() as rec:
            x = solve(L, b, owners, nprocs)
        assert close(x, sequential(L, b)), solve.__name__
        received = np.zeros(nprocs, dtype=np.int64)
        for sim in rec.sim_runs:  # none when no message was sent (one rank)
            messages = sim.messages
            assert not np.isnan(messages.recv).any()
            received += np.bincount(
                messages.dst[messages.cause == _TAG_SOLVE], minlength=nprocs
            )
        out.append(received)
    return out


class TestAgainstTheSequentialFactor:
    @given(generated_graphs(), st.integers(0, 2**16), st.sampled_from(PROCS),
           st.sampled_from(GRAINS))
    @settings(deadline=None)
    def test_all_three_executors(self, graph, seed, nprocs, grain):
        prep, a, want = system(graph, seed)
        owners = np.random.default_rng(seed).integers(0, nprocs, size=a.n)
        for factor in (distributed_cholesky, distributed_cholesky_fanin):
            got, stats = factor(a, prep.pattern, owners, nprocs)
            assert close(got.values, want), factor.__name__
            assert len(stats) == nprocs
        got, _ = run_block(prep, a, block_mapping(prep, nprocs, grain=grain))
        assert close(got.values, want)

    @given(generated_graphs(), st.integers(0, 2**16), st.sampled_from(PROCS),
           st.sampled_from(GRAINS))
    @settings(deadline=None)
    def test_block_ships_whole_units_along_the_dependency_edges(
        self, graph, seed, nprocs, grain
    ):
        prep, a, _ = system(graph, seed)
        result = block_mapping(prep, nprocs, grain=grain)
        sent = []
        send = Endpoint.send

        def spy(comm, obj, dest, tag):
            if tag == _TAG_UNIT:
                sent.append((comm.rank, dest, obj))
            send(comm, obj, dest, tag)

        with mock.patch.object(Endpoint, "send", spy):
            _, stats = run_block(prep, a, result)
        proc = result.assignment.proc_of_unit
        edges = result.dependencies.edges
        want = {
            (int(s), int(proc[t])) for s, t in edges.tolist() if proc[s] != proc[t]
        }
        assert sorted((u, dest) for _, dest, (u, _, _) in sent) == sorted(want)
        assert sum(s.messages_sent for s in stats) == len(want)
        for source, _, (u, elems, values) in sent:
            assert source == proc[u]
            assert np.array_equal(elems, result.partition.unit_elements(u))
            assert len(values) == len(elems) and np.isfinite(values).all()


class TestTheSolveSweep:
    @given(generated_graphs(), st.integers(0, 2**16), st.sampled_from(PROCS),
           st.sampled_from(OWNERSHIPS))
    @settings(deadline=None)
    def test_equals_the_sequential_solves_and_sends_what_solve_traffic_counts(
        self, graph, seed, nprocs, how
    ):
        prep, _, values = system(graph, seed)
        solves, owners, owner_of_element = solve_owners(prep, nprocs, how, seed)
        forward, backward = traced_solves(prep, values, solves, owners, nprocs, seed)
        model = Assignment("bare", nprocs, prep.pattern, owner_of_element)
        one = solve_traffic(model, both_sweeps=False).per_processor
        both = solve_traffic(model, both_sweeps=True).per_processor
        assert forward.tolist() == one.tolist()
        assert backward.tolist() == (both - one).tolist()

    @pytest.mark.parametrize("how", ["element", "column"])
    def test_everything_on_one_rank_sends_nothing(self, king_graph, how):
        prep, _, values = system(king_graph, 2)
        solves, owners, _ = solve_owners(prep, 1, how, 0)  # all zeros
        for received in traced_solves(prep, values, solves, owners, 4):
            assert received.tolist() == [0, 0, 0, 0]


def with_empty_units(partition: Partition) -> tuple[Partition, np.ndarray]:
    """The same partition with an empty unit added behind the last unit
    of the first cluster and one at the very end; returns it with the
    old id of every new unit (-1 for the empty ones)."""
    after = sorted({int(partition.unit_ptr[1]) - 1, partition.num_units - 1})
    old = np.insert(np.arange(partition.num_units), [u + 1 for u in after], -1)
    table = partition.table[:, np.where(old < 0, np.roll(old, 1), old)].copy()
    table[-1, old < 0] += 1  # next column chunk: keeps the allocation order
    new_id = np.empty(partition.num_units, dtype=np.int64)
    new_id[old[old >= 0]] = np.flatnonzero(old >= 0)
    grown = Partition(
        partition.pattern, partition.clusters, table,
        new_id[partition.unit_of_element],
        partition.grain_triangle, partition.grain_rectangle,
    )
    return grown, old


class TestDegenerateInputs:
    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_order_one(self, nprocs):
        graph = SymmetricGraph.from_edges(1, np.zeros(0, int), np.zeros(0, int))
        self.check_all(graph, nprocs, messages=0)

    @pytest.mark.parametrize("nprocs", [1, 3, 16])
    def test_diagonal_matrix_has_no_updates_and_no_messages(self, nprocs):
        graph = SymmetricGraph.from_edges(7, np.zeros(0, int), np.zeros(0, int))
        self.check_all(graph, nprocs, messages=0)

    def test_more_processors_than_columns_or_units(self):
        """Ranks that own nothing start, receive nothing and finish."""
        graph = SymmetricGraph.from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
        self.check_all(graph, 16)

    def check_all(self, graph, nprocs, messages=None):
        prep, a, want = system(graph, 5)
        for how in OWNERSHIPS:
            solves, owners, _ = solve_owners(prep, nprocs, how, 5)
            for received in traced_solves(prep, want, solves, owners, nprocs):
                assert messages is None or received.sum() == messages
        owners = np.arange(a.n) % nprocs
        runs = [
            distributed_cholesky(a, prep.pattern, owners, nprocs),
            distributed_cholesky_fanin(a, prep.pattern, owners, nprocs),
        ]
        for grain in GRAINS:
            result = block_mapping(prep, nprocs, grain=grain)
            runs.append(run_block(prep, a, result))
            if messages is not None:  # the column runs also count their gather
                assert sum(s.messages_sent for s in runs[-1][1]) == messages
        for got, stats in runs:
            assert close(got.values, want)
            assert len(stats) == nprocs

    @pytest.mark.parametrize("nprocs", [1, 3])
    def test_partition_with_empty_units(self, king_graph, nprocs):
        prep, a, want = system(king_graph, 2)
        result = block_mapping(prep, nprocs, grain=4)
        partition, old = with_empty_units(result.partition)
        assert (partition.unit_work == 0).sum() == 2
        proc_of_unit = np.where(old < 0, nprocs - 1, result.assignment.proc_of_unit[old])
        assignment = Assignment(
            "block", nprocs, prep.pattern, result.assignment.owner_of_element,
            proc_of_unit, partition,
        )
        deps = analyze_dependencies(partition, prep.updates)
        got, stats = distributed_block_cholesky(
            a, partition, assignment, prep.updates, deps
        )
        assert close(got.values, want)
        _, reference = run_block(prep, a, result)
        assert [s.messages_sent for s in stats] == [s.messages_sent for s in reference]

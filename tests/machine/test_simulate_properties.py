"""The simulated machine on generated structures.

Three things are pinned, each against something that shares no code
with the path under test: the kernel-backed unit DAG of ``unit_graph``
against ``analyze_dependencies`` (edges) and a literal set-of-pairs
count (volumes); the columnar message ledger against
``tests.conftest.traffic_oracle``; and the conservation laws of the
timeline (busy + wait + idle == makespan, critical path == makespan).
The example count is the active Hypothesis profile's: tier-1 runs the
default, the CI kernel-identity step selects ``--hypothesis-profile=full``
(registered in ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze_dependencies, block_mapping, prepare, wrap_mapping
from repro.core.dependencies import DependencyInfo
from repro.machine import (
    communication_matrix,
    edge_volumes,
    simulate_assignment,
    unit_graph,
)
from repro.obs import trace as obs
from repro.obs.simtime import MessageLedger, MessageTable
from repro.sparse.pattern import SymmetricGraph

from ..conftest import generated_graphs, traffic_oracle, volume_oracle

PROCS = (1, 3, 16)


@st.composite
def simulated(draw):
    """(prepared matrix, mapping result, include_scale) over generated
    structures x {block, wrap} x P in {1, 3, 16} x scale on/off."""
    prep = prepare(draw(generated_graphs()), name="generated")
    nprocs = draw(st.sampled_from(PROCS))
    include_scale = draw(st.booleans())
    if draw(st.booleans()):
        result = block_mapping(prep, nprocs, grain=draw(st.sampled_from([1, 4, 25])))
    else:
        result = wrap_mapping(prep, nprocs)
    return prep, result, include_scale


def _unit_map(prep, result):
    partition = result.assignment.partition
    if partition is not None:
        return partition.unit_of_element, partition.num_units
    return np.asarray(prep.updates.element_cols, dtype=np.int64), prep.pattern.n


class TestUnitGraph:
    @given(simulated())
    @settings(deadline=None)
    def test_edges_and_volumes_match_the_definitions(self, drawn):
        prep, result, include_scale = drawn
        uoe, n_units = _unit_map(prep, result)
        edges, volume = unit_graph(uoe, prep.updates, n_units, include_scale)
        want = volume_oracle(uoe, prep.updates, include_scale)
        assert edges.tolist() == sorted(map(list, want))
        assert volume.tolist() == [want[u, v] for u, v in edges.tolist()]
        partition = result.assignment.partition
        if partition is not None:
            deps = analyze_dependencies(partition, prep.updates, include_scale)
            np.testing.assert_array_equal(edges, deps.edges)
            assert edge_volumes(result.assignment, deps, prep.updates) == dict(want)

    def test_foreign_dependency_info_is_refused(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        deps = r.dependencies
        u, v = deps.edges[0].tolist()
        short = DependencyInfo(
            deps.partition, deps.edges[1:], prepared_grid.updates, deps.include_scale
        )
        with pytest.raises(ValueError, match=rf"unit edges \[\({u}, {v}\)\]"):
            simulate_assignment(r.assignment, prepared_grid.updates, deps=short)
        with pytest.raises(ValueError, match=rf"unit edges \[\({u}, {v}\)\]"):
            edge_volumes(r.assignment, short, prepared_grid.updates)
        extra = DependencyInfo(
            deps.partition,
            np.vstack([[0, 0], deps.edges]),
            prepared_grid.updates,
            deps.include_scale,
        )
        with pytest.raises(ValueError, match=r"unit edges \[\(0, 0\)\]"):
            simulate_assignment(r.assignment, prepared_grid.updates, deps=extra)


class TestLedgerAndTimeline:
    @given(simulated())
    @settings(deadline=None)
    def test_ledger_matches_oracle_and_time_is_conserved(self, drawn):
        prep, result, include_scale = drawn
        a = result.assignment
        deps = None
        if a.partition is not None:
            deps = analyze_dependencies(a.partition, prep.updates, include_scale)
        timeline, run = simulate_assignment(
            a, prep.updates, deps=deps, include_scale=include_scale
        )
        assert run.meta["include_scale"] == include_scale
        ledger = run.messages
        want = traffic_oracle(a.owner_of_element, a.nprocs, prep.updates, include_scale)
        assert run.total_message_bytes() == int(want.sum())
        np.testing.assert_array_equal(
            np.bincount(ledger.dst, weights=ledger.nbytes, minlength=a.nprocs), want
        )
        np.testing.assert_array_equal(
            run.comm_matrix(), communication_matrix(a, prep.updates, include_scale)
        )
        assert not np.isnan(ledger.recv).any()
        assert (ledger.src != ledger.dst).all() and (ledger.nbytes > 0).all()
        assert sum(v for _s, _d, v in run.link_volumes()) == int(want.sum())

        # Default model + integer work: sim times are integer-valued
        # floats, so the conservation laws hold exactly.
        times = run.proc_times()
        assert np.all(times.busy + times.wait + times.idle == timeline.makespan)
        np.testing.assert_array_equal(times.busy, timeline.proc_busy)
        path = run.critical_path()
        assert path.length == timeline.makespan
        assert path.compute + path.wait == path.length


class TestDegenerate:
    @pytest.mark.parametrize("n", [0, 5])
    @pytest.mark.parametrize("block", [True, False])
    @pytest.mark.parametrize("include_scale", [True, False])
    def test_no_units_or_no_updates(self, n, block, include_scale):
        """An empty matrix has no units; a diagonal one has units but no
        update reads a foreign element, so no edge and no message."""
        graph = SymmetricGraph(
            n, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        prep = prepare(graph, name="diagonal")
        result = block_mapping(prep, 3, grain=4) if block else wrap_mapping(prep, 3)
        uoe, n_units = _unit_map(prep, result)
        edges, volume = unit_graph(uoe, prep.updates, n_units, include_scale)
        assert n_units == n and edges.shape == (0, 2) and volume.shape == (0,)
        timeline, run = simulate_assignment(
            result.assignment, prep.updates, include_scale=include_scale
        )
        assert run.n_units == n and len(run.messages) == 0
        assert run.total_message_bytes() == 0
        assert not run.comm_matrix().any() and run.link_volumes() == []
        assert timeline.makespan == (2.0 if n else 0.0)
        assert run.to_manifest()["n_messages"] == 0


class TestRowView:
    """Message ``i`` is entry ``i`` of every column of the table."""

    def _check_rows(self, table: MessageTable):
        columns = (table.src, table.dst, table.nbytes, table.cause,
                   table.send, table.recv)
        assert len(table) > 0 and {len(col) for col in columns} == {len(table)}
        assert [col.dtype for col in columns] == [np.int64] * 4 + [np.float64] * 2
        return list(zip(*(col.tolist() for col in columns)))

    def test_machine_clock(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        _tl, run = simulate_assignment(
            r.assignment, prepared_grid.updates, deps=r.dependencies
        )
        rows = self._check_rows(run.messages)
        assert all(recv == send + 10.0 + nbytes
                   for _, _, nbytes, _, send, recv in rows)
        assert [m[3] for m in rows] == sorted(m[3] for m in rows)

    def test_lamport_clock_with_an_undelivered_message(self):
        led = MessageLedger(3)
        first = led.on_send(0, 1, 100, cause=7)
        led.on_send(1, 2, 50, cause=8)
        led.on_recv(first)
        table = led.messages
        rows = self._check_rows(table)
        assert rows[0] == (0, 1, 100, 7, 1.0, 2.0)
        assert rows[1][:5] == (1, 2, 50, 8, 1.0)
        assert np.isnan(table.recv).tolist() == [False, True]
        assert led.undelivered() == 1
        run = led.to_sim_run(name="t")
        assert len(run.messages) == 2
        assert run.total_message_bytes() == 150
        assert run.link_volumes() == [(0, 1, 100), (1, 2, 50)]

    def test_mpsim_ledger_lands_as_a_table(self):
        from repro.mpsim.engine import gather_on_ranks, run_tasks

        def ring(end):
            end.send((end.rank,), (end.rank + 1) % 3, 5)
            yield from run_tasks([], 0, 1, None, lambda src: [])
            return {end.rank: 1.0}, None

        with obs.enabled() as rec:
            gather_on_ranks(ring, 3, 3, "ring")
        (run,) = rec.sim_runs
        assert isinstance(run.messages, MessageTable)
        rows = self._check_rows(run.messages)
        # The ring, then the result gather of ranks 1 and 2 to rank 0.
        assert [m[:2] for m in rows] == [(0, 1), (1, 2), (2, 0), (1, 0), (2, 0)]
        assert not np.isnan(run.messages.recv).any()

    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="differ in length"):
            MessageTable(src=[0, 1], dst=[1], nbytes=[1], cause=[0],
                         send=[0.0], recv=[1.0])

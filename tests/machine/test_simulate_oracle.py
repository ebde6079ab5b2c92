"""The simulator's pick rule and unit DAGs against oracles and goldens.

* The event loop (two ready heaps per processor) is bit-identical to
  :func:`tests.machine.oracles.simulate_units_oracle`, which scans every
  ready unit for the earliest start, on generated structures x
  {block, wrap} x P in {1, 3, 16} x drawn α, β — zero included, so data
  arrivals tie exactly with processor free times.
* The column DAG of a column map (the column-prefix lemma) equals the
  element pass's ``unit_graph`` with the columns as units, scale reads
  on and off.
* Timeline, start reasons and the full message table hash to what the
  scan-all-ready loop and the element-kernel ledger produced on the five
  bundled matrices at P = 16 (``golden_simulate.json``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import block_mapping, prepare, wrap_mapping
from repro.machine import MachineModel, simulate_assignment, unit_graph
from repro.machine.simulate import _column_graph
from repro.sparse import load

from ..conftest import generated_graphs
from .oracles import simulate_units_oracle
from .test_simulate_properties import _unit_map

GOLDEN = json.loads((Path(__file__).parent / "golden_simulate.json").read_text())

MODELS = {
    "default": MachineModel(),
    "free": MachineModel(alpha=0.0, beta=0.0),
    "fractional": MachineModel(compute=0.7, alpha=3.3, beta=0.1),
}

#: Message costs: exact zeros half the time, so arrivals tie with free times.
costs = st.one_of(st.just(0.0), st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False))


@given(
    graph=generated_graphs(),
    nprocs=st.sampled_from((1, 3, 16)),
    block=st.booleans(),
    alpha=costs,
    beta=costs,
    compute=st.sampled_from((1.0, 0.7)),
)
@settings(deadline=None)
def test_event_loop_matches_the_scan_all_ready_oracle(graph, nprocs, block, alpha, beta, compute):
    prep = prepare(graph, name="generated")
    result = block_mapping(prep, nprocs, grain=4) if block else wrap_mapping(prep, nprocs)
    a, model = result.assignment, MachineModel(compute=compute, alpha=alpha, beta=beta)
    timeline, run = simulate_assignment(a, prep.updates, model=model, with_messages=False)
    uoe, n_units = _unit_map(prep, result)
    edges, volume = unit_graph(uoe, prep.updates, n_units)
    work = np.bincount(uoe, weights=prep.updates.element_work(), minlength=n_units)
    want = simulate_units_oracle(a.nprocs, a.proc_of_unit, work, edges, volume, model)
    got = (run.start, run.finish, timeline.proc_busy, run.reason, run.reason_kind)
    for name, g, w in zip(("start", "finish", "busy", "reason", "reason_kind"), got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@given(graph=generated_graphs(), include_scale=st.booleans())
@settings(deadline=None)
def test_column_dag_is_the_kernel_unit_graph(graph, include_scale):
    prep = prepare(graph, name="generated")
    cols = np.asarray(prep.updates.element_cols, dtype=np.int64)
    want_edges, want_volume = unit_graph(cols, prep.updates, prep.pattern.n, include_scale)
    edges, volume = _column_graph(prep.pattern)
    assert edges.dtype == want_edges.dtype and volume.dtype == want_volume.dtype
    np.testing.assert_array_equal(edges, want_edges)
    np.testing.assert_array_equal(volume, want_volume)


def _digest(timeline, run) -> str:
    h = hashlib.sha256()
    m = run.messages
    for a in (run.start, run.finish, timeline.proc_busy, run.reason, run.reason_kind,
              m.src, m.dst, m.nbytes, m.cause, m.send, m.recv):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted({key.split("/")[0] for key in GOLDEN}))
def test_golden_simulation_hashes(name):
    prep = prepare(load(name), name=name)
    for scheme, result in (("block", block_mapping(prep, 16, grain=4)),
                           ("wrap", wrap_mapping(prep, 16))):
        for label, model in MODELS.items():
            timeline, run = simulate_assignment(result.assignment, prep.updates, model=model)
            got = {"makespan": timeline.makespan, "messages": len(run.messages),
                   "sha256": _digest(timeline, run)}
            assert got == GOLDEN[f"{name}/{scheme}/{label}"], (scheme, label)

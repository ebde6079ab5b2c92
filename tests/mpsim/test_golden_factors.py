"""Golden factors: the executors' summation order, pinned bit for bit.

For each of the three numeric factorizations on LAP30, CANN1072 and
grid9(20, 20) at P in {2, 3, 16} — values ``spd_from_graph(g, 0)``
permuted by the MMD order, columns owned ``j mod P``, the block schedule
``block_mapping(P, grain=25)`` — ``golden_factors.json`` holds the sha256
of ``L.values`` and the message and byte totals.  Any change to the order
in which an executor applies its updates changes a hash.

Regenerate (only for a declared change of the numerics or the wire) with
``PYTHONPATH=src python -m tests.mpsim.test_golden_factors``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import block_mapping, prepare
from repro.mpsim import (
    distributed_block_cholesky,
    distributed_cholesky,
    distributed_cholesky_fanin,
)
from repro.sparse import grid9, load, spd_from_graph

GOLDEN = Path(__file__).with_name("golden_factors.json")
GRAPHS = {"LAP30": lambda: load("LAP30"), "CANN1072": lambda: load("CANN1072"),
          "grid9(20,20)": lambda: grid9(20, 20)}
PROCS = (2, 3, 16)
EXECUTORS = ("fanout", "fanin", "block")


def fingerprints(name: str, nprocs: int) -> dict:
    """executor -> {sha256, messages, bytes} of one configuration."""
    graph = GRAPHS[name]()
    prep = prepare(graph, name=name)
    a = spd_from_graph(graph, 0).permute(prep.perm)
    owners = np.arange(a.n) % nprocs
    block = block_mapping(prep, nprocs, grain=25)
    runs = {
        "fanout": lambda: distributed_cholesky(a, prep.pattern, owners, nprocs),
        "fanin": lambda: distributed_cholesky_fanin(a, prep.pattern, owners, nprocs),
        "block": lambda: distributed_block_cholesky(
            a, block.partition, block.assignment, prep.updates, block.dependencies
        ),
    }
    out = {}
    for executor, run in runs.items():
        L, stats = run()
        out[executor] = {
            "sha256": hashlib.sha256(L.values.tobytes()).hexdigest(),
            "messages": sum(s.messages_sent for s in stats),
            "bytes": sum(s.bytes_sent for s in stats),
        }
    return out


def _key(name: str, nprocs: int) -> str:
    return f"{name} P={nprocs}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_the_file_covers_every_configuration(golden):
    assert sorted(golden) == sorted(_key(g, p) for g in GRAPHS for p in PROCS)
    assert all(sorted(v) == sorted(EXECUTORS) for v in golden.values())


@pytest.mark.parametrize("nprocs", PROCS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_factors_and_wire_totals_equal_the_golden(golden, name, nprocs):
    assert fingerprints(name, nprocs) == golden[_key(name, nprocs)]


if __name__ == "__main__":
    table = {_key(g, p): fingerprints(g, p) for g in GRAPHS for p in PROCS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

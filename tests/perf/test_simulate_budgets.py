"""What the simulated machine reads, pinned without a clock.

A column assignment (wrap) simulates over the column-prefix lemma: its
unit DAG, its message ledger and its communication matrix come from L's
columns, with no element read list and no stamp kernel.  A block
assignment simulates over its partition's unit read index, with no
element read list.  Both are pinned by patching what they must not call
to raise while the user-facing calls run.
"""

import sys

import pytest

from repro.core import block_mapping, prepare, wrap_mapping
from repro.machine import communication_matrix, hotspot_profile, simulate_assignment
from repro.sparse import load

MATRICES = ("LAP30", "CANN1072")


def _forbidden(*args, **kwargs):
    raise AssertionError("not on the simulation path")


def _forbid(monkeypatch, *names):
    for module in [m for k, m in sys.modules.items() if k.startswith("repro.")]:
        for attr in names:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, _forbidden)


@pytest.mark.parametrize("with_messages", [True, False])
@pytest.mark.parametrize("name", MATRICES)
def test_wrap_reads_only_the_columns(name, with_messages, monkeypatch):
    prepared = prepare(load(name), name=name)
    result = wrap_mapping(prepared, 16)
    _forbid(monkeypatch, "build_read_index", "distinct_fetches")
    for include_scale in (True, False):
        _timeline, run = simulate_assignment(
            result.assignment, prepared.updates,
            include_scale=include_scale, with_messages=with_messages,
        )
        assert (len(run.messages) > 0) == with_messages
        communication_matrix(result.assignment, prepared.updates, include_scale)
    hotspot_profile(result.assignment, prepared.updates)


@pytest.mark.parametrize("with_messages", [True, False])
@pytest.mark.parametrize("name", MATRICES)
def test_block_reads_only_the_unit_read_index(name, with_messages, monkeypatch):
    prepared = prepare(load(name), name=name)
    result = block_mapping(prepared, 16, grain=25)
    _forbid(monkeypatch, "build_read_index")
    for include_scale in (True, False):
        simulate_assignment(
            result.assignment, prepared.updates,
            include_scale=include_scale, with_messages=with_messages,
        )

"""What the MMD ordering costs, pinned without a clock.

The CSR-arena tier (n > ``_BITSET_MAX_N``) does each elimination pass as
a few whole-pass array operations: the interpreter runs only the greedy
over conflicting candidates, the member chains of eliminated
supervariables and the class rule over rows with equal closures.  Pinned
by a ``sys.setprofile`` count of Python-level calls per pass on the
``network`` benchmark input.  The bitset tier builds its rows over each
row's span, never an n x n temporary: pinned by a ``tracemalloc`` peak.
"""

import sys
import tracemalloc

import pytest

from repro.obs import trace as obs
from repro.ordering import multiple_minimum_degree
from repro.ordering import mmd as mmd_mod
from repro.sparse import grid9, social_graph


def test_arena_calls_per_pass():
    """The last commit with a per-pivot and per-merge loop made 1 002
    calls per pass here; the whole-pass arena makes under 200."""
    g = social_graph(20000, 0.8, max_len=64, seed=0)
    assert g.n > mmd_mod._BITSET_MAX_N
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    with obs.enabled() as rec:
        sys.setprofile(count)
        try:
            multiple_minimum_degree(g)
        finally:
            sys.setprofile(None)
    passes = rec.counters["perf.order.passes"]
    assert passes > 100
    assert calls <= 400 * passes


@pytest.mark.parametrize(
    "make", [lambda: social_graph(4096, seed=0), lambda: grid9(64, 64)],
    ids=["social", "grid9"],
)
def test_bitset_peak_below_quarter_n_squared(make):
    """An n x n bool temporary alone is n² bytes: the whole order peaked
    at 18 MiB on both inputs when the rows were built through one."""
    graph = make()
    n = graph.n
    assert n <= mmd_mod._BITSET_MAX_N
    tracemalloc.start()
    try:
        multiple_minimum_degree(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 4

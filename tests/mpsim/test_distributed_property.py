"""Property-based tests of the distributed algorithms on small random
systems: every algorithm must agree with the sequential factorization
for arbitrary structures, values and ownership maps."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpsim import (
    distributed_block_cholesky,
    distributed_cholesky,
    distributed_cholesky_fanin,
)
from repro.core import block_mapping, prepare
from repro.numeric import sparse_cholesky
from repro.ordering import multiple_minimum_degree
from repro.sparse import spd_from_graph
from repro.symbolic import symbolic_cholesky

from ..conftest import random_connected_graph

_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestFanOutProperty:
    @given(st.integers(4, 12), st.integers(0, 10), st.integers(0, 2**31 - 1),
           st.integers(1, 3))
    @_settings
    def test_any_structure_any_mapping(self, n, extra, seed, nprocs):
        g = random_connected_graph(n, extra, seed)
        perm = multiple_minimum_degree(g)
        a = spd_from_graph(g, seed=seed).permute(perm)
        sym = symbolic_cholesky(a.graph())
        Lref = sparse_cholesky(a, sym)
        rng = np.random.default_rng(seed)
        proc_of_col = rng.integers(0, nprocs, size=n)
        L, _ = distributed_cholesky(a, sym.pattern, proc_of_col, nprocs)
        assert np.allclose(L.values, Lref.values, atol=1e-10)


class TestFanInProperty:
    @given(st.integers(4, 12), st.integers(0, 10), st.integers(0, 2**31 - 1),
           st.integers(1, 3))
    @_settings
    def test_any_structure_any_mapping(self, n, extra, seed, nprocs):
        g = random_connected_graph(n, extra, seed)
        perm = multiple_minimum_degree(g)
        a = spd_from_graph(g, seed=seed).permute(perm)
        sym = symbolic_cholesky(a.graph())
        Lref = sparse_cholesky(a, sym)
        rng = np.random.default_rng(seed + 1)
        proc_of_col = rng.integers(0, nprocs, size=n)
        L, _ = distributed_cholesky_fanin(a, sym.pattern, proc_of_col, nprocs)
        assert np.allclose(L.values, Lref.values, atol=1e-10)


class TestBlockProperty:
    @given(st.integers(5, 12), st.integers(0, 12), st.integers(0, 2**31 - 1),
           st.integers(1, 3), st.integers(1, 6))
    @_settings
    def test_any_partition_executes_exactly(self, n, extra, seed, nprocs, grain):
        g = random_connected_graph(n, extra, seed)
        prep = prepare(g, name="prop")
        a = spd_from_graph(g, seed=seed).permute(prep.perm)
        Lref = sparse_cholesky(a, prep.symbolic)
        r = block_mapping(prep, nprocs, grain=grain, min_width=2)
        L, _ = distributed_block_cholesky(
            a, r.partition, r.assignment, prep.updates, r.dependencies
        )
        assert np.allclose(L.values, Lref.values, atol=1e-10)

"""scipy.sparse interop."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.numeric import sparse_cholesky
from repro.sparse import (
    graph_from_scipy,
    grid5,
    lower_to_scipy,
    spd_from_graph,
    symmetric_from_scipy,
    symmetric_to_scipy,
)


class TestFromScipy:
    def test_roundtrip_values(self):
        a = spd_from_graph(grid5(4, 4), seed=1)
        s = symmetric_to_scipy(a)
        b = symmetric_from_scipy(s)
        assert b.pattern == a.pattern
        assert np.allclose(b.values, a.values)

    def test_accepts_any_format(self):
        d = np.array([[2.0, -1.0], [-1.0, 2.0]])
        for fmt in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.lil_matrix):
            m = symmetric_from_scipy(fmt(d))
            assert np.allclose(m.to_dense(), d)

    def test_rejects_asymmetric(self):
        m = sp.coo_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_from_scipy(m)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_from_scipy(sp.coo_matrix(np.ones((2, 3))))

    def test_graph_from_scipy_symmetrizes(self):
        m = sp.coo_matrix(([1.0], ([0], [2])), shape=(3, 3))
        g = graph_from_scipy(m)
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_graph_ignores_diagonal(self):
        m = sp.eye(4, format="csr")
        assert graph_from_scipy(m).num_edges == 0


class TestToScipy:
    def test_symmetric_expansion(self):
        a = spd_from_graph(grid5(3, 3), seed=2)
        s = symmetric_to_scipy(a)
        assert np.allclose(s.toarray(), a.to_dense())

    def test_factor_export(self):
        a = spd_from_graph(grid5(3, 3), seed=3)
        L = sparse_cholesky(a)
        s = lower_to_scipy(L)
        assert np.allclose(s.toarray(), L.to_dense())
        assert np.allclose((s @ s.T).toarray(), a.to_dense())

    def test_full_scipy_pipeline(self):
        """End to end: scipy in, solve with our stack, scipy out."""
        rng = np.random.default_rng(4)
        m = sp.random(30, 30, density=0.1, random_state=42)
        a_dense = (m @ m.T).toarray() + 30 * np.eye(30)
        a = symmetric_from_scipy(sp.csr_matrix(a_dense))
        from repro.numeric import solve_spd

        b = rng.random(30)
        x = solve_spd(a, b)
        assert np.allclose(a_dense @ x, b, atol=1e-7)


def test_importing_the_pipeline_does_not_load_scipy():
    """No pipeline stage uses scipy: only the adapters import it."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    code = "import sys, repro, repro.core, repro.machine; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

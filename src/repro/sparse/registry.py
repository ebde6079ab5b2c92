"""Named big-tier generated matrices, and the combined matrix namespace.

:mod:`repro.sparse.harwell_boeing` carries the five paper-scale test
problems (10²–10³ unknowns).  This module registers the 10⁵–10⁶-unknown
*generated* instances built from :mod:`repro.sparse.generators` — the
big tier — and provides the combined name → graph resolution that
``sweep``/``trace``/``profile``/``explain`` use, so either kind of matrix
can be named on the command line.

Every instance is fully determined by (family, parameters, seed): the
generators are vectorized and seeded through PCG64, so two processes
asking for the same name get bit-identical patterns
(:func:`pattern_fingerprint` is the equality witness the tests use).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import generators as gen
from . import harwell_boeing as hb
from .pattern import SymmetricGraph

__all__ = [
    "GeneratedMatrix",
    "BIG_MATRICES",
    "BIG_TIER_MIN_N",
    "big_names",
    "matrix_names",
    "load",
    "is_big",
    "describe",
    "pattern_fingerprint",
]

#: Problems with at least this many unknowns are "big tier": their disk
#: cache entries are tagged separately and the big benchmarks target them.
BIG_TIER_MIN_N = 100_000


@dataclass(frozen=True)
class GeneratedMatrix:
    """A named, reproducible generated test problem.

    ``enumeration_feasible`` marks whether the full update-enumeration /
    metrics pipeline fits the big-tier memory envelope; instances where
    it does not (uncapped power-law graphs, whose factors are nearly
    dense) still support ``prepare()`` and partitioning studies.
    """

    name: str
    description: str
    family: str
    n: int
    enumeration_feasible: bool = True
    _builder: Callable[[], SymmetricGraph] = field(
        default=None, repr=False, compare=False
    )

    def build(self) -> SymmetricGraph:
        graph = self._builder()
        if graph.n != self.n:
            raise AssertionError(
                f"{self.name}: generator produced n={graph.n}, registered {self.n}"
            )
        return graph


def _entry(
    name: str,
    description: str,
    family: str,
    n: int,
    builder: Callable[[], SymmetricGraph],
    enumeration_feasible: bool = True,
) -> GeneratedMatrix:
    return GeneratedMatrix(
        name=name,
        description=description,
        family=family,
        n=n,
        enumeration_feasible=enumeration_feasible,
        _builder=builder,
    )


#: The big-tier registry.  Duct-shaped 3D meshes (long x, short y/z)
#: keep factor fill — and with it update-enumeration memory — bounded
#: while exercising genuine 3D coupling; the social instances bound
#: separator growth via the chord-length cap (see the generator docs).
BIG_MATRICES: dict[str, GeneratedMatrix] = {
    m.name: m
    for m in [
        _entry(
            "GRIDA100K",
            "anisotropic 12500 x 8 grid, reach-2 strong axis",
            "aniso_grid",
            100_000,
            lambda: gen.aniso_grid(12500, 8, reach=2),
        ),
        _entry(
            "HEX100K",
            "hexahedral duct mesh, 6250 x 4 x 4 nodes",
            "hex_mesh",
            100_000,
            lambda: gen.hex_mesh(6250, 4, 4),
        ),
        _entry(
            "TET100K",
            "Kuhn tetrahedral duct mesh, 6250 x 4 x 4 nodes",
            "tet_mesh",
            100_000,
            lambda: gen.tet_mesh(6250, 4, 4),
        ),
        _entry(
            "SOC100K",
            "small-world social graph, 100k nodes, capped power-law chords",
            "social_graph",
            100_000,
            lambda: gen.social_graph(100_000, seed=7),
        ),
        _entry(
            "POW100K",
            "power-law (Chung-Lu over random tree) graph, 100k nodes",
            "powlaw_graph",
            100_000,
            lambda: gen.powlaw_graph(100_000, seed=11),
            enumeration_feasible=False,
        ),
        _entry(
            "GRIDA1M",
            "anisotropic 125000 x 8 grid, reach-2 strong axis",
            "aniso_grid",
            1_000_000,
            lambda: gen.aniso_grid(125_000, 8, reach=2),
        ),
        _entry(
            "SOC1M",
            "small-world social graph, 1M nodes, capped power-law chords",
            "social_graph",
            1_000_000,
            lambda: gen.social_graph(1_000_000, seed=7),
        ),
    ]
}


def big_names() -> tuple[str, ...]:
    """Names of the registered big-tier generated matrices."""
    return tuple(BIG_MATRICES)


def matrix_names() -> tuple[str, ...]:
    """All loadable matrix names: paper tier first, then big tier."""
    return tuple(hb.names()) + big_names()


@lru_cache(maxsize=None)
def load(name: str) -> SymmetricGraph:
    """Load any named matrix — Harwell-Boeing analogue or generated."""
    if name in hb.PAPER_MATRICES:
        return hb.load(name)
    if name in BIG_MATRICES:
        return BIG_MATRICES[name].build()
    raise KeyError(
        f"unknown matrix {name!r}; available: {', '.join(matrix_names())}"
    )


def is_big(name: str) -> bool:
    """True if ``name`` is a registered big-tier matrix."""
    return name in BIG_MATRICES


def describe(name: str) -> str:
    if name in hb.PAPER_MATRICES:
        return hb.PAPER_MATRICES[name].description
    return BIG_MATRICES[name].description


def pattern_fingerprint(graph: SymmetricGraph) -> str:
    """SHA-256 of the adjacency structure, dtype-independent.

    The hashed bytes are the int64-normalized CSR arrays plus ``n``, so
    the fingerprint is stable across index-dtype changes and across
    processes/platforms; two graphs are structurally equal iff their
    fingerprints match.
    """
    h = hashlib.sha256()
    h.update(np.int64(graph.n).tobytes())
    h.update(np.ascontiguousarray(graph.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.indices, dtype=np.int64).tobytes())
    return h.hexdigest()

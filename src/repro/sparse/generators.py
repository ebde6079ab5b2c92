"""Sparsity-structure generators.

These produce :class:`~repro.sparse.pattern.SymmetricGraph` adjacency
structures for the test problems used in the paper's evaluation and for
the test suite.  ``grid9(30, 30)`` regenerates the LAP30 problem exactly
(900 equations, 4322 lower-triangular nonzeros); the other four
Harwell-Boeing matrices are approximated by structural analogues — see
DESIGN.md §2 and :mod:`repro.sparse.harwell_boeing`.

The big-tier families (:func:`hex_mesh`, :func:`tet_mesh`,
:func:`aniso_grid`, :func:`social_graph`, :func:`powlaw_graph`) scale to
10⁵–10⁶ unknowns.  They are fully vectorized (edge lists are built in
O(edges) memory with no Python loops over nodes) and seeded through
``numpy.random.default_rng``, whose PCG64 stream is platform- and
process-stable, so the same (family, parameters, seed) triple always
produces a bit-identical pattern.  Named instances live in
:mod:`repro.sparse.registry`.
"""

from __future__ import annotations

import numpy as np

from .csc import SymmetricCSC
from .pattern import SymmetricGraph

__all__ = [
    "grid5",
    "grid9",
    "lshape_mesh",
    "power_network",
    "knn_mesh",
    "stiffened_cylinder",
    "random_symmetric_graph",
    "band_graph",
    "band_lower_pattern",
    "path_graph",
    "star_graph",
    "spd_from_graph",
    "laplacian_matrix",
    "hex_mesh",
    "tet_mesh",
    "aniso_grid",
    "social_graph",
    "powlaw_graph",
]


def _grid_index(nx: int) -> np.ndarray:
    return np.arange(nx, dtype=np.int64)


def grid5(nx: int, ny: int) -> SymmetricGraph:
    """5-point (von Neumann) stencil on an ``nx`` x ``ny`` grid.

    Node (ix, iy) has index ``ix * ny + iy``.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be positive")
    idx = np.arange(nx * ny, dtype=np.int64).reshape(nx, ny)
    us, vs = [], []
    us.append(idx[:-1, :].ravel())  # horizontal (x-direction)
    vs.append(idx[1:, :].ravel())
    us.append(idx[:, :-1].ravel())  # vertical (y-direction)
    vs.append(idx[:, 1:].ravel())
    return SymmetricGraph.from_edges(
        nx * ny, np.concatenate(us), np.concatenate(vs)
    )


def grid9(nx: int, ny: int) -> SymmetricGraph:
    """9-point (Moore / king-move) stencil on an ``nx`` x ``ny`` grid.

    ``grid9(30, 30)`` is the LAP30 problem of the paper: 900 equations and
    900 + 3422 = 4322 lower-triangular nonzeros.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be positive")
    idx = np.arange(nx * ny, dtype=np.int64).reshape(nx, ny)
    us, vs = [], []
    us.append(idx[:-1, :].ravel())
    vs.append(idx[1:, :].ravel())
    us.append(idx[:, :-1].ravel())
    vs.append(idx[:, 1:].ravel())
    us.append(idx[:-1, :-1].ravel())  # main diagonal
    vs.append(idx[1:, 1:].ravel())
    us.append(idx[1:, :-1].ravel())  # anti diagonal
    vs.append(idx[:-1, 1:].ravel())
    return SymmetricGraph.from_edges(
        nx * ny, np.concatenate(us), np.concatenate(vs)
    )


def lshape_mesh(nx: int, ny: int, cut_x: int, cut_y: int) -> SymmetricGraph:
    """Right-triangulated finite-element mesh on an L-shaped domain.

    The domain is the (nx x ny)-cell rectangle with the top-right
    ``cut_x`` x ``cut_y`` cell block removed.  Each remaining unit cell is
    split into two triangles by its main diagonal, as in George's LSHAPE
    problems.  Nodes in the removed region are dropped; remaining nodes
    are numbered row-major over the retained grid points.
    """
    if not (0 <= cut_x <= nx and 0 <= cut_y <= ny):
        raise ValueError("cut block does not fit inside the rectangle")
    keep = np.ones((nx + 1, ny + 1), dtype=bool)
    # Remove strictly interior nodes of the cut block (top-right corner):
    # nodes with ix > nx - cut_x and iy > ny - cut_y.
    if cut_x and cut_y:
        keep[nx - cut_x + 1 :, ny - cut_y + 1 :] = False
    new_id = np.full((nx + 1, ny + 1), -1, dtype=np.int64)
    new_id[keep] = np.arange(keep.sum(), dtype=np.int64)
    n = int(keep.sum())

    us, vs = [], []

    def add(a, b):
        mask = (a >= 0) & (b >= 0)
        us.append(a[mask])
        vs.append(b[mask])

    add(new_id[:-1, :].ravel(), new_id[1:, :].ravel())  # horizontal
    add(new_id[:, :-1].ravel(), new_id[:, 1:].ravel())  # vertical
    # A diagonal edge exists only if the whole cell is retained.
    cell_ok = keep[:-1, :-1] & keep[1:, :-1] & keep[:-1, 1:] & keep[1:, 1:]
    a = np.where(cell_ok, new_id[:-1, :-1], -1).ravel()
    b = np.where(cell_ok, new_id[1:, 1:], -1).ravel()
    add(a, b)
    return SymmetricGraph.from_edges(n, np.concatenate(us), np.concatenate(vs))


def power_network(
    n: int,
    extra_edges: int,
    seed: int = 0,
    hub_bias: float = 1.0,
    local_loop_frac: float = 0.7,
) -> SymmetricGraph:
    """Synthetic electrical-transmission-network topology.

    A preferential-attachment spanning tree (power grids are mostly
    radial) plus ``extra_edges`` loop-closing chords.  A fraction
    ``local_loop_frac`` of the chords close *local* loops (they connect
    2-hop neighbours, as real distribution loops do); the rest are
    long-range ties.  The default mix reproduces the fill behaviour of
    the BUS1138 structure under MMD (≈3300 factor nonzeros).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 <= local_loop_frac <= 1.0):
        raise ValueError("local_loop_frac must be in [0, 1]")
    rng = np.random.default_rng(seed)
    us: list[int] = []
    vs: list[int] = []
    deg = np.zeros(n, dtype=np.float64)
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        w = deg[:v] + hub_bias
        u = int(rng.choice(v, p=w / w.sum()))
        us.append(u)
        vs.append(v)
        deg[u] += 1
        deg[v] += 1
        adj[u].add(v)
        adj[v].add(u)
    existing = {(min(a, b), max(a, b)) for a, b in zip(us, vs)}
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 1000 * max(extra_edges, 1):
        attempts += 1
        a = int(rng.integers(n))
        if rng.random() < local_loop_frac:
            two_hop: set[int] = set()
            for m in adj[a]:
                two_hop |= adj[m]
            two_hop -= adj[a]
            two_hop.discard(a)
            if not two_hop:
                continue
            candidates = sorted(two_hop)
            b = candidates[int(rng.integers(len(candidates)))]
        else:
            b = int(rng.integers(n))
            if b == a:
                continue
        key = (min(a, b), max(a, b))
        if key in existing:
            continue
        existing.add(key)
        adj[a].add(b)
        adj[b].add(a)
        us.append(a)
        vs.append(b)
        added += 1
    return SymmetricGraph.from_edges(
        n, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    )


def knn_mesh(
    n: int, target_edges: int, seed: int = 0, layout: str = "square"
) -> SymmetricGraph:
    """Symmetrized k-nearest-neighbour graph over a 2-D point cloud.

    Used as a structural analogue for the CAN (Cannes) matrices: an
    irregular mesh with a relatively high, spatially-correlated degree.
    Edges are the union of each point's nearest neighbours, grown until at
    least ``target_edges`` undirected edges exist, then the longest
    surplus edges are dropped to hit the target exactly (when possible
    while keeping the k-NN core).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    if layout == "annulus":
        theta = rng.uniform(0.0, 2 * np.pi, size=n)
        r = rng.uniform(1.0, 2.0, size=n)
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    elif layout == "square":
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
    else:
        raise ValueError(f"unknown layout {layout!r}")
    # Squared distances one coordinate at a time, in place: an (n, n, 2)
    # difference array was the peak of memory of every paper-tier sweep.
    d2 = pts[:, None, 0] - pts[None, :, 0]
    d2 *= d2
    dy = pts[:, None, 1] - pts[None, :, 1]
    dy *= dy
    d2 += dy
    del dy
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1)

    edges: set[tuple[int, int]] = set()
    k = 1
    while len(edges) < target_edges and k < n:
        nb = order[:, k - 1]
        for i in range(n):
            j = int(nb[i])
            edges.add((min(i, j), max(i, j)))
        k += 1
    edge_arr = np.asarray(sorted(edges), dtype=np.int64)
    if len(edge_arr) > target_edges:
        lengths = d2[edge_arr[:, 0], edge_arr[:, 1]]
        keep = np.argsort(lengths, kind="stable")[:target_edges]
        edge_arr = edge_arr[np.sort(keep)]
    return SymmetricGraph.from_edges(n, edge_arr[:, 0], edge_arr[:, 1])


def stiffened_cylinder(
    n_around: int,
    n_along: int,
    diagonals: bool = True,
    stiffener_stride: int = 0,
) -> SymmetricGraph:
    """Quad-shell mesh of a cylinder with optional face diagonals and
    longitudinal stiffener chords — a structural analogue for the DWT
    (submarine frame) matrices.

    Node (a, s) — position ``a`` around the ring, station ``s`` along the
    axis — has index ``s * n_around + a``.  ``stiffener_stride`` > 0 adds
    chords connecting station s to station s+2 every ``stiffener_stride``
    ring positions.
    """
    if n_around < 3 or n_along < 1:
        raise ValueError("need at least a 3-node ring and one station")
    n = n_around * n_along
    idx = np.arange(n, dtype=np.int64).reshape(n_along, n_around)
    us, vs = [], []
    us.append(idx.ravel())  # ring edges (wrap around)
    vs.append(np.roll(idx, -1, axis=1).ravel())
    us.append(idx[:-1, :].ravel())  # longitudinal edges
    vs.append(idx[1:, :].ravel())
    if diagonals:
        us.append(idx[:-1, :].ravel())  # one diagonal per quad face
        vs.append(np.roll(idx, -1, axis=1)[1:, :].ravel())
    if stiffener_stride > 0 and n_along > 2:
        stations = np.arange(0, n_along - 2, dtype=np.int64)
        rings = np.arange(0, n_around, stiffener_stride, dtype=np.int64)
        ss, rr = np.meshgrid(stations, rings, indexing="ij")
        us.append(idx[ss, rr].ravel())
        vs.append(idx[ss + 2, rr].ravel())
    return SymmetricGraph.from_edges(n, np.concatenate(us), np.concatenate(vs))


def random_symmetric_graph(n: int, density: float, seed: int = 0) -> SymmetricGraph:
    """Erdős–Rényi-style symmetric pattern with expected off-diagonal
    density ``density`` (fraction of the strict lower triangle filled)."""
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    mask = np.tril(rng.random((n, n)) < density, -1)
    u, v = np.nonzero(mask)
    return SymmetricGraph.from_edges(n, u, v)


def band_graph(n: int, bandwidth: int) -> SymmetricGraph:
    """Band matrix structure: node i adjacent to i±1 .. i±bandwidth.

    Under the natural ordering its Cholesky factor is the dense band
    (:func:`band_lower_pattern`), making this the stress generator for
    update enumeration: many columns, uniform moderate fill.
    """
    if bandwidth < 1:
        raise ValueError("bandwidth must be >= 1")
    us, vs = [], []
    for d in range(1, min(bandwidth, n - 1) + 1):
        u = np.arange(n - d, dtype=np.int64)
        us.append(u)
        vs.append(u + d)
    if not us:
        return SymmetricGraph.empty(n)
    return SymmetricGraph.from_edges(n, np.concatenate(us), np.concatenate(vs))


def band_lower_pattern(n: int, bandwidth: int):
    """Dense-band lower pattern: column j holds rows j .. j+bandwidth.

    This is the (fill-closed) factor structure of :func:`band_graph`
    under the natural ordering, built directly without a symbolic
    factorization pass.
    """
    from .pattern import LowerPattern

    counts = np.minimum(bandwidth + 1, n - np.arange(n, dtype=np.int64))
    cols = np.repeat(np.arange(n, dtype=np.int64), counts)
    rows = np.arange(len(cols), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    rows += cols
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return LowerPattern(n, indptr, rows)


def path_graph(n: int) -> SymmetricGraph:
    e = np.arange(n - 1, dtype=np.int64)
    return SymmetricGraph.from_edges(n, e, e + 1)


def star_graph(n: int) -> SymmetricGraph:
    """Node 0 connected to all others."""
    v = np.arange(1, n, dtype=np.int64)
    return SymmetricGraph.from_edges(n, np.zeros(n - 1, dtype=np.int64), v)


def spd_from_graph(graph: SymmetricGraph, seed: int = 0) -> SymmetricCSC:
    """A symmetric positive-definite matrix with the given structure.

    Off-diagonal values are random in [-1, -0.1]; the diagonal is set to
    strict row-dominance, which guarantees positive definiteness.
    """
    rng = np.random.default_rng(seed)
    u, v = graph.edges()
    vals = -rng.uniform(0.1, 1.0, size=len(u))
    rows = np.concatenate([np.maximum(u, v), np.arange(graph.n, dtype=np.int64)])
    cols = np.concatenate([np.minimum(u, v), np.arange(graph.n, dtype=np.int64)])
    diag = np.ones(graph.n, dtype=np.float64)
    np.add.at(diag, u, np.abs(vals))
    np.add.at(diag, v, np.abs(vals))
    allv = np.concatenate([vals, diag])
    return SymmetricCSC.from_entries(graph.n, rows, cols, allv)


def laplacian_matrix(graph: SymmetricGraph, shift: float = 1e-3) -> SymmetricCSC:
    """Graph Laplacian plus ``shift`` times identity (SPD for shift > 0)."""
    u, v = graph.edges()
    rows = np.concatenate([np.maximum(u, v), np.arange(graph.n, dtype=np.int64)])
    cols = np.concatenate([np.minimum(u, v), np.arange(graph.n, dtype=np.int64)])
    deg = graph.degree().astype(np.float64)
    vals = np.concatenate([-np.ones(len(u)), deg + shift])
    return SymmetricCSC.from_entries(graph.n, rows, cols, vals)


# ----------------------------------------------------------------------
# Big-tier generator families (10^5 - 10^6 unknowns)
# ----------------------------------------------------------------------
def _grid3d_index(nx: int, ny: int, nz: int) -> np.ndarray:
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError("grid dimensions must be positive")
    return np.arange(nx * ny * nz, dtype=np.int64).reshape(nx, ny, nz)


def hex_mesh(nx: int, ny: int, nz: int) -> SymmetricGraph:
    """Structured 3D hexahedral-element mesh on an ``nx x ny x nz`` grid.

    Node (ix, iy, iz) has index ``(ix * ny + iy) * nz + iz``.  Edges are
    the three axis-aligned face couplings plus the yz-plane (cross-
    section) diagonals, i.e. the coupling of trilinear hex elements with
    the in-plane shear terms retained.  The full 27-point hex stencil is
    deliberately *not* used: its factor fill at 10^5+ unknowns pushes
    update enumeration past the big-tier memory envelope, while this
    stencil keeps the duct-shaped instances (long x, short y/z) inside
    it.  Deterministic — no randomness.
    """
    idx = _grid3d_index(nx, ny, nz)
    us, vs = [], []
    us.append(idx[:-1, :, :].ravel())  # x faces
    vs.append(idx[1:, :, :].ravel())
    us.append(idx[:, :-1, :].ravel())  # y faces
    vs.append(idx[:, 1:, :].ravel())
    us.append(idx[:, :, :-1].ravel())  # z faces
    vs.append(idx[:, :, 1:].ravel())
    us.append(idx[:, :-1, :-1].ravel())  # yz main diagonal
    vs.append(idx[:, 1:, 1:].ravel())
    us.append(idx[:, 1:, :-1].ravel())  # yz anti diagonal
    vs.append(idx[:, :-1, 1:].ravel())
    return SymmetricGraph.from_edges(
        idx.size, np.concatenate(us), np.concatenate(vs)
    )


def tet_mesh(nx: int, ny: int, nz: int) -> SymmetricGraph:
    """Structured 3D tetrahedral mesh: Kuhn subdivision of a brick grid.

    Every unit cube of the ``nx x ny x nz`` node grid is split into six
    tetrahedra sharing the main body diagonal (the Freudenthal/Kuhn
    triangulation).  The resulting node connectivity is the six axis
    neighbours, one face diagonal per coordinate plane, and the body
    diagonal — 14 neighbours per interior node.  Deterministic.
    """
    idx = _grid3d_index(nx, ny, nz)
    us, vs = [], []
    us.append(idx[:-1, :, :].ravel())  # x
    vs.append(idx[1:, :, :].ravel())
    us.append(idx[:, :-1, :].ravel())  # y
    vs.append(idx[:, 1:, :].ravel())
    us.append(idx[:, :, :-1].ravel())  # z
    vs.append(idx[:, :, 1:].ravel())
    us.append(idx[:-1, :-1, :].ravel())  # xy face diagonal
    vs.append(idx[1:, 1:, :].ravel())
    us.append(idx[:, :-1, :-1].ravel())  # yz face diagonal
    vs.append(idx[:, 1:, 1:].ravel())
    us.append(idx[:-1, :, :-1].ravel())  # xz face diagonal
    vs.append(idx[1:, :, 1:].ravel())
    us.append(idx[:-1, :-1, :-1].ravel())  # body diagonal
    vs.append(idx[1:, 1:, 1:].ravel())
    return SymmetricGraph.from_edges(
        idx.size, np.concatenate(us), np.concatenate(vs)
    )


def aniso_grid(nx: int, ny: int, reach: int = 2) -> SymmetricGraph:
    """2D anisotropic grid: 5-point stencil widened along the strong axis.

    Models a strongly anisotropic operator discretized on an ``nx x ny``
    grid with high aspect ratio (``nx >> ny``): besides the 5-point
    couplings, each node couples to its x-neighbours at distances
    ``2..reach`` — the wider stencil a high-order/upwinded scheme uses
    along the strong-coupling direction.  Deterministic.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be positive")
    if reach < 1:
        raise ValueError("reach must be >= 1")
    idx = np.arange(nx * ny, dtype=np.int64).reshape(nx, ny)
    us, vs = [], []
    us.append(idx[:, :-1].ravel())  # y-direction (weak axis)
    vs.append(idx[:, 1:].ravel())
    for r in range(1, reach + 1):  # x-direction links of range 1..reach
        if r < nx:
            us.append(idx[:-r, :].ravel())
            vs.append(idx[r:, :].ravel())
    return SymmetricGraph.from_edges(
        nx * ny, np.concatenate(us), np.concatenate(vs)
    )


def social_graph(
    n: int,
    chords_per_node: float = 1.8,
    gamma: float = 2.5,
    max_len: int = 256,
    seed: int = 0,
) -> SymmetricGraph:
    """Locality-bounded small-world graph: ring plus power-law chords.

    A Hamiltonian ring guarantees connectivity; on top of it,
    ``round(n * chords_per_node)`` chords connect each sampled node to a
    neighbour at a Pareto(``gamma`` - 1)-distributed ring distance capped
    at ``max_len``.  The heavy-tailed chord lengths give the long-range
    shortcuts of a social/communication network while the cap bounds the
    separator growth, keeping minimum-degree ordering and update
    enumeration feasible at 10^5+ unknowns (unlike an uncapped power-law
    graph — see :func:`powlaw_graph`).
    """
    if n < 3:
        raise ValueError("social_graph needs n >= 3")
    rng = np.random.default_rng(seed)
    ring = np.arange(n, dtype=np.int64)
    us = [ring]
    vs = [np.roll(ring, -1)]
    m = int(round(n * chords_per_node))
    if m:
        lengths = np.minimum(
            (rng.pareto(gamma - 1.0, size=m) + 1.0).astype(np.int64) * 2,
            max_len,
        )
        a = rng.integers(0, n, size=m)
        us.append(a)
        vs.append((a + lengths) % n)
    return SymmetricGraph.from_edges(n, np.concatenate(us), np.concatenate(vs))


def powlaw_graph(
    n: int,
    avg_degree: float = 3.0,
    gamma: float = 2.5,
    max_degree: int | None = None,
    seed: int = 0,
) -> SymmetricGraph:
    """Power-law (Chung-Lu style) graph over a random recursive tree.

    A vectorized random recursive tree guarantees connectivity; extra
    edges are then sampled with endpoint probabilities proportional to
    Zipf(``gamma``) weights (optionally truncated at ``max_degree``-like
    weight cap), giving a heavy-tailed degree distribution.

    .. warning::
       The global hubs make the factor of such graphs nearly dense:
       update enumeration needs >10^9 pairs at n = 10^5 under *any*
       fill-reducing ordering.  Registered big-tier instances of this
       family are therefore generator/partition-study only — run
       ``prepare()`` and the partitioner on them, not the full metrics
       sweep.  See docs/performance.md.
    """
    if n < 2:
        raise ValueError("powlaw_graph needs n >= 2")
    rng = np.random.default_rng(seed)
    # Random recursive tree: node k >= 1 attaches to a uniform earlier node.
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    us = [parents]
    vs = [np.arange(1, n, dtype=np.int64)]
    extra = int(round(n * max(avg_degree - 2.0, 0.0) / 2.0))
    if extra:
        w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (gamma - 1.0))
        if max_degree is not None:
            w = np.minimum(w, max_degree / float(n))
        p = w / w.sum()
        a = rng.choice(n, size=extra, p=p)
        b = rng.choice(n, size=extra, p=p)
        # Decouple weight rank from node id so hubs are spread over the
        # index space (a relabelling by random permutation).
        relabel = rng.permutation(n)
        us.append(relabel[a])
        vs.append(relabel[b])
    return SymmetricGraph.from_edges(n, np.concatenate(us), np.concatenate(vs))

"""Shared fixtures and brute-force reference implementations."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core import Assignment, prepare
from repro.core.blocks import BlockKind
from repro.sparse import generators, grid5, grid9, spd_from_graph
from repro.sparse.pattern import LowerPattern, SymmetricGraph

# Properties that set no ``max_examples`` of their own run the active
# profile's count: Hypothesis' default in tier-1, five times that under
# ``--hypothesis-profile=full`` (the CI kernel-identity step).
settings.register_profile("full", max_examples=500, deadline=None)

# ----------------------------------------------------------------------
# Brute-force references (kept deliberately naive)
# ----------------------------------------------------------------------


def brute_force_fill(dense_bool: np.ndarray) -> np.ndarray:
    """Symbolic Cholesky by literal elimination on a dense boolean matrix.
    Returns the boolean lower-triangular structure of L (diag included)."""
    a = dense_bool.copy()
    n = a.shape[0]
    np.fill_diagonal(a, True)
    for k in range(n):
        rows = np.nonzero(a[k + 1 :, k])[0] + k + 1
        for i in rows:
            for j in rows:
                a[i, j] = True
    return np.tril(a)


def brute_force_etree(dense_lower: np.ndarray) -> np.ndarray:
    """parent[j] = min{i > j : L[i, j] != 0} on the *filled* structure."""
    filled = brute_force_fill(dense_lower | dense_lower.T)
    n = filled.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        below = np.nonzero(filled[j + 1 :, j])[0]
        if len(below):
            parent[j] = j + 1 + below[0]
    return parent


def brute_force_updates(pattern: LowerPattern) -> set[tuple[int, int, int]]:
    """All (i, j, k) pair updates, by triple loop."""
    out = set()
    dense = pattern.to_dense_bool()
    n = pattern.n
    for k in range(n):
        for j in range(k + 1, n):
            if not dense[j, k]:
                continue
            for i in range(j, n):
                if dense[i, k]:
                    out.add((i, j, k))
    return out


def brute_force_traffic(owner: np.ndarray, pattern: LowerPattern,
                        include_scale: bool = True) -> np.ndarray:
    """Distinct non-local element reads per processor, by literal walk."""
    nprocs = int(owner.max()) + 1 if len(owner) else 1
    dense = pattern.to_dense_bool()
    n = pattern.n
    eid = {}
    cols = pattern.element_cols()
    for e in range(pattern.nnz):
        eid[(int(pattern.rowidx[e]), int(cols[e]))] = e
    fetched: list[set[int]] = [set() for _ in range(nprocs)]
    for k in range(n):
        rows = [i for i in range(k + 1, n) if dense[i, k]]
        for j in rows:
            for i in rows:
                if i < j:
                    continue
                p = int(owner[eid[(i, j)]])
                for src in (eid[(i, k)], eid[(j, k)]):
                    if int(owner[src]) != p:
                        fetched[p].add(src)
    if include_scale:
        for (i, j), e in eid.items():
            p = int(owner[e])
            d = eid[(j, j)]
            if int(owner[d]) != p:
                fetched[p].add(d)
    return np.asarray([len(s) for s in fetched], dtype=np.int64)


def traffic_oracle(owner, nprocs: int, updates, include_scale: bool = True) -> np.ndarray:
    """Distinct non-local fetches per processor, straight from the
    paper's definition: the set {(owner[reader], source)} over every
    read, minus the pairs whose processor owns the source.

    The set is a dense ``nprocs x nnz`` membership bitmap — no sort, no
    read index, no chunking: nothing shared with the kernel under test.
    """
    owner = np.asarray(owner)
    nnz = updates.pattern.nnz
    fetched = np.zeros((nprocs, nnz), dtype=bool)
    reader_proc = owner[updates.target]
    fetched[reader_proc, updates.source_i] = True
    fetched[reader_proc, updates.source_j] = True
    if include_scale:
        fetched[owner, updates.scale_source] = True
    fetched[owner, np.arange(nnz)] = False
    return fetched.sum(axis=1)


def bare_owners(assignment):
    """The same owners with no unit-level view, so the traffic layer
    takes the element kernel."""
    return Assignment(
        "bare", assignment.nprocs, assignment.pattern, assignment.owner_of_element
    )


def volume_oracle(uoe, updates, include_scale: bool) -> Counter:
    """{(source unit, target unit): distinct source elements read across
    the unit boundary}, by collecting the (target unit, source element)
    pairs of every read into a Python set."""
    uoe = uoe.tolist()
    target = updates.target.tolist()
    reads = list(zip(updates.source_i.tolist(), target))
    reads += zip(updates.source_j.tolist(), target)
    if include_scale:
        reads += zip(updates.scale_source.tolist(), range(len(uoe)))
    pairs = {(uoe[r], s) for s, r in reads if uoe[s] != uoe[r]}
    return Counter((uoe[s], t) for t, s in pairs)


def schedule_oracle(partition, deps, nprocs: int, unit_work=None,
                    policy: str = "first") -> np.ndarray:
    """``proc_of_unit`` of the paper's §3.4 allocation, read off the
    partition's row views (``units``, ``clusters``, ``order_key``) with
    Python sets and a sort per cluster — the pre-columnar allocator,
    kept as the audited oracle for ``schedule_blocks``.
    """
    units = partition.units
    if unit_work is None:
        unit_work = partition.unit_work
    unit_work = np.asarray(unit_work, dtype=np.float64)
    proc_of_unit = np.full(len(units), -1, dtype=np.int64)
    proc_work = np.zeros(nprocs, dtype=np.float64)
    marker = 0  # the "currently available" processor in P_g

    def assign(uid: int, proc: int) -> None:
        proc_of_unit[uid] = proc
        proc_work[proc] += unit_work[uid]

    def take_marker() -> int:
        nonlocal marker
        p = marker
        marker = (marker + 1) % nprocs
        return p

    independent = deps.independent_units
    preds = deps.predecessors

    # step 1: independent columns, wrap-around
    wrap_counter = 0
    independent_column_uids = set()
    for u in units:  # units are in left-to-right cluster order
        if u.kind is BlockKind.COLUMN and independent[u.uid]:
            assign(u.uid, wrap_counter % nprocs)
            wrap_counter += 1
            independent_column_uids.add(u.uid)

    # steps 2-4: scan remaining clusters left to right
    for cluster in partition.clusters:
        cunits = sorted(partition.units_of_cluster(cluster.index), key=lambda u: u.order_key)
        if cluster.is_column:
            u = cunits[0]
            if u.uid in independent_column_uids:
                continue
            pred_procs = [int(proc_of_unit[p]) for p in preds[u.uid]]
            pred_procs = [p for p in pred_procs if p >= 0]
            if not pred_procs or policy == "round_robin":
                assign(u.uid, take_marker())
            elif policy == "first":
                assign(u.uid, pred_procs[0])
            else:  # least_loaded
                assign(u.uid, min(set(pred_procs), key=lambda p: (proc_work[p], p)))
            continue

        # Multi-column cluster: triangle units first, in order.
        tri_units = [u for u in cunits if u.parent_kind is BlockKind.TRIANGLE]
        rect_units = [u for u in cunits if u.parent_kind is BlockKind.RECTANGLE]
        p_a: set[int] = set()  # processors already used in this triangle
        for u in tri_units:
            chosen = -1
            for p_unit in preds[u.uid]:
                proc = int(proc_of_unit[p_unit])
                if proc >= 0 and proc not in p_a:
                    chosen = proc
                    break
            if chosen < 0:
                chosen = take_marker()
            p_a.add(chosen)
            assign(u.uid, chosen)

        # Rectangles below: restricted to P_t, in increasing-work order,
        # re-sorted before each dense rectangle.
        p_t = sorted({int(proc_of_unit[u.uid]) for u in tri_units})
        by_rect: dict[int, list] = {}
        for u in rect_units:
            by_rect.setdefault(u.order_key[1], []).append(u)
        for rect_index in sorted(by_rect):
            ordered_procs = sorted(p_t, key=lambda p: (proc_work[p], p))
            for slot, u in enumerate(sorted(by_rect[rect_index], key=lambda x: x.order_key)):
                assign(u.uid, ordered_procs[slot % len(ordered_procs)])
    return proc_of_unit


# ----------------------------------------------------------------------
# Generated structures (Hypothesis)
# ----------------------------------------------------------------------

#: The seeded families of ``repro.sparse.generators`` at n <= 200, as
#: ``family -> (size, seed) -> graph``; ``size`` runs 2..14.
_FAMILIES = {
    "grid5": lambda k, seed: generators.grid5(k, 1 + seed % k),
    "grid9": lambda k, seed: generators.grid9(k, 1 + seed % k),
    "lshape": lambda k, seed: generators.lshape_mesh(k + 2, 8, 1 + seed % k, 1 + seed % 3),
    "band": lambda k, seed: generators.band_graph(4 * k, 1 + seed % 6),
    "path": lambda k, seed: generators.path_graph(5 * k),
    "star": lambda k, seed: generators.star_graph(3 * k),
    "random": lambda k, seed: generators.random_symmetric_graph(4 * k, 0.15, seed),
    "power": lambda k, seed: generators.power_network(8 * k, 2 * k, seed),
    "knn": lambda k, seed: generators.knn_mesh(6 * k, 18 * k, seed),
    "hex": lambda k, seed: generators.hex_mesh(k, 2, 1 + seed % 3),
    "tet": lambda k, seed: generators.tet_mesh(k, 2, 1 + seed % 3),
    "aniso": lambda k, seed: generators.aniso_grid(k, 1 + seed % k, 2),
    "social": lambda k, seed: generators.social_graph(12 * k, 0.8, max_len=16, seed=seed),
    "powlaw": lambda k, seed: generators.powlaw_graph(6 * k, seed=seed),
}


@st.composite
def generated_graphs(draw) -> SymmetricGraph:
    """One structure from a seeded generator family, n <= 200."""
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    size = draw(st.integers(2, 14))
    seed = draw(st.integers(0, 2**16))
    return _FAMILIES[family](size, seed)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _sandbox_run_registry(tmp_path, monkeypatch):
    """Point the obs run registry at a throwaway directory so tests that
    drive the CLI (sweep/bench targets record manifests) never write
    ``.repro/runs`` into the working tree."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "repro-runs"))


@pytest.fixture(scope="session")
def grid_graph() -> SymmetricGraph:
    return grid5(5, 5)


@pytest.fixture(scope="session")
def king_graph() -> SymmetricGraph:
    return grid9(6, 6)


@pytest.fixture(scope="session")
def small_spd():
    return spd_from_graph(grid5(4, 4), seed=11)


@pytest.fixture(scope="session")
def prepared_grid():
    """An MMD-ordered, symbolically-factored 8x8 9-point grid."""
    return prepare(grid9(8, 8), name="grid9(8,8)")


@pytest.fixture(scope="session")
def prepared_lap30():
    """The paper's LAP30 problem, prepared once per test session."""
    from repro.sparse import load

    return prepare(load("LAP30"), name="LAP30")


def random_connected_graph(n: int, extra: int, seed: int) -> SymmetricGraph:
    """Random spanning tree + ``extra`` chords (test workload helper)."""
    rng = np.random.default_rng(seed)
    us = [int(rng.integers(v)) for v in range(1, n)]
    vs = list(range(1, n))
    for _ in range(extra):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            us.append(a)
            vs.append(b)
    return SymmetricGraph.from_edges(n, np.asarray(us), np.asarray(vs))

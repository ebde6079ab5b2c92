"""Minimum degree orderings.

Three variants are provided:

* :func:`minimum_degree` — the textbook single-elimination algorithm on
  an explicit elimination graph.
* :func:`multiple_minimum_degree_reference` — Liu's modified multiple
  minimum degree (MMD, TOMS 1985) on an explicit elimination graph of
  Python sets.  Easy to audit, and the executable specification the
  fast path is asserted against.
* :func:`multiple_minimum_degree` — the same algorithm on two fast
  representations, dispatched by problem size.  Up to
  :data:`_BITSET_MAX_N` unknowns, the elimination graph lives as one
  Python big integer per row (:func:`_mmd_bitset`): clique unions,
  reach computation, and indistinguishable-node detection are single
  C-level bit operations, dead nodes are masked lazily by a global
  alive bitmask, and merges key an exact closure-bitset dictionary.
  Beyond that, the elimination graph lives as sorted CSR rows in one
  elbow-room numpy arena, and each elimination pass is a few whole-pass
  array operations: one gather of every candidate's row selects the
  independent set and yields the pivots' reaches, one batched rebuild
  absorbs the new elements into the touched rows, and a closure hash
  screen finds the classes of rows with equal closed neighbourhoods,
  the only rows that can merge.  Both return the **identical
  permutation** to the reference — the pass structure, tie-breaking,
  and merge order are reproduced exactly, only the data structure
  differs.

Both MMD variants implement the three classic refinements:

- **multiple elimination**: an independent set of minimum-degree nodes
  is eliminated per pass before degrees are recomputed;
- **indistinguishable-node merging** (supervariables): nodes with
  identical closed neighbourhoods are merged and eliminated together;
- **external degree**: the degree used for selection counts original
  variables outside the node's own supervariable.
"""

from __future__ import annotations

import numpy as np

from ..obs import trace as obs
from ..sparse.pattern import SymmetricGraph

__all__ = [
    "minimum_degree",
    "multiple_minimum_degree",
    "multiple_minimum_degree_reference",
]

#: External-degree sentinel for nodes no longer alive; larger than any
#: real degree (< n) but far from the int64 overflow line so that
#: ``sentinel + delta`` is always safe.
_DEAD = np.int64(1) << 50


def _init_adjacency(graph: SymmetricGraph) -> list[set[int]]:
    return [set(graph.neighbors(i).tolist()) for i in range(graph.n)]


def _check_delta(delta: int) -> None:
    # A negative tolerance puts the threshold below the minimum degree:
    # no node would ever be selected and the pass loop would never end.
    if delta < 0:
        raise ValueError(f"MMD needs delta >= 0, got {delta}")


def minimum_degree(graph: SymmetricGraph) -> np.ndarray:
    """Single-elimination minimum degree.  Ties break to the lowest index."""
    n = graph.n
    adj = _init_adjacency(graph)
    alive = np.ones(n, dtype=bool)
    deg = np.array([len(a) for a in adj], dtype=np.int64)
    perm = np.empty(n, dtype=np.int64)
    for k in range(n):
        alive_idx = np.nonzero(alive)[0]
        v = int(alive_idx[np.argmin(deg[alive_idx])])
        perm[k] = v
        alive[v] = False
        nbrs = adj[v]
        for u in nbrs:
            au = adj[u]
            au.discard(v)
            au |= nbrs
            au.discard(u)
        for u in nbrs:
            deg[u] = len(adj[u])
        adj[v] = set()
    return perm


def multiple_minimum_degree_reference(
    graph: SymmetricGraph, delta: int = 0
) -> np.ndarray:
    """Liu's multiple minimum degree ordering (set-of-sets reference).

    ``delta`` is the multiple-elimination tolerance: nodes whose external
    degree is within ``delta`` of the minimum are eligible in the same
    elimination pass (delta = 0 reproduces strict MMD); it must not be
    negative.
    """
    _check_delta(delta)
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = _init_adjacency(graph)
    weight = np.ones(n, dtype=np.int64)  # supervariable sizes
    members: list[list[int]] = [[i] for i in range(n)]
    alive = np.ones(n, dtype=bool)

    def external_degree(v: int) -> int:
        return int(sum(weight[u] for u in adj[v]))

    extdeg = np.array([external_degree(i) for i in range(n)], dtype=np.int64)
    perm: list[int] = []
    n_remaining = n

    while n_remaining > 0:
        alive_idx = np.nonzero(alive)[0]
        dmin = int(extdeg[alive_idx].min())
        # --- multiple elimination: independent set of (near-)min nodes ---
        threshold = dmin + delta
        selected: list[int] = []
        blocked: set[int] = set()
        for v in alive_idx:
            v = int(v)
            if extdeg[v] > threshold or v in blocked:
                continue
            selected.append(v)
            blocked.add(v)
            blocked.update(adj[v])
        touched: set[int] = set()
        for v in selected:
            perm.extend(members[v])
            n_remaining -= len(members[v])
            alive[v] = False
            nbrs = adj[v]
            for u in nbrs:
                au = adj[u]
                au.discard(v)
                au |= nbrs
                au.discard(u)
            touched.update(nbrs)
            adj[v] = set()
        touched = {u for u in touched if alive[u]}

        # --- indistinguishable-node merging among the touched nodes ---
        by_closure: dict[frozenset[int], int] = {}
        for u in sorted(touched):
            closure = frozenset(adj[u] | {u})
            rep = by_closure.get(closure)
            if rep is None:
                by_closure[closure] = u
            else:
                # u is indistinguishable from rep: merge u into rep.
                members[rep].extend(members[u])
                weight[rep] += weight[u]
                alive[u] = False
                for w in adj[u]:
                    adj[w].discard(u)
                adj[u] = set()
        touched = {u for u in touched if alive[u]}

        for u in touched:
            extdeg[u] = external_degree(u)

    out = np.asarray(perm, dtype=np.int64)
    if len(out) != n:  # pragma: no cover - internal invariant
        raise AssertionError("MMD failed to eliminate every variable")
    return out


def _ragged_take(data: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``data[starts[i] : starts[i] + lens[i]]`` for all ``i``."""
    ends = lens.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return data[(starts - (ends - lens)).repeat(lens) + np.arange(total, dtype=np.int64)]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mixer (splitmix64); used as a content-hash code
    table so a closure's hash is the wrap-around sum of its members' codes."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class _Store:
    """Append-only int64 arena with elbow room.

    Every adjacency row lives in one flat array.  Rewritten rows are
    appended at ``free``; stale copies are reclaimed by a mark/sweep
    compaction when a reservation does not fit, and the arena doubles if
    compaction alone is not enough.
    """

    __slots__ = ("data", "free")

    def __init__(self, capacity: int) -> None:
        self.data = np.empty(capacity, dtype=np.int64)
        self.free = 0

    def reserve(self, need: int, compact) -> None:
        if self.free + need <= len(self.data):
            return
        compact()
        if self.free + need > len(self.data):
            cap = max(2 * len(self.data), self.free + need + 64)
            grown = np.empty(cap, dtype=np.int64)
            grown[: self.free] = self.data[: self.free]
            self.data = grown


#: Graphs up to this size take the big-int bitset fast path in
#: :func:`multiple_minimum_degree` (one Python integer per adjacency
#: row, so per-row cost scales with n/64 words); larger graphs use the
#: sparse CSR arena, whose cost scales with reach volume instead of n
#: per row operation.
_BITSET_MAX_N = 8192


def _bit_rows(graph: SymmetricGraph) -> list[int]:
    """Each adjacency row as a Python int, bit ``c`` set for neighbour ``c``:
    packed over the bytes from its first to its last neighbour, then
    shifted into place, so work and memory scale with the spans, not n²."""
    ptr = graph.indptr
    idx = graph.indices.astype(np.int64)
    lens = np.diff(ptr)
    nz = lens > 0
    lo = np.zeros(graph.n, dtype=np.int64)
    lo[nz] = idx[ptr[:-1][nz]] >> 3
    width = np.zeros(graph.n, dtype=np.int64)
    width[nz] = (idx[ptr[1:][nz] - 1] >> 3) - lo[nz] + 1
    end = width.cumsum()
    # Columns are sorted in each row, so the byte keys are sorted and one
    # byte's bits are a run: a sum of distinct bits is their union.
    key = (end - width - lo).repeat(lens) + (idx >> 3)
    first = np.flatnonzero(np.diff(key, prepend=-1))
    packed = np.zeros(int(end[-1]), dtype=np.uint8)
    packed[key[first]] = np.add.reduceat(1 << (idx & 7), first)
    buf = packed.tobytes()
    return [
        int.from_bytes(buf[e - w : e], "little") << s
        for e, w, s in zip(end.tolist(), width.tolist(), (lo << 3).tolist())
    ]


def _mmd_bitset(graph: SymmetricGraph, delta: int = 0) -> np.ndarray:
    """Bitset MMD fast path: the elimination graph as Python big ints.

    Each variable's adjacency row is one arbitrary-precision integer
    (bit ``c`` set means adjacency to ``c``), so clique unions, reach
    extraction and independence blocking are single C-level big-int
    operations with no per-element interpreter work.  Cleanup is fully
    lazy: nothing is ever deleted from a row.  Instead a global
    alive-mask ``G`` loses a bit whenever a variable dies (elimination
    or merge), and every read masks with ``G`` — a pivot's reach is
    ``row & G``, and a touched variable's closed neighbourhood at its
    merge-scan visit is again ``row & G`` (its self bit was set by the
    clique union, and ``G`` evolves during the scan exactly like the
    reference's eager deletions).

    Indistinguishable-node (mass) merging needs no hashing or screening
    at this tier: the masked closure integer itself is the dictionary
    key, giving the reference's frozen-dictionary semantics verbatim —
    entries are keyed by the closure value at visit time and are never
    updated afterwards.  External degrees are ``int.bit_count`` plus a
    supervariable-weight correction over ``closure & hmask`` (``hmask``
    flags reps with weight > 1), taken at visit time; a later merge
    only changes the rep's own degree, which is patched in place.
    """
    _check_delta(delta)
    n = graph.n
    adj = _bit_rows(graph)

    extnp = np.diff(graph.indptr).astype(np.int64)
    weight = [1] * n
    members: list[list[int]] = [[i] for i in range(n)]
    G = (1 << n) - 1  # alive mask; reads strip dead bits lazily
    hmask = 0  # bits of supervariables with weight > 1
    perm: list[int] = []
    n_remaining = n
    n_passes = 0
    n_merged = 0
    n_absorbed = 0
    n_mass = 0

    while n_remaining > 0:
        n_passes += 1
        threshold = int(extnp.min()) + delta
        candidates = np.flatnonzero(extnp <= threshold).tolist()

        # Multiple elimination: greedy independent set in index order.
        # Stale (dead) bits in a row cannot block a candidate, because
        # candidates are alive.
        bmask = 0
        selected = []
        for v in candidates:
            if (bmask >> v) & 1:
                continue
            selected.append(v)
            bmask |= adj[v]
        for v in selected:
            G ^= 1 << v
            mv = members[v]
            perm.extend(mv)
            n_remaining -= len(mv)
            if len(mv) > 1:
                n_mass += 1
        sel = np.asarray(selected, dtype=np.int64)
        extnp[sel] = _DEAD

        # Element absorption: each member of pivot v's reach gains the
        # whole reach (including its own self bit, which doubles as the
        # closure bit for the merge scan below).  Small reaches walk
        # their bits directly; large ones decode through unpackbits.
        nbytes = (n + 7) >> 3
        tmask = 0
        for v in selected:
            reach = adj[v] & G
            if reach == 0:
                continue
            n_absorbed += 1
            tmask |= reach
            if reach.bit_count() > 24:
                hits = np.flatnonzero(
                    np.unpackbits(
                        np.frombuffer(
                            reach.to_bytes(nbytes, "little"), np.uint8
                        ),
                        bitorder="little",
                    )
                ).tolist()
                for u in hits:
                    adj[u] |= reach
            else:
                m = reach
                while m:
                    b = m & -m
                    m ^= b
                    adj[b.bit_length() - 1] |= reach

        if tmask == 0:
            continue  # all selected pivots were isolated

        # Merge scan in ascending node order.  ``cur`` is the exact
        # closed neighbourhood at visit time (self bit included, dead
        # bits masked); equal closures merge, first visitor wins, and
        # the frozen dict key never changes afterwards.
        upd_idx: list[int] = []
        upd_val: list[int] = []
        merged: list[int] = []
        closures: dict[int, tuple[int, int]] = {}
        touched = np.flatnonzero(
            np.unpackbits(
                np.frombuffer(tmask.to_bytes(nbytes, "little"), np.uint8),
                bitorder="little",
            )
        ).tolist()
        for u in touched:
            cur = adj[u] & G
            adj[u] = cur
            hit = closures.get(cur)
            if hit is None:
                # External degree at visit time: popcount of the
                # closure plus supervariable excess, minus own weight.
                ext = cur.bit_count() - 1
                hx = cur & hmask
                if hx:
                    wu = weight[u]
                    while hx:
                        hb = hx & -hx
                        hx ^= hb
                        ext += weight[hb.bit_length() - 1] - 1
                    ext -= wu - 1
                closures[cur] = (u, len(upd_idx))
                upd_idx.append(u)
                upd_val.append(ext)
                continue
            rep, rpos = hit
            n_merged += 1
            wu = weight[u]
            members[rep].extend(members[u])
            weight[rep] += wu
            upd_val[rpos] -= wu
            hmask |= 1 << rep
            G ^= 1 << u
            merged.append(u)

        extnp[upd_idx] = upd_val
        if merged:
            extnp[merged] = _DEAD

    obs.counter("perf.order.passes", n_passes)
    obs.counter("perf.order.supernodes_merged", n_merged)
    obs.counter("perf.order.elements_absorbed", n_absorbed)
    obs.counter("perf.order.mass_eliminations", n_mass)
    obs.counter("perf.order.compactions", 0)
    return np.asarray(perm, dtype=np.int64)


def _dedup_sorted(a: np.ndarray) -> np.ndarray:
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if len(a) > 1 else a


def _within(lens: np.ndarray) -> np.ndarray:
    """``0 .. lens[i] - 1`` for every ``i``, concatenated."""
    ends = lens.cumsum()
    return np.arange(int(ends[-1]) if len(ends) else 0) - (ends - lens).repeat(lens)


def _closure_classes(ckey, touched, vals, starts, sizes, n1):
    """Classes of touched rows with equal closed neighbourhoods.

    Row ``i``'s closure is ``vals[starts[i] : starts[i] + sizes[i]]``
    plus ``touched[i]``; ``ckey`` is its hash screen.  Rows sharing a key
    are compared exactly with the first row of their hash group, all at
    once; a group holding a true hash collision is split exactly, in
    Python.  Returns ``None`` when no two closures are equal, else the
    rows of the classes of two or more as ascending ``nodes``, their
    ``classes``, and per node the classes whose closure holds it (CSR).
    """
    order = np.argsort(ckey, kind="stable")
    sk = ckey[order]
    same = sk[1:] == sk[:-1]
    if not same.any():
        return None
    screened = np.concatenate(([False], same)) | np.concatenate((same, [False]))
    cls = np.cumsum(np.concatenate(([True], ~same)))[screened]
    rows = order[screened]  # grouped by key, ascending within a group
    own = np.arange(len(rows), dtype=np.int64)
    lens = sizes[rows]
    key = np.concatenate(
        [np.repeat(own, lens) * n1 + _ragged_take(vals, starts[rows], lens),
         own * n1 + touched[rows]]
    )
    key.sort()
    cl = key % n1
    clen = lens + 1
    co = np.cumsum(clen) - clen
    first = cls.searchsorted(cls)  # each row's hash group's first row
    bad = clen != clen[first]
    eq = np.flatnonzero(~bad)
    lq = clen[eq]
    wq = _within(lq)
    diff = cl[np.repeat(co[eq], lq) + wq] != cl[np.repeat(co[first[eq]], lq) + wq]
    bad[eq[np.repeat(np.arange(len(eq)), lq)[diff]]] = True
    if bad.any():
        next_id = int(cls[-1]) + 1
        for g in np.unique(cls[bad]).tolist():
            split: dict[tuple, int] = {}
            for i in np.flatnonzero(cls == g).tolist():
                c = tuple(cl[co[i] : co[i] + clen[i]].tolist())
                cls[i] = split.setdefault(c, next_id + len(split))
            next_id += len(split)
    _, cls, counts = np.unique(cls, return_inverse=True, return_counts=True)
    multi = np.flatnonzero(counts[cls] > 1)
    if not len(multi):
        return None
    _, one, cls = np.unique(cls[multi], return_index=True, return_inverse=True)
    by_node = np.argsort(rows[multi])
    nodes = touched[rows[multi][by_node]]
    # Each class's closure, read off one member, restricted to the nodes
    # that can merge (the rows of the classes of two or more).
    src = multi[one]
    ce = cl[np.repeat(co[src], clen[src]) + _within(clen[src])]
    cid = np.repeat(np.arange(len(src)), clen[src])
    pos = np.minimum(np.searchsorted(nodes, ce), len(nodes) - 1)
    hit = nodes[pos] == ce
    by_pos = np.argsort(pos[hit], kind="stable")
    ptr = np.concatenate(([0], np.cumsum(np.bincount(pos[hit], minlength=len(nodes)))))
    return nodes.tolist(), cls[by_node].tolist(), ptr.tolist(), cid[hit][by_pos].tolist()


def multiple_minimum_degree(graph: SymmetricGraph, delta: int = 0) -> np.ndarray:
    """Array MMD; permutation-identical to the reference.

    Up to :data:`_BITSET_MAX_N` unknowns this is :func:`_mmd_bitset`.
    Beyond, every live variable's adjacency is a sorted CSR row in one
    flat arena (:class:`_Store`), and each elimination pass is a few
    whole-pass array operations:

    - **Selection.** One gather of every candidate's row.  Live adjacency
      is symmetric (a row not rewritten only loses entries, and dead
      entries are never candidates), so a candidate with no lower-indexed
      candidate neighbour is selected outright; only the conflicting
      pairs run the reference's greedy, in plain Python.
    - **Reaches.** The pivots' part of that gather, filtered by
      ``alive``, is every reach.  One batched gather / key-sort / dedup
      rebuilds the touched rows from their old rows plus each reach
      crossed with itself (eager element absorption).
    - **Merges by closure class.** One cumulative sum of packed per-node
      codes (weight in the low 25 bits, a 39-bit splitmix64 content code
      above) gives every touched row's external degree and closure hash.
      Only rows whose closed neighbourhood ``C`` equals another's can
      merge or be merged into: a merge of ``m`` into ``r`` has ``C_m =
      C_r`` with ``r`` live, so ``m`` is in a closure exactly when ``r``
      is, and removing merged nodes never makes two closures equal.  In
      ascending order a row of a class (:func:`_closure_classes`) merges
      into the class's latest representative unless a node of the class
      closure merged since that one was visited; otherwise it becomes
      the representative.  That is the reference's frozen-dictionary
      rule: on K5, after node 0 goes, the four twins merge in pairs.

    The test suite asserts identical permutations and ``perf.order.*``
    counters against the reference and the bitset tier.
    """
    _check_delta(delta)
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n <= _BITSET_MAX_N:
        return _mmd_bitset(graph, delta)
    if n >= (1 << 25):  # pragma: no cover - packed-code capacity guard
        raise NotImplementedError("packed degree codes require n < 2**25")

    nnz = int(graph.indptr[-1])
    store = _Store(3 * nnz + 8 * n + 64)
    store.data[:nnz] = graph.indices
    store.free = nnz

    row_start = graph.indptr[:-1].astype(np.int64)
    row_len = np.diff(graph.indptr).astype(np.int64)

    alive = np.ones(n, dtype=bool)
    weight = np.ones(n, dtype=np.int64)
    extdeg = row_len.copy()

    # Supervariable member chains: merged nodes are emitted after their rep.
    tail = list(range(n))
    nxt = [-1] * n

    f39 = _splitmix64(np.arange(1, n + 1, dtype=np.int64)) >> np.uint64(25)
    # Packed per-node code: 39-bit content hash above a 25-bit weight
    # field.  Segment sums of ccode give Σweight exactly in the low bits
    # (total weight is n < 2**25, and 64-bit wrap-around cannot carry
    # downward) and a wrap-around content hash above.
    ccode = (f39 << np.uint64(25)).view(np.int64) + weight
    _MASK25 = np.int64((1 << 25) - 1)
    _SALT = np.uint64(0x9E3779B97F4A7C15)
    _MASK39U = np.uint64((1 << 39) - 1)

    perm = np.empty(n, dtype=np.int64)
    n1 = np.int64(n + 1)
    n_eliminated = 0
    n_passes = 0
    n_merged = 0
    n_absorbed = 0
    n_mass = 0
    n_compactions = 0

    def compact() -> None:
        nonlocal n_compactions
        n_compactions += 1
        av = np.flatnonzero(alive)
        lens = row_len[av]
        packed = _ragged_take(store.data, row_start[av], lens)
        row_start[av] = np.cumsum(lens) - lens
        store.data[: len(packed)] = packed
        store.free = len(packed)

    while n_eliminated < n:
        n_passes += 1
        threshold = extdeg.min() + delta
        cand = np.flatnonzero(extdeg <= threshold)
        # Independent-set selection in index order, exactly as the
        # reference.  Stale entries are dead, never candidates.
        data = store.data
        clens = row_len[cand]
        crow = _ragged_take(data, row_start[cand], clens)
        cpos = np.arange(len(cand)).repeat(clens)
        lower = ((extdeg[crow] <= threshold) & (crow < cand[cpos])).nonzero()[0]
        keep = np.ones(len(cand), dtype=bool)
        if len(lower):
            # (v, w): candidate w < v is v's neighbour.  Pairs come in
            # ascending v, so w's fate is settled when v reads it.
            rejected = [False] * len(cand)
            for v, w in zip(cpos[lower].tolist(), cand.searchsorted(crow[lower]).tolist()):
                if not rejected[w]:
                    rejected[v] = True
            keep = ~np.array(rejected)
        sel = cand[keep]
        # Each pivot is emitted with its supervariable's member chain.
        wsel = weight[sel]
        ends = n_eliminated + wsel.cumsum()
        at = ends - wsel
        perm[at] = sel
        heavy = (wsel > 1).nonzero()[0]
        n_mass += len(heavy)
        for v, p in zip(sel[heavy].tolist(), at[heavy].tolist()):
            node = nxt[v]
            while node >= 0:
                p += 1
                perm[p] = node
                node = nxt[node]
        n_eliminated = int(ends[-1])
        alive[sel] = False
        extdeg[sel] = _DEAD
        # Every pivot's exact reach: its row minus dead entries.  Same-pass
        # pivots are mutually non-adjacent, so each row gathered above is
        # still its pivot's adjacency at elimination time.
        pk = keep[cpos] & alive[crow]
        pcat = crow[pk]
        if not len(pcat):
            continue
        plens = np.bincount(cpos[pk], minlength=len(cand))[keep]
        n_absorbed += int(np.count_nonzero(plens))
        touched = _dedup_sorted(np.sort(pcat))
        k = len(touched)
        # One update stream rebuilds every touched row: the old rows plus
        # each new element crossed with its own members (u gains L_i for
        # every pivot i whose reach contains u).
        tlens = row_len[touched]
        sq = plens * plens
        vals = np.concatenate(
            [_ragged_take(data, row_start[touched], tlens),
             pcat[(plens.cumsum() - plens).repeat(sq) + _within(sq) % plens.repeat(sq)]]
        )
        owners = np.concatenate(
            [np.arange(k).repeat(tlens), touched.searchsorted(pcat).repeat(plens.repeat(plens))]
        )
        live = alive[vals] & (vals != touched[owners])
        key = _dedup_sorted(np.sort(owners[live] * n1 + vals[live]))
        vals = key % n1
        sizes = np.bincount(key // n1, minlength=k)
        ends = sizes.cumsum()
        starts = ends - sizes
        # Append the rebuilt rows to the arena (eager element absorption).
        store.reserve(len(vals), compact)
        base = store.free
        store.data[base : base + len(vals)] = vals
        row_start[touched] = base + starts
        row_len[touched] = sizes
        store.free = base + len(vals)
        # One cumulative sum of the packed codes yields both the external
        # degrees (low bits) and the closure content hashes (high bits).
        cumc = np.concatenate(([0], ccode[vals].cumsum()))
        csums = cumc[ends] - cumc[starts]
        extdeg[touched] = csums & _MASK25
        ckey = (
            ((csums.view(np.uint64) >> np.uint64(25)) + f39[touched]) & _MASK39U
        ) + sizes.view(np.uint64) * _SALT
        classes = _closure_classes(ckey, touched, vals, starts, sizes, n1)
        if classes is None:
            continue
        nodes, cls, ptr, ids = classes
        rep = [-1] * len(nodes)  # class -> latest representative
        stale = [False] * len(nodes)  # a node of the closure merged since
        into = [-1] * len(nodes)
        for i, u in enumerate(nodes):
            c = cls[i]
            r = rep[c]
            if r < 0 or stale[c]:
                rep[c] = u
                stale[c] = False
                continue
            into[i] = r
            nxt[tail[r]] = u
            tail[r] = tail[u]
            for j in ids[ptr[i] : ptr[i + 1]]:
                stale[j] = True
        into = np.array(into)
        merged = into >= 0
        if merged.any():
            # Each rep takes at most one merge per pass (the merge makes
            # its class stale).  By the closure lemma a merged node and its
            # rep are in the same touched rows, so only the rep's own
            # external degree moves: it loses the merged node's weight.
            cm = into[merged]
            um = np.array(nodes)[merged]
            n_merged += len(um)
            wm = weight[um]
            weight[cm] += wm
            ccode[cm] += wm
            extdeg[cm] -= wm
            alive[um] = False
            extdeg[um] = _DEAD
    obs.counter("perf.order.passes", n_passes)
    obs.counter("perf.order.supernodes_merged", n_merged)
    obs.counter("perf.order.elements_absorbed", n_absorbed)
    obs.counter("perf.order.mass_eliminations", n_mass)
    obs.counter("perf.order.compactions", n_compactions)
    return perm

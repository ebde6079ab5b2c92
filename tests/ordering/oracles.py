"""Ordering oracles: reference bodies that used to live in ``src/``,
kept for the tests to compare against.

* :func:`multiple_minimum_degree_reference` — Liu's modified multiple
  minimum degree (MMD, TOMS 1985) on an explicit elimination graph of
  Python sets.  Easy to audit, and the executable specification both
  tiers of ``repro.ordering.multiple_minimum_degree`` are asserted
  permutation-identical to.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.pattern import SymmetricGraph


def multiple_minimum_degree_reference(
    graph: SymmetricGraph, delta: int = 0
) -> np.ndarray:
    """Liu's multiple minimum degree ordering (set-of-sets reference).

    ``delta`` is the multiple-elimination tolerance: nodes whose external
    degree is within ``delta`` of the minimum are eligible in the same
    elimination pass (delta = 0 reproduces strict MMD); it must not be
    negative.
    """
    if delta < 0:
        raise ValueError(f"MMD needs delta >= 0, got {delta}")
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = [set(graph.neighbors(i).tolist()) for i in range(n)]
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

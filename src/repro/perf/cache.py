"""Content-addressed disk cache for :func:`repro.core.pipeline.prepare`.

Ordering and symbolic factorization are the sweep-invariant, Python-loop
heavy stages of the pipeline; everything downstream (partitioning,
scheduling, metrics) re-derives cheaply from their output.  This module
persists that output so repeated sweeps — and every worker process of a
parallel sweep — skip both stages entirely.

Cache entries are keyed by a SHA-256 over the *content* of the input
structure (CSR arrays of the :class:`SymmetricGraph`), the ordering
algorithm name, and :data:`CACHE_VERSION`, so a matrix generator tweak
or an ordering change can never serve a stale entry.  Entries are
``.npz`` files laid out ``<root>/<key[:2]>/<key>.npz`` and carry the
version redundantly inside the payload; an entry that is unreadable,
fails validation, or was written by a different version is **ignored**
(treated as a miss and recomputed), never trusted.

Observability: loads and stores run under ``perf.cache.load`` /
``perf.cache.store`` spans and bump ``perf.cache.hit`` /
``perf.cache.miss`` (plus ``perf.cache.store``) counters.  Alongside
the per-run counters, a ``stats.json`` in the cache root keeps
*advisory* lifetime hit/miss/store totals (best-effort: concurrent
writers may drop increments, unwritable roots are ignored) read back by
``python -m repro cache stats``.  Entry files are mtime-touched on
every hit, which makes :func:`prune_cache` — ``python -m repro cache
prune --max-bytes N`` — a true LRU: it evicts the least recently *used*
entries, not merely the oldest written.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from ..core.clusters import ClusterSet
from ..core.dependencies import DependencyInfo
from ..core.partitioner import PARTITION_IMPL_VERSION, Partition
from ..core.pipeline import (
    PartitionedMatrix,
    PreparedMatrix,
    partition_prepared,
    prepare,
)
from ..obs import trace as obs
from ..ordering import ORDERING_IMPL_VERSION
from ..sparse.dtypes import index_dtype
from ..sparse.pattern import LowerPattern, SymmetricGraph
from ..sparse.registry import BIG_TIER_MIN_N
from ..symbolic.fill import SYMBOLIC_IMPL_VERSION, SymbolicFactor

__all__ = [
    "CACHE_VERSION",
    "PrepareCache",
    "PartitionCache",
    "cache_max_bytes",
    "cached_prepare",
    "cached_partition",
    "cache_stats",
    "default_cache_dir",
    "parse_bytes",
    "prepare_key",
    "partition_key",
    "prune_cache",
    "render_cache_stats",
]

#: Bump whenever the on-disk payload layout or the semantics of any
#: cached stage change; old entries then miss on both key and payload.
#: v2: index arrays stored at their narrow (int32-capable) dtypes.
#: v3: partition entries hold the unit table and the cluster columns.
CACHE_VERSION = 3


def parse_bytes(text: str) -> int:
    """Parse a byte size with optional K/M/G suffix (e.g. ``100M``)."""
    raw = text.strip().upper()
    scale = 1
    for suffix, mult in (("K", 1024), ("M", 1024**2), ("G", 1024**3)):
        if raw.endswith(suffix):
            raw, scale = raw[:-1], mult
            break
    value = float(raw) * scale
    if not math.isfinite(value) or value < 0:
        raise ValueError("size must be finite and >= 0")
    return int(value)


def cache_max_bytes() -> int | None:
    """The ``$REPRO_CACHE_MAX_BYTES`` budget, or ``None`` when unset.

    When set, every successful store auto-prunes the cache back to this
    budget (LRU), and ``repro cache prune`` uses it as the default
    ``--max-bytes``.  Unparsable values are ignored.
    """
    env = os.environ.get("REPRO_CACHE_MAX_BYTES", "")
    if not env.strip():
        return None
    try:
        return parse_bytes(env)
    except ValueError:
        return None


def _auto_prune(root: Path) -> None:
    budget = cache_max_bytes()
    if budget is not None:
        prune_cache(root, max_bytes=budget)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-prepare``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-prepare"


def _bump_stats(root: Path, field: str) -> None:
    """Advisory lifetime counter bump in ``<root>/stats.json``.

    Best-effort by design: racing writers may lose an increment and a
    read-only root is silently skipped — the counters inform ``cache
    stats``, they never gate correctness.
    """
    path = root / "stats.json"
    try:
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict):
                doc = {}
        except (OSError, ValueError):
            doc = {}
        doc[field] = int(doc.get(field, 0)) + 1
        root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".json.tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        pass


def _touch(path: Path) -> None:
    """Refresh an entry's mtime on hit so LRU pruning sees real usage."""
    try:
        os.utime(path)
    except OSError:
        pass


def prepare_key(graph: SymmetricGraph, ordering: str) -> str:
    """Content hash identifying one (structure, ordering) prepare result.

    Includes the ordering- and symbolic-implementation version tags, so
    warm caches written by an older kernel are invalidated (treated as
    misses) rather than silently reused after a rewrite.
    """
    impl = ORDERING_IMPL_VERSION.get(ordering, 0)
    h = hashlib.sha256()
    h.update(
        f"repro-prepare|v{CACHE_VERSION}|{ordering}"
        f"|impl{impl}|sym{SYMBOLIC_IMPL_VERSION}|{graph.n}|".encode()
    )
    h.update(np.ascontiguousarray(graph.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


class PrepareCache:
    """Disk cache mapping (structure, ordering) -> prepared factorization."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str, n: int | None = None) -> Path:
        """Entry path; big-tier problems get a ``.big.npz`` suffix so
        ``cache stats`` can split byte totals by tier."""
        if n is not None and n >= BIG_TIER_MIN_N:
            return self.root / key[:2] / f"{key}.big.npz"
        return self.root / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    def load(
        self, graph: SymmetricGraph, ordering: str = "mmd", name: str = ""
    ) -> PreparedMatrix | None:
        """Return the cached prepare result, or ``None`` on any miss.

        Corrupted, truncated, incomplete or version-mismatched entries
        are treated as misses — the caller recomputes and overwrites.
        """
        key = prepare_key(graph, ordering)
        path = self.path_for(key, graph.n)
        with obs.span("perf.cache.load", key=key[:12], matrix=name or "matrix"):
            try:
                with np.load(path) as data:
                    if int(data["version"]) != CACHE_VERSION:
                        raise ValueError("cache version mismatch")
                    perm = np.asarray(data["perm"], dtype=np.int64)
                    parent = np.asarray(data["parent"], dtype=np.int64)
                    indptr = np.asarray(data["indptr"], dtype=np.int64)
                    # Row indices keep the narrow storage dtype the
                    # symbolic stage would have produced natively.
                    rowidx = np.asarray(
                        data["rowidx"], dtype=index_dtype(graph.n)
                    )
                # LowerPattern validates shape/diagonal invariants; a
                # mangled payload raises here and counts as a miss.
                pattern = LowerPattern(graph.n, indptr, rowidx)
                if len(perm) != graph.n or len(parent) != graph.n:
                    raise ValueError("cache payload has wrong order")
            except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
                if not isinstance(exc, FileNotFoundError):
                    obs.counter("perf.cache.invalid")
                obs.counter("perf.cache.miss")
                _bump_stats(self.root, "prepare.miss")
                return None
        obs.counter("perf.cache.hit")
        _bump_stats(self.root, "prepare.hit")
        _touch(path)
        return PreparedMatrix(
            name=name or "matrix",
            graph=graph,
            perm=perm,
            symbolic=SymbolicFactor(pattern, parent, perm),
        )

    def store(
        self, graph: SymmetricGraph, ordering: str, prepared: PreparedMatrix
    ) -> Path:
        """Persist a prepare result atomically (write-temp + rename)."""
        key = prepare_key(graph, ordering)
        path = self.path_for(key, graph.n)
        with obs.span("perf.cache.store", key=key[:12], matrix=prepared.name):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(
                        fh,
                        version=np.int64(CACHE_VERSION),
                        perm=prepared.perm,
                        parent=prepared.symbolic.parent,
                        indptr=prepared.pattern.indptr,
                        rowidx=prepared.pattern.rowidx,
                    )
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        obs.counter("perf.cache.store")
        _bump_stats(self.root, "prepare.store")
        _auto_prune(self.root)
        return path


def partition_key(
    graph: SymmetricGraph, ordering: str, grain: int, min_width: int
) -> str:
    """Content hash identifying one partition + dependency result.

    Layered on :func:`prepare_key` (so it inherits the structure hash
    and the ordering/symbolic impl tags) plus the partition parameters
    and :data:`~repro.core.partitioner.PARTITION_IMPL_VERSION`, the
    partition/dependency stage's own impl-version tag.
    """
    h = hashlib.sha256()
    h.update(
        f"repro-partition|v{CACHE_VERSION}|impl{PARTITION_IMPL_VERSION}"
        f"|g{grain}|w{min_width}|".encode()
    )
    h.update(prepare_key(graph, ordering).encode())
    return h.hexdigest()


#: The stored :class:`ClusterSet` columns, in constructor order.
_CLUSTER_COLUMNS = (
    "col_lo", "col_hi", "triangle_padding", "rectangle_padding", "rect_indptr", "rect_rows",
)


class PartitionCache:
    """Disk cache for the nprocs-invariant partition/dependency stage.

    Maps (structure, ordering, grain, min_width) to the
    :class:`~repro.core.pipeline.PartitionedMatrix` payload: the unit
    table and cluster columns exactly as :class:`Partition` and
    :class:`ClusterSet` hold them, dependency edges and per-unit work.
    Only the default
    ``zero_tolerance == 0`` / ``grain_rectangle is None`` configuration
    is cacheable; anything else bypasses this cache.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str, n: int | None = None) -> Path:
        if n is not None and n >= BIG_TIER_MIN_N:
            return self.root / key[:2] / f"{key}.part.big.npz"
        return self.root / key[:2] / f"{key}.part.npz"

    # ------------------------------------------------------------------
    def load(
        self,
        prepared: PreparedMatrix,
        grain: int,
        min_width: int,
        ordering: str = "mmd",
    ) -> PartitionedMatrix | None:
        """Return the cached partition stage, or ``None`` on any miss."""
        key = partition_key(prepared.graph, ordering, grain, min_width)
        path = self.path_for(key, prepared.graph.n)
        with obs.span(
            "perf.cache.partition.load", key=key[:12], matrix=prepared.name
        ):
            try:
                with np.load(path) as data:
                    if int(data["version"]) != CACHE_VERSION:
                        raise ValueError("cache version mismatch")
                    if int(data["impl"]) != PARTITION_IMPL_VERSION:
                        raise ValueError("partition impl version mismatch")
                    payload = {name: np.asarray(data[name]) for name in data.files}
                partitioned = self._rebuild(prepared, grain, min_width, payload)
            except (OSError, KeyError, ValueError, IndexError, zipfile.BadZipFile) as exc:
                if not isinstance(exc, FileNotFoundError):
                    obs.counter("perf.cache.partition.invalid")
                obs.counter("perf.cache.partition.miss")
                _bump_stats(self.root, "partition.miss")
                return None
        obs.counter("perf.cache.partition.hit")
        _bump_stats(self.root, "partition.hit")
        _touch(path)
        return partitioned

    def _rebuild(
        self,
        prepared: PreparedMatrix,
        grain: int,
        min_width: int,
        data: dict,
    ) -> PartitionedMatrix:
        """The payload as a partition stage.  The :class:`ClusterSet` and
        :class:`Partition` constructors validate their columns; what
        only this layer knows (edges, unit work) is checked here."""
        pattern = prepared.pattern
        cluster_set = ClusterSet(
            pattern,
            *(data[name] for name in _CLUSTER_COLUMNS),
            min_width,
            0.0,
        )
        partition = Partition(
            pattern,
            cluster_set,
            data["units"],
            data["unit_of_element"].astype(np.int64),
            grain,
            int(data["grain_rectangle"]),
        )
        n_units = partition.num_units
        edges = data["edges"].astype(np.int64).reshape(-1, 2)
        if edges.size and (
            edges.min() < 0 or edges.max() >= n_units or (edges[:, 0] == edges[:, 1]).any()
        ):
            raise ValueError("cache payload has a malformed dependency edge")
        unit_work = data["unit_work"].astype(np.int64)
        if unit_work.shape != (n_units,):
            raise ValueError("cache payload has the wrong unit_work length")
        category_counts = dict(
            zip(
                data["cat_keys"].astype(np.int64).tolist(),
                data["cat_vals"].astype(np.int64).tolist(),
            )
        )
        dependencies = DependencyInfo(
            partition, edges, category_counts, bool(data["dep_include_scale"])
        )
        return PartitionedMatrix(
            prepared=prepared,
            partition=partition,
            dependencies=dependencies,
            unit_work=unit_work,
            grain=grain,
            min_width=min_width,
        )

    def store(
        self,
        prepared: PreparedMatrix,
        partitioned: PartitionedMatrix,
        ordering: str = "mmd",
    ) -> Path:
        """Persist the partition stage atomically (write-temp + rename)."""
        key = partition_key(
            prepared.graph, ordering, partitioned.grain, partitioned.min_width
        )
        path = self.path_for(key, prepared.graph.n)
        partition = partitioned.partition
        clusters = partition.clusters
        with obs.span(
            "perf.cache.partition.store", key=key[:12], matrix=prepared.name
        ):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(
                        fh,
                        version=np.int64(CACHE_VERSION),
                        impl=np.int64(PARTITION_IMPL_VERSION),
                        grain=np.int64(partitioned.grain),
                        min_width=np.int64(partitioned.min_width),
                        grain_rectangle=np.int64(partition.grain_rectangle),
                        # Stored narrow (unit ids fit int32 far before
                        # nnz does); loads widen back to the partition
                        # stage's native int64.
                        unit_of_element=partition.unit_of_element.astype(
                            index_dtype(max(partition.num_units, 1)), copy=False
                        ),
                        units=partition.table,
                        **{name: getattr(clusters, name) for name in _CLUSTER_COLUMNS},
                        edges=partitioned.dependencies.edges,
                        cat_keys=np.asarray(
                            list(partitioned.dependencies.category_counts),
                            dtype=np.int64,
                        ),
                        cat_vals=np.asarray(
                            list(partitioned.dependencies.category_counts.values()),
                            dtype=np.int64,
                        ),
                        dep_include_scale=np.bool_(
                            partitioned.dependencies.include_scale
                        ),
                        unit_work=np.asarray(partitioned.unit_work, dtype=np.int64),
                    )
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        obs.counter("perf.cache.partition.store")
        _bump_stats(self.root, "partition.store")
        _auto_prune(self.root)
        return path


def cached_partition(
    prepared: PreparedMatrix,
    grain: int = 4,
    min_width: int = 4,
    ordering: str = "mmd",
    cache_dir: str | Path | None = None,
) -> PartitionedMatrix:
    """:func:`repro.core.pipeline.partition_prepared` through the disk
    cache.

    A hit skips the partition and dependency-analysis stages entirely; a
    miss runs them and stores the result for the next caller.
    """
    cache = PartitionCache(cache_dir)
    hit = cache.load(prepared, grain, min_width, ordering)
    if hit is not None:
        return hit
    partitioned = partition_prepared(prepared, grain=grain, min_width=min_width)
    cache.store(prepared, partitioned, ordering)
    return partitioned


def cached_prepare(
    graph: SymmetricGraph,
    ordering: str = "mmd",
    name: str = "",
    cache_dir: str | Path | None = None,
) -> PreparedMatrix:
    """:func:`repro.core.pipeline.prepare` through the disk cache.

    A hit skips the ordering and symbolic stages entirely; a miss runs
    them and stores the result for the next caller.
    """
    cache = PrepareCache(cache_dir)
    hit = cache.load(graph, ordering, name)
    if hit is not None:
        return hit
    prepared = prepare(graph, ordering=ordering, name=name)
    cache.store(graph, ordering, prepared)
    return prepared


def _cache_entries(root: Path) -> list[tuple[Path, int, float]]:
    """Every ``.npz`` entry under the two-level fanout as
    ``(path, size_bytes, mtime)``; unreadable files are skipped."""
    entries: list[tuple[Path, int, float]] = []
    if not root.is_dir():
        return entries
    for shard in sorted(root.iterdir()):
        if not (shard.is_dir() and len(shard.name) == 2):
            continue
        for path in sorted(shard.glob("*.npz")):
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((path, st.st_size, st.st_mtime))
    return entries


def _entry_kind_tier(path: Path) -> tuple[str, str]:
    """Classify an entry file by (kind, tier) from its name suffix."""
    name = path.name
    kind = "partition" if (
        name.endswith(".part.npz") or name.endswith(".part.big.npz")
    ) else "prepare"
    tier = "big" if name.endswith(".big.npz") else "small"
    return kind, tier


def cache_stats(root: str | Path | None = None) -> dict:
    """Snapshot of the cache directory: entry counts and bytes split by
    kind (prepare vs partition) and by tier (small vs big), plus the
    advisory lifetime hit/miss counters from ``stats.json`` and the
    active ``$REPRO_CACHE_MAX_BYTES`` budget (``None`` when unset)."""
    base = Path(root) if root is not None else default_cache_dir()
    kinds = {
        "prepare": {"entries": 0, "bytes": 0},
        "partition": {"entries": 0, "bytes": 0},
    }
    tiers = {
        "small": {"entries": 0, "bytes": 0},
        "big": {"entries": 0, "bytes": 0},
    }
    for path, size, _ in _cache_entries(base):
        kind, tier = _entry_kind_tier(path)
        kinds[kind]["entries"] += 1
        kinds[kind]["bytes"] += size
        tiers[tier]["entries"] += 1
        tiers[tier]["bytes"] += size
    try:
        counters = json.loads((base / "stats.json").read_text())
        if not isinstance(counters, dict):
            counters = {}
    except (OSError, ValueError):
        counters = {}
    return {
        "root": str(base),
        "prepare": kinds["prepare"],
        "partition": kinds["partition"],
        "tiers": tiers,
        "total_bytes": kinds["prepare"]["bytes"] + kinds["partition"]["bytes"],
        "max_bytes": cache_max_bytes(),
        "counters": {k: counters[k] for k in sorted(counters)},
    }


def prune_cache(root: str | Path | None = None, max_bytes: int = 0) -> dict:
    """Evict least-recently-used entries until the cache fits
    ``max_bytes``.

    Hits refresh an entry's mtime (:func:`_touch`), so mtime order *is*
    recency order.  Newest entries are kept while they fit the budget;
    everything older is deleted.  Returns ``{"removed", "freed_bytes",
    "kept", "kept_bytes"}``.
    """
    base = Path(root) if root is not None else default_cache_dir()
    entries = _cache_entries(base)
    entries.sort(key=lambda e: e[2], reverse=True)  # newest first
    kept = removed = freed = kept_bytes = 0
    budget = max(0, int(max_bytes))
    for path, size, _ in entries:
        if kept_bytes + size <= budget:
            kept += 1
            kept_bytes += size
            continue
        try:
            path.unlink()
        except OSError:
            continue
        removed += 1
        freed += size
    return {
        "removed": removed,
        "freed_bytes": freed,
        "kept": kept,
        "kept_bytes": kept_bytes,
    }


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024.0 or unit == "GB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{int(n)}B"


def render_cache_stats(stats: dict) -> str:
    """ASCII summary of :func:`cache_stats` for ``repro cache stats``."""
    lines = [f"cache root: {stats['root']}"]
    for kind in ("prepare", "partition"):
        block = stats.get(kind, {})
        lines.append(
            f"  {kind:<9}  {block.get('entries', 0):>5} entries"
            f"  {_fmt_bytes(block.get('bytes', 0)):>10}"
        )
    for tier in ("small", "big"):
        block = stats.get("tiers", {}).get(tier, {})
        lines.append(
            f"  tier {tier:<4}  {block.get('entries', 0):>5} entries"
            f"  {_fmt_bytes(block.get('bytes', 0)):>10}"
        )
    lines.append(f"  {'total':<9}  {'':>5}         {_fmt_bytes(stats.get('total_bytes', 0)):>10}")
    if stats.get("max_bytes") is not None:
        lines.append(
            f"  budget ($REPRO_CACHE_MAX_BYTES): {_fmt_bytes(stats['max_bytes'])}"
        )
    counters = stats.get("counters", {})
    if counters:
        lines.append("lifetime counters:")
        for key in sorted(counters):
            lines.append(f"  {key:<18} {counters[key]}")
    else:
        lines.append("lifetime counters: (none recorded)")
    return "\n".join(lines)

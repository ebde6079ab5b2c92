"""Prepare/partition caches: round-trips, every flavor of bad entry a miss."""

import numpy as np
import pytest

from repro import obs
from repro.core import prepare, schedule_blocks
from repro.perf import (
    CACHE_VERSION,
    PartitionCache,
    PrepareCache,
    cached_partition,
    cached_prepare,
    partition_key,
    prepare_key,
)
from repro.perf import cache as cache_mod
from repro.sparse import grid9


@pytest.fixture(scope="module")
def graph():
    return grid9(7, 7)


@pytest.fixture(scope="module")
def prepared(graph):
    return prepare(graph, name="grid9(7,7)")


class TestKey:
    def test_deterministic(self, graph):
        assert prepare_key(graph, "mmd") == prepare_key(graph, "mmd")

    def test_depends_on_ordering(self, graph):
        assert prepare_key(graph, "mmd") != prepare_key(graph, "natural")

    def test_depends_on_structure(self, graph):
        assert prepare_key(graph, "mmd") != prepare_key(grid9(7, 8), "mmd")

    def test_depends_on_version(self, graph, monkeypatch):
        before = prepare_key(graph, "mmd")
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", CACHE_VERSION + 1)
        assert prepare_key(graph, "mmd") != before


class TestRoundTrip:
    def test_store_then_load(self, tmp_path, graph, prepared):
        cache = PrepareCache(tmp_path)
        assert cache.load(graph) is None  # cold
        cache.store(graph, "mmd", prepared)
        hit = cache.load(graph, name="grid9(7,7)")
        assert hit is not None
        np.testing.assert_array_equal(hit.perm, prepared.perm)
        np.testing.assert_array_equal(hit.symbolic.parent, prepared.symbolic.parent)
        np.testing.assert_array_equal(hit.pattern.indptr, prepared.pattern.indptr)
        np.testing.assert_array_equal(hit.pattern.rowidx, prepared.pattern.rowidx)

    def test_cached_prepare_counters(self, tmp_path, graph):
        with obs.enabled(obs.Recorder()) as rec:
            cached_prepare(graph, "mmd", "g", tmp_path)
        assert rec.counters.get("perf.cache.miss") == 1
        assert rec.counters.get("perf.cache.store") == 1
        assert rec.counters.get("pipeline.stage.order") == 1  # recomputed
        with obs.enabled(obs.Recorder()) as rec:
            warm = cached_prepare(graph, "mmd", "g", tmp_path)
        assert rec.counters == {"perf.cache.hit": 1}  # no pipeline stages ran
        assert warm.pattern.nnz > 0

    def test_matches_direct_prepare(self, tmp_path, graph, prepared):
        cache = PrepareCache(tmp_path)
        cache.store(graph, "mmd", prepared)
        hit = cached_prepare(graph, "mmd", "g", tmp_path)
        np.testing.assert_array_equal(hit.perm, prepared.perm)
        np.testing.assert_array_equal(hit.pattern.rowidx, prepared.pattern.rowidx)


class TestBadEntriesAreMisses:
    def _entry_path(self, tmp_path, graph):
        return PrepareCache(tmp_path).path_for(prepare_key(graph, "mmd"))

    def test_corrupted_entry_ignored(self, tmp_path, graph, prepared):
        cache = PrepareCache(tmp_path)
        cache.store(graph, "mmd", prepared)
        self._entry_path(tmp_path, graph).write_bytes(b"not an npz file")
        with obs.enabled(obs.Recorder()) as rec:
            assert cache.load(graph) is None
        assert rec.counters.get("perf.cache.miss") == 1
        assert rec.counters.get("perf.cache.invalid") == 1

    def test_truncated_entry_ignored(self, tmp_path, graph, prepared):
        cache = PrepareCache(tmp_path)
        cache.store(graph, "mmd", prepared)
        path = self._entry_path(tmp_path, graph)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load(graph) is None

    def test_version_bumped_entry_ignored(self, tmp_path, graph, prepared):
        """An entry whose payload carries a newer version is recomputed."""
        cache = PrepareCache(tmp_path)
        cache.store(graph, "mmd", prepared)
        path = self._entry_path(tmp_path, graph)
        with np.load(path) as data:
            payload = dict(data)
        payload["version"] = np.int64(CACHE_VERSION + 1)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with obs.enabled(obs.Recorder()) as rec:
            assert cache.load(graph) is None
        assert rec.counters.get("perf.cache.invalid") == 1
        # cached_prepare recovers by recomputing and overwriting.
        fresh = cached_prepare(graph, "mmd", "g", tmp_path)
        np.testing.assert_array_equal(fresh.perm, prepared.perm)
        assert cache.load(graph) is not None

    def test_missing_field_ignored(self, tmp_path, graph, prepared):
        cache = PrepareCache(tmp_path)
        cache.store(graph, "mmd", prepared)
        path = self._entry_path(tmp_path, graph)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files if k != "parent"}
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        assert cache.load(graph) is None

    def test_mangled_pattern_ignored(self, tmp_path, graph, prepared):
        """A payload failing LowerPattern validation is a miss, not a crash."""
        cache = PrepareCache(tmp_path)
        cache.store(graph, "mmd", prepared)
        path = self._entry_path(tmp_path, graph)
        with np.load(path) as data:
            payload = dict(data)
        payload["rowidx"] = payload["rowidx"][::-1].copy()  # breaks diag-first
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        assert cache.load(graph) is None


class TestPartitionKey:
    def test_deterministic(self, graph):
        assert partition_key(graph, "mmd", 4, 4) == partition_key(graph, "mmd", 4, 4)

    def test_depends_on_parameters(self, graph):
        base = partition_key(graph, "mmd", 4, 4)
        assert partition_key(graph, "mmd", 25, 4) != base
        assert partition_key(graph, "mmd", 4, 2) != base
        assert partition_key(graph, "natural", 4, 4) != base

    def test_depends_on_impl_version(self, graph, monkeypatch):
        before = partition_key(graph, "mmd", 4, 4)
        monkeypatch.setattr(
            cache_mod, "PARTITION_IMPL_VERSION",
            cache_mod.PARTITION_IMPL_VERSION + 1,
        )
        assert partition_key(graph, "mmd", 4, 4) != before


def _set(name, index, value):
    def corrupt(payload):
        column = payload[name].copy()
        column[index] = value
        payload[name] = column
    return corrupt

# Well-formed .npz files whose columns lie: each must be refused at
# load, not returned as a hit that fails later inside the scheduler.
CORRUPTIONS = {
    "unit table one unit short": lambda p: p.update(units=p["units"][:, :-1]),
    "unit table one column short": lambda p: p.update(units=p["units"][:-1]),
    "unknown kind code": _set("units", (0, 0), 7),
    "cluster ids decrease": _set("units", (2, -1), 0),
    "cluster id skipped": lambda p: p.update(
        units=np.vstack([p["units"][:2], p["units"][2:3] * 2, p["units"][3:]])
    ),
    "units out of allocation order": lambda p: p.update(units=p["units"][:, ::-1]),
    "unit extent outside the pattern": _set("units", (4, -1), 10**6),
    "empty unit extent": _set("units", (6, 0), -1),
    "clusters do not tile the columns": _set("col_hi", 0, 10**6),
    "cluster columns differ in length": lambda p: p.update(
        triangle_padding=p["triangle_padding"][:-1]
    ),
    "rectangle index past its rows": _set("rect_indptr", -1, 10**6),
    "rectangle above its strip": lambda p: p.update(rect_rows=p["rect_rows"] * 0),
    "edge names a missing unit": _set("edges", (0, 1), 10**6),
    "negative edge endpoint": _set("edges", (0, 0), -1),
    "self edge": lambda p: p.update(edges=np.vstack([p["edges"], [[3, 3]]])),
    "unit_work one unit short": lambda p: p.update(unit_work=p["unit_work"][:-1]),
    "unit_of_element one element short": lambda p: p.update(
        unit_of_element=p["unit_of_element"][:-1]
    ),
}


class TestPartitionCache:
    def _fresh(self, prepared):
        from repro.core import partition_prepared

        return partition_prepared(prepared, grain=4, min_width=4)

    def test_round_trip_is_value_identical(self, tmp_path, prepared):
        cache = PartitionCache(tmp_path)
        assert cache.load(prepared, 4, 4) is None  # cold
        direct = self._fresh(prepared)
        cache.store(prepared, direct)
        hit = cache.load(prepared, 4, 4)
        assert hit is not None
        np.testing.assert_array_equal(
            hit.partition.unit_of_element, direct.partition.unit_of_element
        )
        np.testing.assert_array_equal(
            hit.dependencies.edges, direct.dependencies.edges
        )
        assert hit.dependencies.category_counts == direct.dependencies.category_counts
        np.testing.assert_array_equal(hit.unit_work, direct.unit_work)
        for mine, theirs in zip(hit.partition.units, direct.partition.units):
            assert mine.kind == theirs.kind
            assert mine.order_key == theirs.order_key
            np.testing.assert_array_equal(mine.elements, theirs.elements)
        assert [c.dense_blocks for c in hit.partition.clusters] == [
            c.dense_blocks for c in direct.partition.clusters
        ]

    def test_reloaded_partition_schedules_identically(self, tmp_path, prepared):
        direct = self._fresh(prepared)
        PartitionCache(tmp_path).store(prepared, direct)
        hit = PartitionCache(tmp_path).load(prepared, 4, 4)
        for nprocs in (4, 16):
            a = schedule_blocks(
                direct.partition, direct.dependencies, nprocs,
                unit_work=direct.unit_work,
            )
            b = schedule_blocks(
                hit.partition, hit.dependencies, nprocs, unit_work=hit.unit_work
            )
            np.testing.assert_array_equal(a.owner_of_element, b.owner_of_element)
            np.testing.assert_array_equal(a.proc_of_unit, b.proc_of_unit)

    def test_cached_partition_counters(self, tmp_path, graph, prepared):
        # A fresh prepared matrix: the shared fixture's partition stage
        # may already be memoised, and a memo hit builds nothing.
        fresh = prepare(graph, name="grid9(7,7)")
        with obs.enabled(obs.Recorder()) as rec:
            cached_partition(fresh, 4, 4, cache_dir=tmp_path)
        assert rec.counters.get("perf.cache.partition.miss") == 1
        assert rec.counters.get("perf.cache.partition.store") == 1
        assert rec.counters.get("pipeline.stage.partition") == 1  # recomputed
        with obs.enabled(obs.Recorder()) as rec:
            warm = cached_partition(prepared, 4, 4, cache_dir=tmp_path)
        assert rec.counters.get("perf.cache.partition.hit") == 1
        assert "pipeline.stage.partition" not in rec.counters
        assert "pipeline.stage.dependencies" not in rec.counters
        assert not rec.spans_named("pipeline.partition")
        assert not rec.spans_named("pipeline.dependencies")
        assert warm.partition.num_units > 0

    def test_corrupted_entry_ignored(self, tmp_path, graph, prepared):
        cache = PartitionCache(tmp_path)
        cache.store(prepared, self._fresh(prepared))
        path = cache.path_for(partition_key(graph, "mmd", 4, 4))
        path.write_bytes(b"not an npz file")
        with obs.enabled(obs.Recorder()) as rec:
            assert cache.load(prepared, 4, 4) is None
        assert rec.counters.get("perf.cache.partition.miss") == 1
        assert rec.counters.get("perf.cache.partition.invalid") == 1

    def test_impl_version_bumped_entry_ignored(self, tmp_path, graph, prepared):
        cache = PartitionCache(tmp_path)
        cache.store(prepared, self._fresh(prepared))
        path = cache.path_for(partition_key(graph, "mmd", 4, 4))
        with np.load(path) as data:
            columns = cache_mod._unpack_partition(data)
        columns["impl"] = cache_mod.PARTITION_IMPL_VERSION + 1
        with open(path, "wb") as fh:
            np.savez(fh, **cache_mod._pack_partition(columns))
        with obs.enabled(obs.Recorder()) as rec:
            assert cache.load(prepared, 4, 4) is None
        assert rec.counters.get("perf.cache.partition.invalid") == 1
        # cached_partition recovers by recomputing and overwriting.
        fresh = cached_partition(prepared, 4, 4, cache_dir=tmp_path)
        assert fresh.partition.num_units > 0
        assert cache.load(prepared, 4, 4) is not None

    def test_mangled_unit_ids_ignored(self, tmp_path, graph, prepared):
        cache = PartitionCache(tmp_path)
        cache.store(prepared, self._fresh(prepared))
        path = cache.path_for(partition_key(graph, "mmd", 4, 4))
        with np.load(path) as data:
            payload = dict(data)
        payload["unit_of_element"] = payload["unit_of_element"] + 10_000
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        assert cache.load(prepared, 4, 4) is None

    def _v3_entry(self, partitioned):
        """The members a version-3 writer stored: every column its own
        member, the category census as ``cat_keys`` / ``cat_vals``."""
        part, deps = partitioned.partition, partitioned.dependencies
        return {
            "version": np.int64(3), "impl": np.int64(cache_mod.PARTITION_IMPL_VERSION),
            "grain": np.int64(4), "min_width": np.int64(4),
            "grain_rectangle": np.int64(part.grain_rectangle),
            "unit_of_element": part.unit_of_element.astype(np.int32), "units": part.table,
            **{name: getattr(part.clusters, name) for name in cache_mod._CLUSTER_COLUMNS},
            "edges": deps.edges,
            "cat_keys": np.array(list(deps.category_counts), dtype=np.int64),
            "cat_vals": np.array(list(deps.category_counts.values()), dtype=np.int64),
            "dep_include_scale": np.bool_(True), "unit_work": partitioned.unit_work,
        }

    @pytest.mark.parametrize("skew", ["version 3 layout", "truncated"])
    def test_version_skewed_entry_is_a_clean_miss(self, tmp_path, graph, prepared, skew):
        """An entry of the previous layout under this version's path, or
        a five-member entry cut short, is refused and then overwritten."""
        cache = PartitionCache(tmp_path)
        direct = self._fresh(prepared)
        path = cache.store(prepared, direct)
        if skew == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size * 2 // 3])
        else:
            with open(path, "wb") as fh:
                np.savez(fh, **self._v3_entry(direct))
        with obs.enabled(obs.Recorder()) as rec:
            assert cache.load(prepared, 4, 4) is None
        assert rec.counters.get("perf.cache.partition.invalid") == 1
        assert rec.counters.get("perf.cache.partition.miss") == 1
        fresh = cached_partition(prepared, 4, 4, cache_dir=tmp_path)
        np.testing.assert_array_equal(fresh.partition.table, direct.partition.table)
        with np.load(path) as data:
            assert sorted(data.files) == [
                "clusters", "edges", "header", "unit_of_element", "units"
            ]
        hit = cache.load(prepared, 4, 4)
        assert hit.dependencies.category_counts == direct.dependencies.category_counts

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_column_is_a_miss(self, tmp_path, graph, prepared, case):
        cache = PartitionCache(tmp_path)
        cache.store(prepared, self._fresh(prepared))
        path = cache.path_for(partition_key(graph, "mmd", 4, 4))
        with np.load(path) as data:
            payload = cache_mod._unpack_partition(data)
        assert len(payload["rect_rows"]) and len(payload["edges"])
        CORRUPTIONS[case](payload)
        with open(path, "wb") as fh:
            np.savez(fh, **cache_mod._pack_partition(payload))
        with obs.enabled(obs.Recorder()) as rec:
            assert cache.load(prepared, 4, 4) is None
        assert rec.counters.get("perf.cache.partition.invalid") == 1
        assert rec.counters.get("perf.cache.partition.miss") == 1
        # The caller recovers by recomputing and overwriting.
        fresh = cached_partition(prepared, 4, 4, cache_dir=tmp_path)
        np.testing.assert_array_equal(fresh.partition.table, self._fresh(prepared).partition.table)
        assert cache.load(prepared, 4, 4) is not None


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert cache_mod.default_cache_dir() == tmp_path / "custom"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cache_mod.default_cache_dir().name == "repro-prepare"


class TestStatsAndPrune:
    def _warm(self, root, graph, prepared):
        cached_prepare(graph, "mmd", "g", root)   # store
        cached_prepare(graph, "mmd", "g", root)   # hit
        cached_partition(prepared, cache_dir=root)  # store
        cached_partition(prepared, cache_dir=root)  # hit
        cached_prepare(grid9(7, 8), "mmd", "g2", root)  # second prepare entry

    def test_stats_counts_entries_and_bytes_by_kind(self, tmp_path, graph, prepared):
        self._warm(tmp_path, graph, prepared)
        stats = cache_mod.cache_stats(tmp_path)
        assert stats["root"] == str(tmp_path)
        assert stats["prepare"]["entries"] == 2
        assert stats["partition"]["entries"] == 1
        assert stats["prepare"]["bytes"] > 0
        assert stats["total_bytes"] == (
            stats["prepare"]["bytes"] + stats["partition"]["bytes"]
        )

    def test_stats_lifetime_counters(self, tmp_path, graph, prepared):
        self._warm(tmp_path, graph, prepared)
        counters = cache_mod.cache_stats(tmp_path)["counters"]
        assert counters["prepare.hit"] == 1
        assert counters["prepare.miss"] == 2
        assert counters["prepare.store"] == 2
        assert counters["partition.hit"] == 1
        assert counters["partition.miss"] == 1
        assert counters["partition.store"] == 1

    def test_one_stats_write_per_call(self, tmp_path, graph, prepared, monkeypatch):
        """A miss and its store are one ``stats.json`` write, a hit one."""
        writes = []
        bump = cache_mod._bump_stats

        def counted(root, *fields):
            writes.append(fields)
            bump(root, *fields)

        monkeypatch.setattr(cache_mod, "_bump_stats", counted)
        self._warm(tmp_path, graph, prepared)
        assert writes == [
            ("prepare.miss", "prepare.store"), ("prepare.hit",),
            ("partition.miss", "partition.store"), ("partition.hit",),
            ("prepare.miss", "prepare.store"),
        ]

    def test_stats_on_empty_or_missing_root(self, tmp_path):
        stats = cache_mod.cache_stats(tmp_path / "never-created")
        assert stats["total_bytes"] == 0
        assert stats["counters"] == {}
        assert "(none recorded)" in cache_mod.render_cache_stats(stats)

    def test_corrupt_stats_file_is_ignored(self, tmp_path, graph, prepared):
        self._warm(tmp_path, graph, prepared)
        (tmp_path / "stats.json").write_text("{broken")
        assert cache_mod.cache_stats(tmp_path)["counters"] == {}
        # The next bump recovers rather than crashing.
        cached_prepare(graph, "mmd", "g", tmp_path)
        assert cache_mod.cache_stats(tmp_path)["counters"]["prepare.hit"] == 1

    def test_prune_evicts_lru_first(self, tmp_path, graph, prepared):
        import os
        import time

        self._warm(tmp_path, graph, prepared)
        entries = cache_mod._cache_entries(tmp_path)
        assert len(entries) == 3
        # Age every entry, then re-hit one: the hit's mtime-touch must
        # protect it from the prune while the untouched ones go.
        old = time.time() - 3600
        for path, _, _ in entries:
            os.utime(path, (old, old))
        kept_alive = cached_prepare(graph, "mmd", "g", tmp_path)
        assert kept_alive.pattern.nnz > 0
        keep_size = cache_mod.PrepareCache(tmp_path).path_for(
            prepare_key(graph, "mmd")).stat().st_size
        result = cache_mod.prune_cache(tmp_path, max_bytes=keep_size)
        assert result["kept"] == 1 and result["removed"] == 2
        assert result["freed_bytes"] > 0
        # The survivor is exactly the re-hit entry.
        (survivor,) = cache_mod._cache_entries(tmp_path)
        assert survivor[0] == cache_mod.PrepareCache(tmp_path).path_for(
            prepare_key(graph, "mmd"))

    def test_prune_to_zero_clears_everything(self, tmp_path, graph, prepared):
        self._warm(tmp_path, graph, prepared)
        result = cache_mod.prune_cache(tmp_path, max_bytes=0)
        assert result["kept"] == 0
        assert cache_mod.cache_stats(tmp_path)["total_bytes"] == 0
        # Pruned entries are plain misses afterwards, not errors.
        assert cached_prepare(graph, "mmd", "g", tmp_path).pattern.nnz > 0

    def test_prune_noop_within_budget(self, tmp_path, graph, prepared):
        self._warm(tmp_path, graph, prepared)
        result = cache_mod.prune_cache(tmp_path, max_bytes=1 << 30)
        assert result["removed"] == 0 and result["kept"] == 3

    def test_render_mentions_kinds_and_counters(self, tmp_path, graph, prepared):
        self._warm(tmp_path, graph, prepared)
        text = cache_mod.render_cache_stats(cache_mod.cache_stats(tmp_path))
        assert "prepare" in text and "partition" in text
        assert "prepare.hit" in text and str(tmp_path) in text


class TestCacheCli:
    def test_stats_and_prune_subcommands(self, tmp_path, graph, capsys):
        from repro.cli import main

        cached_prepare(graph, "mmd", "g", tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "prepare" in out and "1 entries" in out
        assert main(["cache", "prune", "--max-bytes", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out

    def test_max_bytes_accepts_suffixes(self, tmp_path, capsys):
        from repro.cli import _parse_bytes, main

        assert _parse_bytes("512") == 512
        assert _parse_bytes("64K") == 64 * 1024
        assert _parse_bytes("1.5M") == int(1.5 * 1024 * 1024)
        assert _parse_bytes("2G") == 2 * 1024**3
        assert main(["cache", "prune", "--max-bytes", "1G",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_bad_size_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["cache", "prune", "--max-bytes", "lots",
                  "--cache-dir", str(tmp_path)])
        assert "invalid size" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["inf", "1e400", "-0.5"])
    def test_non_finite_or_negative_size_is_refused(self, size, tmp_path, graph,
                                                    capsys):
        from repro.cli import main

        cached_prepare(graph, "mmd", "g", tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["cache", "prune", "--max-bytes", size,
                  "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid size" in err and "Traceback" not in err
        assert cache_mod.cache_stats(tmp_path)["prepare"]["entries"] == 1

    @pytest.mark.parametrize("budget", ["inf", "1e400", "-0.5"])
    def test_non_finite_or_negative_env_budget_is_ignored(self, budget,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", budget)
        assert cache_mod.cache_max_bytes() is None

    def test_sweep_runs_under_an_infinite_env_budget(self, tmp_path, monkeypatch,
                                                     capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "inf")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        cache = tmp_path / "cache"
        assert main(["sweep", "--matrix", "DWT512", "--procs", "4",
                     "--grains", "4", "-q", "--cache-dir", str(cache)]) == 0
        assert cache_mod.cache_stats(cache)["prepare"]["entries"] == 1

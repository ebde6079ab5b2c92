"""Names that left ``src/`` stay out of it.

Each row of :data:`TOMBSTONES` is a pattern that once matched code in
``src/``: a reference twin that now lives as an oracle under ``tests/``,
a harness a simpler path replaced, or a construct a rewrite retired.
A row gives the pattern (an extended regex, as ``grep -E`` reads it),
the files under ``src/`` it must not match, the commit that removed it
(by subject, for ``git log --grep``; the name itself for ``git log -S``)
and the test that now covers its behaviour.  The test fails when a
pattern matches again anywhere in its scope, the way
``tests/test_layers.py`` fails on an upward import.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent


class Tombstone(NamedTuple):
    pattern: str
    #: Globs relative to ``src/``; a file matches when any glob does.
    scope: tuple[str, ...]
    removed_by: str
    covered_by: str
    #: Whole words only (``grep -w``).
    word: bool = False


PY = ("**/*.py",)
EVERY_FILE = ("**/*",)

TOMBSTONES: tuple[Tombstone, ...] = (
    # Reference twins and oracles: one implementation per kernel in src/.
    Tombstone("symbolic_cholesky_reference", PY,
              "Symbolic factorization in one up-looking pass",
              "tests/symbolic/test_fill_fast.py"),
    Tombstone("column_counts_reference", PY,
              "Symbolic factorization in one up-looking pass",
              "tests/symbolic/test_colcount.py"),
    Tombstone("_permuted", PY,
              "Symbolic factorization in one up-looking pass",
              "tests/symbolic/test_fill_fast.py"),
    Tombstone("enumerate_updates_reference", PY,
              "Enumerate pair updates as runs over supernodes",
              "tests/symbolic/test_runs.py"),
    Tombstone("_make_eid_lookup", PY,
              "Enumerate pair updates as runs over supernodes",
              "tests/symbolic/test_runs.py"),
    Tombstone("simulate_units_oracle", PY,
              "The simulated machine in O((units + edges) log units)",
              "tests/machine/test_simulate_oracle.py"),
    Tombstone("read_list_oracle", PY,
              "One read structure",
              "tests/symbolic/test_runs.py"),
    Tombstone("stamp_fetches_oracle", PY,
              "Traffic per line, not per read",
              "tests/machine/test_traffic_properties.py"),
    Tombstone("multiple_minimum_degree_reference", PY,
              "Delete what no user path reaches",
              "tests/ordering/test_mmd.py"),
    Tombstone("render_gantt_reference", PY,
              "Delete what no user path reaches",
              "tests/analysis/test_gantt.py"),
    Tombstone("gnp_column_counts", PY,
              "Delete what no user path reaches",
              "tests/symbolic/test_fill_fast.py"),
    Tombstone("supernodal_cholesky", PY,
              "Delete what no user path reaches",
              "tests/numeric/test_cholesky.py"),
    Tombstone("COOBuilder", PY,
              "Delete what no user path reaches",
              "tests/sparse/test_coo_csc.py"),
    Tombstone("execution_order", PY,
              "Delete what no user path reaches",
              "tests/machine/test_simulate_oracle.py"),
    Tombstone("validate_partition", PY,
              "Delete what no user path reaches",
              "tests/core/test_validation.py"),
    Tombstone("_UpdateIndex", PY,
              "block-adaptive is the static pipeline run to a fixed point",
              "tests/core/test_adaptive.py"),
    Tombstone("interleaved_adaptive_oracle", PY,
              "block-adaptive is the static pipeline run to a fixed point",
              "tests/core/test_adaptive.py"),
    # The pipeline bench harness a one-cell sweep replaced.
    Tombstone("bench_pipeline", PY, "One benchmark system",
              "tests/obs/test_runs.py"),
    Tombstone("render_bench", PY, "One benchmark system",
              "tests/obs/test_runs.py"),
    Tombstone("BENCH_SCHEMA_VERSION", PY, "One benchmark system",
              "tests/obs/test_runs.py"),
    Tombstone("stage_mem_peak_mb", PY, "One benchmark system",
              "tests/obs/test_report.py"),
    # The recorder-shard transport `Recorder.merge` replaced.
    Tombstone("RecorderShard", PY, "A sweep worker ships its `Recorder` home",
              "tests/obs/test_merge.py"),
    Tombstone("SPILL_THRESHOLD_BYTES", PY, "A sweep worker ships its `Recorder` home",
              "tests/obs/test_merge.py"),
    Tombstone("SHARD_FORMAT_VERSION", PY, "A sweep worker ships its `Recorder` home",
              "tests/obs/test_merge.py"),
    Tombstone("drain_open_spans", PY, "A sweep worker ships its `Recorder` home",
              "tests/obs/test_merge.py"),
    Tombstone("SweepWorkerError", PY, "A sweep worker ships its `Recorder` home",
              "tests/perf/test_sweep.py"),
    Tombstone("_worker_stats", PY, "A sweep worker ships its `Recorder` home",
              "tests/perf/test_sweep.py"),
    # The per-cell table memos: the tables read perf.sweep records.
    Tombstone("_block_result", PY, "One experiment engine",
              "tests/perf/test_sweep.py"),
    Tombstone("_wrap_result", PY, "One experiment engine",
              "tests/perf/test_sweep.py"),
    # mpsim, every file of it, and the Lamport ledger run on the
    # single-threaded stepper: no rank threads, no threaded runtime.
    Tombstone("threading|run_parallel|CommWorld",
              ("repro/mpsim/**/*", "repro/obs/simtime.py"),
              "Retire the threaded mpsim runtime",
              "tests/mpsim/test_stepper.py"),
    # The executors read the supernode runs, and the adaptive mode the
    # static stages: no per-pair expansion.
    Tombstone("source_i|source_j|source_col|updates_by_source_column",
              ("repro/mpsim/*.py", "repro/core/adaptive.py"),
              "Numeric executors over runs",
              "tests/mpsim/test_executor_properties.py", word=True),
    # The partition stage's one memo is on the PreparedMatrix.
    Tombstone("_WORKER_PARTITIONED|part_memo", EVERY_FILE,
              "Partition once per prepared matrix",
              "tests/core/test_pipeline.py"),
    # One target table behind `python -m repro`, no dispatch on a name.
    Tombstone(r'_TARGET_HELP|_EXTRA_TARGETS|def _emit|(target|args\.target|argv\[0\]) == "',
              ("repro/cli.py",),
              "One target table behind `python -m repro`",
              "tests/analysis/test_cli.py"),
    # The MMD arena merges by the closure-class rule, no merge replay.
    Tombstone("replay_merges|death_rank", EVERY_FILE,
              "One gather per MMD pass",
              "tests/ordering/test_mmd.py"),
    # The partitioner claims every unit's elements with two searches: the
    # per-unit region scan is the oracle, and the cache stores no census.
    Tombstone("_elements_in_region|_row_elements", PY,
              "A cold sweep group costs what it builds",
              "tests/core/test_unit_claim.py"),
    Tombstone("cat_keys|cat_vals", PY,
              "A cold sweep group costs what it builds",
              "tests/perf/test_cache.py"),
    # A traced simulation lives only in its SimRun, the Chrome trace is
    # the one file export, and a message table is columns only.
    Tombstone("TimelineEvent|timeline_event|add_timeline_event", PY,
              "One record per clock", "tests/obs/test_instrumentation.py"),
    Tombstone("to_jsonl|write_jsonl", PY,
              "One record per clock", "tests/obs/test_export.py"),
    Tombstone("trace_jsonl|--trace-jsonl", EVERY_FILE,
              "One record per clock", "tests/analysis/test_cli.py"),
    Tombstone("SimMessage|from_rows", PY,
              "One record per clock", "tests/machine/test_simulate_properties.py"),
    # One regression gate, obs.runs' (baseline first).
    Tombstone(r"def (find_regressions|compare_reports|render_delta)\b", EVERY_FILE,
              "One layer order, checked in CI",
              "tests/obs/test_runs.py"),
)


def _files(scope: tuple[str, ...], root: Path):
    seen = set()
    for glob in scope:
        for path in sorted(root.glob(glob)):
            if path.is_file() and "__pycache__" not in path.parts and path not in seen:
                seen.add(path)
                yield path


def matches(stone: Tombstone, root: Path = SRC) -> list[str]:
    """``path:line: text`` for every line in ``stone``'s scope that its
    pattern matches."""
    pattern = rf"(?<!\w)(?:{stone.pattern})(?!\w)" if stone.word else stone.pattern
    regex = re.compile(pattern)
    hits = []
    for path in _files(stone.scope, root):
        for lineno, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
            if regex.search(line):
                hits.append(f"{path.relative_to(root)}:{lineno}: {line.strip()}")
    return hits


@pytest.mark.parametrize("stone", TOMBSTONES, ids=[s.pattern for s in TOMBSTONES])
def test_stays_out_of_src(stone):
    hits = matches(stone)
    assert not hits, (
        f"{stone.pattern!r} left src/ ({stone.removed_by}); its behaviour "
        f"is covered by {stone.covered_by}:\n" + "\n".join(hits)
    )


def test_every_covering_test_exists():
    for stone in TOMBSTONES:
        assert (TESTS.parent / stone.covered_by).is_file(), stone


def test_finds_a_name_that_comes_back(tmp_path):
    (tmp_path / "repro" / "mpsim").mkdir(parents=True)
    (tmp_path / "repro" / "mpsim" / "engine.py").write_text(
        "import os\nimport threading\n")
    (tmp_path / "repro" / "cli.py").write_text('if args.target == "all":\n')
    hits = [hit for stone in TOMBSTONES for hit in matches(stone, tmp_path)]
    assert hits == ["repro/mpsim/engine.py:2: import threading",
                    'repro/cli.py:1: if args.target == "all":']


def test_word_rows_match_whole_words_only(tmp_path):
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "core" / "adaptive.py").write_text(
        "x = updates.source_indptr\ny = updates.source_i\n")
    (stone,) = [s for s in TOMBSTONES if s.word]
    assert matches(stone, tmp_path) == ["repro/core/adaptive.py:2: y = updates.source_i"]

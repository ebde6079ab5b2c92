"""Command-line entry point: regenerate any table or figure of the paper.

Examples
--------
::

    python -m repro table2          # block-mapping communication
    python -m repro figure2 --nx 6 --ny 6
    python -m repro all             # every table and figure
    python -m repro trace table2 --trace-out run.json   # traced run
    python -m repro -v table3       # any target with stage timings
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .analysis import (
    figure1_ascii,
    figure2_ascii,
    figure3_ascii,
    figure4_report,
    generate_report,
    render_claims,
    render_comparison,
    render_partition_stats,
    render_table,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)

#: Handler kinds.  A plain handler takes the parsed options and returns
#: the text to print; a wrapper does the same but runs the plain target
#: named by the second positional under a recorder; an own-grammar
#: handler takes the raw argv after its name and returns the exit code.
PLAIN, WRAPPER, OWN_GRAMMAR = "plain", "wrapper", "own-grammar"


@dataclass(frozen=True)
class Target:
    """One ``python -m repro`` target."""

    name: str
    help: str
    run: Callable
    kind: str = PLAIN
    #: One of the paper's tables and figures: ``all`` runs these, in order.
    paper: bool = False
    #: Option a second positional argument sets (``explain LAP30``).
    positional: str | None = None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one int, got {text!r}")
    return values


def _stats(args: argparse.Namespace) -> str:
    from .analysis.experiments import prepared_matrix
    from .core import partition_factor

    prep = prepared_matrix(args.matrix)
    partition = partition_factor(prep.pattern, grain=args.grain)
    return render_partition_stats(
        partition, f"Partition statistics: {args.matrix}, g={args.grain}"
    )


def _report(args: argparse.Namespace) -> str:
    if args.latest or args.run_ref:
        from .obs.report import render_report

        out = render_report(args.run_ref, out=args.output or "REPORT.html")
        return f"HTML run report written to {out}"
    report = generate_report()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        return f"report written to {args.output}"
    return report


def _scorecard(args: argparse.Namespace) -> str:
    from .analysis.experiments import prepared_matrix
    from .core import block_mapping, wrap_mapping
    from .machine import scorecard

    prep = prepared_matrix(args.matrix)
    cards = [
        scorecard(r.assignment, prep.updates)
        for r in (
            block_mapping(prep, 16, grain=args.grain),
            wrap_mapping(prep, 16),
        )
    ]
    headers = ["metric"] + [c["scheme"] for c in cards]
    rows = [
        [key] + [c[key] for c in cards]
        for key in cards[0]
        if key != "scheme"
    ]
    return render_table(
        headers, rows,
        f"Scorecard: {args.matrix} at P=16 (block g={args.grain} vs wrap)",
    )


def _explain(args: argparse.Namespace) -> str:
    from .analysis.explain import (
        explain_manifest,
        explain_run,
        render_explain,
    )
    from .obs import runs as obs_runs
    from .obs.report import build_report

    t0 = time.perf_counter()
    result = explain_run(args.matrix, scheme=args.scheme,
                         nprocs=args.nprocs, grain=args.grain)
    wall = time.perf_counter() - t0
    doc = explain_manifest(result)
    manifest = obs_runs.record_run(
        "explain",
        config={"matrix": args.matrix, "scheme": args.scheme,
                "nprocs": args.nprocs, "grain": args.grain},
        counters={"explain.messages": doc["n_messages"],
                  "explain.message_bytes": doc["message_bytes"]},
        wall_s=wall,
        extra={"explain": doc},
    )
    if manifest is None:  # read-only registry: still render the page
        manifest = {"run_id": "(unrecorded)", "kind": "explain",
                    "explain": doc}
    out = (args.output
           or f"EXPLAIN_{args.matrix}_{args.scheme}_p{args.nprocs}.html")
    with open(out, "w") as fh:
        fh.write(build_report(manifest))
    return (render_explain(result)
            + f"\n\nregistry run {manifest.get('run_id', '?')} "
              "(kind explain)"
            + f"\nHTML report written to {out}")


def _recorded(args: argparse.Namespace, kind: str, body: Callable,
              manifest: Callable):
    """Run ``body()`` under a recorder (an enabled one, from ``-v`` or
    ``trace sweep``, is reused), write --trace-out / --trace-jsonl and
    record a ``kind`` run with ``manifest(result, recorder, wall_s)`` as
    its fields.  Returns (result, recorder, the "written to" notes)."""
    from . import obs

    rec = obs.get_recorder() if obs.is_enabled() else obs.Recorder()
    t0 = time.perf_counter()
    with obs.enabled(rec):
        result = body()
    wall = time.perf_counter() - t0
    notes = []
    if args.trace_out:
        obs.write_chrome_trace(rec, args.trace_out)
        notes.append(f"Chrome trace written to {args.trace_out} "
                     "(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.trace_jsonl:
        obs.write_jsonl(rec, args.trace_jsonl)
        notes.append(f"JSONL event stream written to {args.trace_jsonl}")
    obs.runs.record_run(kind, **manifest(result, rec, wall))
    return result, rec, notes


def _sweep(args: argparse.Namespace) -> str:
    import dataclasses
    import json

    from .obs.memory import monitored
    from .obs.report import downsample
    from .perf import records_to_csv, sweep as perf_sweep
    from .perf.bench import STAGES

    matrices = [m.strip() for m in args.matrix.split(",") if m.strip()]
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())

    def manifest(records, rec, wall):
        return dict(
            config={
                "matrices": matrices,
                "schemes": list(schemes),
                "procs": list(args.procs),
                "grains": list(args.grains),
                "min_widths": list(args.min_widths),
                "jobs": args.jobs,
            },
            matrices={
                ",".join(matrices): {
                    "stages": {
                        short: sum(s.duration for s in rec.spans_named(long))
                        for short, long in STAGES.items()
                    },
                    "wall_total": wall,
                    "mem_peak_mb": rec.gauges.get("mem.rss_peak_mb"),
                }
            },
            counters={
                k: v for k, v in rec.counters.items()
                if k.startswith(("perf.cache.", "perf.sweep."))
            },
            wall_s=wall,
            extra={
                "cells": len(records),
                # What the HTML report renders: the sweep curves, the
                # distribution percentiles, and the RSS timeline in MB.
                "records": [dataclasses.asdict(r) for r in records],
                "histograms": {
                    k: h.to_dict() for k, h in sorted(rec.histograms.items())
                },
                "memory": [
                    [round(t, 4), round(rss / (1024.0 * 1024.0), 2)]
                    for t, rss in downsample(rec.memory_samples, limit=300)
                ],
            },
        )

    def run():
        with monitored():
            return perf_sweep(
                matrices,
                schemes=schemes,
                procs=args.procs,
                grains=args.grains,
                min_widths=args.min_widths,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
            )

    # The sweep always runs under a recorder: workers then ship their
    # trace shards home, --trace-out has something to export, and the
    # run manifest carries stage timings and cache traffic.
    records, _, notes = _recorded(args, "sweep", run, manifest)
    for note in notes:
        print(note, file=sys.stderr)
    if args.json:
        text = json.dumps([dataclasses.asdict(r) for r in records], indent=2)
    else:
        text = records_to_csv(records)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        return f"{len(records)} records written to {args.output}"
    return text.rstrip("\n")


def _bench(args: argparse.Namespace) -> str:
    import json

    from .perf import bench_pipeline, find_regressions, render_bench, render_delta

    out = args.bench_out or (
        "BENCH_pipeline_big.json" if args.tier == "big"
        else "BENCH_pipeline.json"
    )
    baseline = None
    baseline_path = args.bench_baseline or out
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError):
        baseline = None
    report = bench_pipeline(
        matrices=args.bench_matrices,
        nprocs=args.nprocs,
        grain=args.grain,
        smoke=args.smoke,
        out=out,
        repeats=args.bench_repeats,
        tier=args.tier,
        stretch=args.stretch,
    )
    from .obs import runs as obs_runs

    obs_runs.record_run(
        "bench",
        config={k: report[k]
                for k in ("smoke", "tier", "nprocs", "grain", "repeats")
                if k in report},
        matrices=report.get("matrices", {}),
        wall_s=sum(m.get("wall_total", 0.0)
                   for m in report.get("matrices", {}).values()),
        extra={"report": out},
    )
    text = render_bench(report) + f"\nreport written to {out}"
    if baseline is not None:
        text += "\n\ndelta vs baseline " + str(baseline_path) + ":\n"
        text += render_delta(report, baseline)
        if not args.smoke:
            regressions = find_regressions(report, baseline)
            if regressions:
                raise SystemExit(
                    "bench regression vs "
                    + str(baseline_path)
                    + " (stage >25% slower than baseline):\n  "
                    + "\n  ".join(regressions)
                )
    return text


def _wrapped(args: argparse.Namespace, example: str) -> Target:
    """The plain target a wrapper runs: ``args.subtarget``, checked."""
    if args.subtarget is None:
        raise ValueError(f"'{args.target}' needs a target to {args.target}, "
                         f"e.g. `python -m repro {args.target} {example}`")
    target = _BY_NAME.get(args.subtarget)
    if target is None or target.kind != PLAIN:
        raise ValueError(
            f"unknown target {args.subtarget!r}; expected one of: "
            + ", ".join(t.name for t in TARGETS if t.kind == PLAIN)
        )
    return target


def _trace(args: argparse.Namespace) -> str:
    """Run a target under a fresh recorder, then simulate one block
    mapping so the trace carries a per-unit Gantt timeline (one Perfetto
    lane per processor)."""
    from . import obs
    from .analysis.experiments import prepared_matrix
    from .core import block_mapping
    from .machine.simulate import simulate_schedule

    target = _wrapped(args, "table2")

    def body():
        with obs.span("cli.target", target=target.name):
            text = target.run(args)
        with obs.span("cli.simulate", matrix=args.matrix, nprocs=args.nprocs,
                      grain=args.grain):
            result = block_mapping(prepared_matrix(args.matrix), args.nprocs,
                                   grain=args.grain)
            simulate_schedule(result.assignment, result.dependencies,
                              result.prepared.updates)
        return text

    text, rec, notes = _recorded(args, "trace", body, lambda _, rec, wall: dict(
        config={"target": target.name, "matrix": args.matrix,
                "grain": args.grain, "nprocs": args.nprocs},
        counters=dict(rec.counters),
        wall_s=wall,
        extra={"gauges": {k: v for k, v in rec.gauges.items()
                          if isinstance(v, (int, float, str))}},
    ))
    return "\n\n".join([text, obs.summary_table(rec)]
                       + (["\n".join(notes)] if notes else []))


def _profile(args: argparse.Namespace) -> str:
    """Run a target under a fresh recorder, the sampling profiler and
    memory watermarks."""
    from . import obs

    target = _wrapped(args, "table2 --hz 200")
    prof = obs.SamplingProfiler(hz=args.hz)

    def body():
        with obs.monitored(), prof, obs.span("cli.target", target=target.name):
            return target.run(args)

    text, rec, notes = _recorded(args, "profile", body, lambda _, rec, wall: dict(
        config={"target": target.name, "hz": args.hz, "matrix": args.matrix,
                "grain": args.grain},
        counters=dict(rec.counters),
        wall_s=prof.duration,
        extra={"profile": prof.to_dict(top=args.profile_top),
               "gauges": {k: v for k, v in rec.gauges.items()
                          if isinstance(v, (int, float, str))}},
    ))
    if args.profile_out:
        with open(args.profile_out, "w") as fh:
            fh.write(prof.collapsed())
        notes.append(f"collapsed stacks written to {args.profile_out} "
                     "(feed to flamegraph.pl or drop on "
                     "https://www.speedscope.app)")
    summary = prof.table(args.profile_top) + "\n\n" + obs.summary_table(rec)
    return "\n\n".join([text, summary] + (["\n".join(notes)] if notes else []))


def _runs_main(argv: list[str]) -> int:
    """``python -m repro runs list|show|compare`` — the run registry."""
    from .obs import runs as obs_runs

    parser = argparse.ArgumentParser(
        prog="repro runs",
        description="Inspect and compare the persistent run registry "
                    "(.repro/runs, relocatable via $REPRO_RUNS_DIR).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    p_list = sub.add_parser("list", help="list recorded runs, oldest first")
    p_list.add_argument("--kind", default=None,
                        help="only runs of this kind (trace, profile, bench, "
                             "sweep, explain)")
    p_show = sub.add_parser("show", help="print one run manifest as JSON")
    p_show.add_argument("ref", help="run id (or unique prefix), 'latest', "
                                    "'<kind>:latest', or a JSON report file")
    p_cmp = sub.add_parser(
        "compare", help="per-stage delta between two runs or report files"
    )
    p_cmp.add_argument("old", help="baseline: run ref or BENCH_*.json file")
    p_cmp.add_argument("new", help="current: run ref or BENCH_*.json file")
    p_cmp.add_argument("--fail-on-regression", action="store_true",
                       help="exit nonzero when any stage regressed beyond "
                            "the threshold (the CI gate)")
    p_cmp.add_argument("--threshold", type=float, default=None, metavar="FRAC",
                       help="regression threshold as a fraction "
                            "(default 0.25 = 25%% slower)")
    for p in (p_list, p_show, p_cmp):
        p.add_argument("--runs-dir", default=None, metavar="DIR",
                       help="registry directory (default .repro/runs, or "
                            "$REPRO_RUNS_DIR)")
    args = parser.parse_args(argv)
    try:
        if args.cmd == "list":
            print(obs_runs.render_runs_table(
                obs_runs.list_runs(args.runs_dir, args.kind)))
            return 0
        if args.cmd == "show":
            print(obs_runs.render_run(obs_runs.load_run(args.ref, args.runs_dir)))
            return 0
        old = obs_runs.load_run(args.old, args.runs_dir)
        new = obs_runs.load_run(args.new, args.runs_dir)
        print(f"baseline: {old.get('run_id', args.old)}"
              + (f" ({old.get('created')})" if old.get("created") else ""))
        print(f"current:  {new.get('run_id', args.new)}"
              + (f" ({new.get('created')})" if new.get("created") else ""))
        print()
        print(obs_runs.render_run_delta(old, new))
        regressions = obs_runs.find_run_regressions(old, new, args.threshold)
        if regressions:
            from .perf.bench import REGRESSION_THRESHOLD

            threshold = (REGRESSION_THRESHOLD if args.threshold is None
                         else args.threshold)
            print(f"\nregressions (stage >{100 * threshold:.0f}% slower "
                  "than baseline):")
            for line in regressions:
                print(f"  {line}")
            if args.fail_on_regression:
                return 1
        elif args.fail_on_regression:
            print("\nno stage regressions beyond threshold")
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_bytes(text: str) -> int:
    """``512``, ``64K``, ``100M``, ``2G`` -> bytes (suffixes are 1024-based)."""
    from .perf.cache import parse_bytes

    try:
        return parse_bytes(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected e.g. 512, 64K, 100M, 2G)"
        ) from None


def _cache_main(argv: list[str]) -> int:
    """``python -m repro cache stats|prune`` — the prepared-matrix cache."""
    from .perf.cache import (
        cache_max_bytes,
        cache_stats,
        prune_cache,
        render_cache_stats,
    )

    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and prune the prepared-matrix disk cache "
                    "(~/.cache/repro-prepare, relocatable via "
                    "$REPRO_CACHE_DIR).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    p_stats = sub.add_parser(
        "stats", help="entry counts, bytes, and lifetime hit/miss counters"
    )
    p_prune = sub.add_parser(
        "prune", help="evict least-recently-used entries down to a byte budget"
    )
    p_prune.add_argument(
        "--max-bytes", type=_parse_bytes, default=None, metavar="N",
        help="target cache size in bytes (K/M/G suffixes accepted; "
             "defaults to $REPRO_CACHE_MAX_BYTES when set)",
    )
    for p in (p_stats, p_prune):
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default ~/.cache/repro-prepare, "
                            "or $REPRO_CACHE_DIR)")
    args = parser.parse_args(argv)
    if args.cmd == "stats":
        print(render_cache_stats(cache_stats(args.cache_dir)))
        return 0
    if args.max_bytes is None:
        args.max_bytes = cache_max_bytes()
        if args.max_bytes is None:
            print("error: --max-bytes is required "
                  "(or set $REPRO_CACHE_MAX_BYTES)", file=sys.stderr)
            return 2
    result = prune_cache(args.cache_dir, max_bytes=args.max_bytes)
    print(f"pruned {result['removed']} entries "
          f"({result['freed_bytes']} bytes freed); "
          f"kept {result['kept']} entries ({result['kept_bytes']} bytes)")
    return 0


#: Every target, in the order ``--help`` lists them; the parser's choices,
#: ``all`` and the error messages are read off this table.
TARGETS: tuple[Target, ...] = (
    Target("table1", "the Harwell-Boeing test matrices (n, nnz, fill)",
           lambda args: render_table1(), paper=True),
    Target("table2", "block-mapping communication volume",
           lambda args: render_table2(), paper=True),
    Target("table3", "block-mapping work distribution (lambda)",
           lambda args: render_table3(), paper=True),
    Target("table4", "cluster-width sensitivity for LAP30",
           lambda args: render_table4(), paper=True),
    Target("table5", "wrap-mapping traffic and imbalance",
           lambda args: render_table5(), paper=True),
    Target("figure1", "element-level dependencies of one update",
           lambda args: figure1_ascii(), paper=True),
    Target("figure2", "filled matrix of an MMD-ordered grid",
           lambda args: figure2_ascii(args.nx, args.ny), paper=True),
    Target("figure3", "partitioned-cluster diagram",
           lambda args: figure3_ascii(), paper=True),
    Target("figure4", "dependency-category breakdown",
           lambda args: figure4_report(args.matrix, args.grain), paper=True),
    Target("all", "every table and figure above, in order",
           lambda args: "\n\n".join(t.run(args) for t in TARGETS if t.paper)),
    Target("stats", "partition statistics for one matrix", _stats),
    Target("report", "paper-vs-measured report; --latest/--run: HTML run report",
           _report),
    Target("claims", "per-claim verification verdicts",
           lambda args: render_claims(args.matrix)),
    Target("compare", "side-by-side paper/measured tables",
           lambda args: render_comparison()),
    Target("scorecard", "block-vs-wrap metric scorecard", _scorecard),
    Target("explain", "simulate one (matrix, scheme, P) cell and attribute "
                      "its communication and imbalance (HTML + registry run)",
           _explain, positional="matrix"),
    Target("trace", "run any target under tracing (see --trace-out)",
           _trace, kind=WRAPPER),
    Target("profile", "run any target under the sampling profiler (--hz)",
           _profile, kind=WRAPPER),
    Target("sweep", "parallel (matrix, scheme, P, g) grid sweep", _sweep),
    Target("bench", "per-stage pipeline benchmark -> BENCH_pipeline.json",
           _bench),
    Target("runs", "run registry: runs list | show REF | compare OLD NEW",
           _runs_main, kind=OWN_GRAMMAR),
    Target("cache", "disk-cache tools: cache stats | prune --max-bytes N",
           _cache_main, kind=OWN_GRAMMAR),
)
_BY_NAME = {t.name: t for t in TARGETS}


def _targets_epilog() -> str:
    lines = ["targets:"]
    lines += [f"  {t.name:<12} {t.help}" for t in TARGETS]
    lines.append("")
    lines.append("environment: REPRO_TRACE_OUT sets the default --trace-out; "
                 "REPRO_RUNS_DIR relocates the run registry (.repro/runs); "
                 "REPRO_CACHE_DIR relocates the prepared-matrix cache.")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # 'runs' and 'cache' have their own grammars (subcommand + refs and
    # flags), so they take the raw argv before the parser below sees it.
    own = _BY_NAME.get(argv[0]) if argv else None
    if own is not None and own.kind == OWN_GRAMMAR:
        return own.run(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables/figures of Venugopal & Naik (SC 1991).",
        epilog=_targets_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target",
        metavar="target",
        choices=[t.name for t in TARGETS if t.kind != OWN_GRAMMAR],
        help="which table/figure to regenerate (or 'trace'/'profile'/'all')",
    )
    parser.add_argument(
        "subtarget",
        nargs="?",
        default=None,
        metavar="traced-target",
        help="with 'trace'/'profile': the target to run under it; "
             "with 'explain': the matrix name",
    )
    parser.add_argument("--nx", type=int, default=5, help="figure2 grid width")
    parser.add_argument("--ny", type=int, default=5, help="figure2 grid height")
    parser.add_argument("--matrix", default=None,
                        help="matrix for figure4/stats/sweep and traced "
                             "simulation; comma-separated list for "
                             "sweep/bench (default LAP30; bench defaults "
                             "to every paper matrix)")
    parser.add_argument("--grain", type=int, default=25,
                        help="grain size for figure4/stats/trace/bench")
    parser.add_argument("-p", "--nprocs", type=int, default=16,
                        help="processor count for explain, the traced "
                             "simulation and bench")
    parser.add_argument("--scheme", default="block",
                        choices=("block", "block-adaptive", "wrap"),
                        help="with 'explain': the mapping scheme to simulate "
                             "and attribute (default block)")
    parser.add_argument("--output", default=None,
                        help="write the report target to a file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="with 'sweep': worker processes for the grid "
                             "(1 = serial in-process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="with 'sweep': prepared-matrix disk cache "
                             "directory (persists ordering/symbolic stages "
                             "across runs; parallel runs without it use an "
                             "ephemeral cache)")
    parser.add_argument("--schemes", default="block,wrap",
                        help="with 'sweep': comma-separated mapping schemes "
                             "(block, block-adaptive, wrap)")
    parser.add_argument("--procs", type=_int_list, default=(4, 16, 32),
                        metavar="P1,P2,...",
                        help="with 'sweep': processor counts of the grid "
                             "(the paper sweeps 16-1024, e.g. "
                             "--procs 16,64,256,1024; all of them are "
                             "measured from one partition)")
    parser.add_argument("--grains", type=_int_list, default=(4, 25),
                        metavar="G1,G2,...",
                        help="with 'sweep': grain sizes of the grid")
    parser.add_argument("--min-widths", type=_int_list, default=(4,),
                        metavar="W1,W2,...",
                        help="with 'sweep': minimum cluster widths of the grid")
    parser.add_argument("--json", action="store_true",
                        help="with 'sweep': emit JSON records instead of CSV")
    parser.add_argument("--smoke", action="store_true",
                        help="with 'bench': tiny problems (CI mode)")
    parser.add_argument("--tier", choices=("paper", "big"), default="paper",
                        help="with 'bench': 'big' benches the "
                             "10^5-unknown generated instances and writes "
                             "BENCH_pipeline_big.json by default (--smoke then "
                             "runs the single smallest big instance)")
    parser.add_argument("--stretch", action="store_true",
                        help="with 'bench --tier big': also bench the "
                             "10^6-unknown stretch instances (GRIDA1M, "
                             "SOC1M); off by default — expect minutes per "
                             "matrix and multi-GB RSS")
    parser.add_argument("--bench-out", default=None, metavar="FILE",
                        help="with 'bench': where to write the "
                             "JSON report (default BENCH_pipeline.json)")
    parser.add_argument("--bench-baseline", default=None, metavar="FILE",
                        help="with 'bench': baseline report for the delta "
                             "table (default: the pre-existing --bench-out "
                             "file); a full-mode stage regression >25%% "
                             "exits nonzero")
    parser.add_argument("--bench-repeats", type=int, default=None, metavar="N",
                        help="with 'bench': best-of-N stage timings "
                             "(default: 3 in full mode, 1 in smoke mode)")
    parser.add_argument("--latest", action="store_true",
                        help="with 'report': render the most recent "
                             "registry run as a self-contained HTML page "
                             "(--output, default REPORT.html)")
    parser.add_argument("--run", dest="run_ref", default=None, metavar="REF",
                        help="with 'report': render this run (id, prefix, "
                             "'<kind>:latest', or a BENCH_*.json file) as "
                             "HTML instead of the paper report")
    parser.add_argument("--hz", type=float, default=200.0,
                        help="with 'profile': stack sampling rate "
                             "(default 200 Hz; overhead stays <5%%)")
    parser.add_argument("--profile-out", default=None, metavar="FILE",
                        help="with 'profile': write collapsed stacks here "
                             "(flamegraph.pl / speedscope format)")
    parser.add_argument("--profile-top", type=int, default=15, metavar="N",
                        help="with 'profile': rows in the self-time table "
                             "(default 15)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="with 'trace'/'sweep': write Chrome-trace JSON "
                             "here (load in chrome://tracing or Perfetto; "
                             "defaults to $REPRO_TRACE_OUT when set)")
    parser.add_argument("--trace-jsonl", default=None, metavar="FILE",
                        help="with 'trace'/'sweep': write the raw event "
                             "stream as JSONL")
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", action="store_true",
                           help="trace the run and print stage timings to stderr")
    verbosity.add_argument("-q", "--quiet", action="store_true",
                           help="suppress normal output (errors still print)")
    args = parser.parse_args(argv)
    if args.trace_out is None:
        args.trace_out = os.environ.get("REPRO_TRACE_OUT") or None
    # 'bench' defaults to every paper matrix; everything else to LAP30.
    args.bench_matrices = (
        None if args.matrix is None
        else [m.strip() for m in args.matrix.split(",") if m.strip()]
    )
    if args.matrix is None:
        args.matrix = "LAP30"

    target = _BY_NAME[args.target]
    if args.subtarget is not None and target.kind != WRAPPER:
        if target.positional is None:
            takers = ([t.name for t in TARGETS if t.kind == WRAPPER]
                      + [t.name for t in TARGETS if t.positional])
            print(f"error: unexpected argument {args.subtarget!r} "
                  f"(only {', '.join(map(repr, takers[:-1]))} and "
                  f"{takers[-1]!r} take a second argument)",
                  file=sys.stderr)
            return 2
        # `explain CANN1072` reads more naturally than --matrix.
        setattr(args, target.positional, args.subtarget)

    try:
        # A wrapper prints its own summary; -v adds one to a plain target.
        if args.verbose and target.kind == PLAIN:
            from . import obs

            with obs.enabled(obs.Recorder()) as rec:
                text = target.run(args)
            print(obs.summary_table(rec), file=sys.stderr)
        else:
            text = target.run(args)
        if not args.quiet:
            print(text)
        return 0
    except (KeyError, ValueError) as exc:
        # KeyError (unknown matrix name) carries its message as args[0];
        # str() would wrap it in an extra layer of quotes.
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

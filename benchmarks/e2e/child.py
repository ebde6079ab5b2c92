"""One workload in a fresh interpreter, started by run.py.

Set-up (imports, input generation, prerequisites, one warm-up pass) is
timed from the first statement of this file; then N timed passes with
tracing off.  Under ``--trace`` each of the N is followed by a pass
traced by the driver itself (alternating, so that a drift of the host's
speed hits both kinds alike), and the workload's extras come last.  The
result goes to ``--result`` as JSON; nothing is printed on success.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent


def fingerprint(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def aslr_off() -> bool:
    """Whether run.py got this interpreter started at fixed addresses."""
    try:
        persona = int(Path("/proc/self/personality").read_text(), 16)
    except (OSError, ValueError):
        return False
    return bool(persona & 0x0040000)  # ADDR_NO_RANDOMIZE


def layer_metrics(names, tr, counts) -> dict:
    """Resolve BENCHMARK.json's per-layer names against the spans:
    ``X.busy_s`` and ``X.calls`` read span ``X``, any other ``Y_s`` reads
    span ``Y``, everything else is a count.  A layer this workload does
    not pass through reads 0."""
    out = {}
    for name in names:
        if name in counts:
            out[name] = counts[name]
        elif name.endswith(".busy_s"):
            out[name] = tr.median_busy(name[: -len(".busy_s")])
        elif name.endswith(".calls"):
            out[name] = tr.median_calls(name[: -len(".calls")])
        elif name.endswith("_s"):
            out[name] = tr.median_busy(name[:-2])
        else:
            out[name] = 0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--profile", choices=("full", "smoke"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    import numpy

    import workloads
    from spans import PASS, NullTracer, Tracer

    off = NullTracer()
    tr = Tracer() if args.trace else off
    wl = workloads.make(args.workload, args.profile)
    if wl.one_cpu:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl.setup(args.seed, args.tmp, tr)

    attempted = failed = 0
    errors: list[str] = []
    prints: list[str] = []
    outputs = None

    def one_pass(tracer, pass_id=0):
        """Returns the pass's wall time; counts its operations."""
        nonlocal attempted, failed, outputs
        wl.before_pass()
        gc.collect()
        attempted += wl.ops_per_pass + 1  # + the outputs-repeat check
        t = time.perf_counter()
        try:
            with tracer.one_pass(pass_id):
                out, bad = wl.run_pass(tracer)
        except Exception:  # a failed pass is counted, not fatal
            errors.append(traceback.format_exc())
            failed += wl.ops_per_pass + 1
            return time.perf_counter() - t
        finally:
            wl.after_pass()
        wall = time.perf_counter() - t
        failed += bad
        if bad:
            errors.append(f"{bad} correctness check(s) failed in one pass")
        prints.append(fingerprint(out))
        if prints[-1] != prints[0]:
            failed += 1
            errors.append("outputs differ between passes of one run")
        outputs = out
        return wall

    one_pass(off)  # warm-up
    setup_s = time.perf_counter() - T0
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if not args.setup_only:
        walls, traced = [], []
        for i in range(args.passes):
            walls.append(one_pass(off))
            if args.trace:
                traced.append(one_pass(tr, i))
        if args.trace:
            wl.extras(tr)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            counts = dict(tr.counts)
            # What the driver itself spent in a traced pass, between spans.
            counts["bench.other_s"] = median(
                tr.busy(PASS, i) - sum(tr.busy(n, i) for n in tr.top_layers())
                for i in tr.pass_ids()
            )
            # Each traced pass against the untraced one just before it:
            # neighbours in time share the host's mood.
            counts["bench.trace_overhead_frac"] = median(
                t / u - 1.0 for u, t in zip(walls, traced)
            )
            counts["proc.sys_s"] = usage.ru_stime
            counts["proc.minor_faults"] = usage.ru_minflt
            sim = tr.median_busy("machine.simulate")
            if sim:
                counts["machine.simulate.events_per_s"] = (
                    counts["machine.simulate.units"] / sim
                )
            spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
            names = [m["name"] for m in spec["per_layer"]]
            result["layers"] = layer_metrics(names, tr, counts)
            result["traced_pass_s"] = tr.median_busy(PASS)
            result["traced_walls_s"] = traced
            result["spans"] = tr.spans
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            walls_s=walls,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            user_s=usage.ru_utime,
            sys_s=usage.ru_stime,
            attempted=attempted,
            failed=failed,
            errors=errors,
            outputs=outputs,
            result_fingerprint=prints[0] if prints else None,
            python=sys.version.split()[0],
            numpy=numpy.__version__,
            aslr_off=aslr_off(),
        )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Which functions of ``src/repro`` the user paths call.

Runs every user path in this one process under a function-level profile
hook and writes ``docs/reach.md``: per module of ``src/repro`` its lines,
its functions, how many of them were called, the lines inside the
functions that were not, and their names.  The user paths are

* every target of ``python -m repro`` (the ``TARGETS`` table);
* every ``python -m repro`` command of ``.github/workflows/ci.yml``,
  with its options;
* every ``examples/*.py``;
* the six end-to-end benchmark workloads at full size, read from
  ``benchmarks/e2e/workloads.py``: set-up, one untraced pass, one traced
  pass, then the extras.

The workers of a process pool (``sweep --jobs 2``) run in this process:
their payload and result still go through pickle, so what a worker
calls counts.  Everything a path writes lands in a temporary directory.

    python tools/reach.py

Exits 1 when a module of ``src/repro`` that defines functions has none
called, or when the unreached-line count exceeds the one in the header
of the ``docs/reach.md`` it replaces: dead code may shrink, not grow.
The table holds no timing, so two runs write the same bytes.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import pickle
import re
import runpy
import shlex
import shutil
import sys
import tempfile
import threading
from concurrent.futures import Future
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUT = ROOT / "docs" / "reach.md"
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

# What a target needs beyond its defaults: the wrappers a target to run
# (`trace explain` is the traced run that draws a simulated timeline, in
# the Chrome trace it writes), the own-grammar targets a sub-command
# (`runs compare` reads the run the `sweep` target recorded just before
# it).  The profiler wraps a
# target that runs far longer than its 5 ms sampling period, or whether
# a sample is taken (and so the table) would depend on the host.
TARGET_ARGS = {
    "trace": [["trace", "table2"],
              ["trace", "explain", "--matrix", "DWT512", "-p", "4",
               "--trace-out", "explain-trace.json"]],
    "profile": [["profile", "sweep"]],
    "runs": [["runs", "list"], ["runs", "show", "latest"],
             ["runs", "compare", "sweep:latest", "sweep:latest"]],
    "cache": [["cache", "stats"], ["cache", "prune", "--max-bytes", "1M"]],
}

# --- the collector: installed before the first `import repro` ---------
_called: set = set()
_prefix = str(PACKAGE) + os.sep


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_prefix):
            _called.add((code.co_filename, code.co_firstlineno))


sys.path[:0] = [str(SRC), str(ROOT / "benchmarks" / "e2e")]


class InProcessPool:
    """A process pool that runs each task at submit, in this process,
    with its arguments and result pickled as a worker's would be."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            args = pickle.loads(pickle.dumps(args))
            future.set_result(pickle.loads(pickle.dumps(fn(*args))))
        except Exception as exc:
            future.set_exception(exc)
        return future


def ci_commands(workflow: Path) -> list[list[str]]:
    """The argv of every ``python -m repro`` command in the workflow.

    A ``run: >`` block is folded into one line and backslash
    continuations are joined; a command ends at a pipe or a
    redirection."""
    lines = workflow.read_text().splitlines()
    scripts, i = [], 0
    while i < len(lines):
        line = lines[i]
        i += 1
        head, sep, value = line.strip().partition("run:")
        if sep == "" or head not in ("", "- "):
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        while i < len(lines) and (
            not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            block.append(lines[i].strip())
            i += 1
        value = value.strip()
        if value == ">":
            scripts.append(" ".join(block))
        elif value == "|":
            scripts.append("\n".join(block))
        else:
            scripts.append(value)
    commands = []
    for script in scripts:
        for command in script.replace("\\\n", " ").splitlines():
            _, sep, rest = command.partition("python -m repro ")
            if sep:
                words = shlex.split(rest)
                cut = [k for k, w in enumerate(words) if w[0] in "|>&;"]
                commands.append(words[: cut[0]] if cut else words)
    return commands


def run_cli(argv: list[str]) -> None:
    from repro.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main(list(argv))
        except SystemExit:
            pass


def run_example(path: Path) -> None:
    sink = io.StringIO()
    saved = sys.argv
    sys.argv = [str(path)]
    try:
        with contextlib.redirect_stdout(sink):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved


def run_workloads(tmp: Path) -> None:
    import workloads
    from spans import NullTracer, Tracer

    for name in workloads.WORKLOADS:
        wl = workloads.make(name, "full")
        root = tmp / name
        root.mkdir()
        wl.setup(0, root, NullTracer())
        tracer = Tracer()
        for tr in (NullTracer(), tracer):
            wl.before_pass()
            try:
                with tr.one_pass(0):
                    wl.run_pass(tr)
            finally:
                wl.after_pass()
        wl.extras(tracer)


def run_user_paths(tmp: Path) -> None:
    from repro.cli import TARGETS

    importlib.import_module("repro.perf.sweep").ProcessPoolExecutor = InProcessPool
    ci = ci_commands(WORKFLOW)
    for argv in ci:
        for word in argv:
            if (ROOT / word).is_file():
                shutil.copy(ROOT / word, tmp / word)
    for target in TARGETS:
        for argv in TARGET_ARGS.get(target.name, [[target.name]]):
            run_cli(argv)
    for argv in ci:
        run_cli(argv)
    for example in sorted((ROOT / "examples").glob("*.py")):
        run_example(example)
    run_workloads(tmp / "e2e")


# --- the table ---------------------------------------------------------
def functions(path: Path):
    """``(first line, last line, qualified name)`` of every ``def`` in
    the module, outermost first; the first line is that of the first
    decorator, as in the code object."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = ".".join(scope + [child.name])
                found.append((first, child.end_lineno, name))
                visit(child, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return sorted(found)


def reach_table(called: set) -> tuple[str, list[str]]:
    rows, dead = [], []
    totals = [0, 0, 0, 0, 0]
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        nlines = text.count("\n")
        defs = functions(path)
        reached = [(str(path), first) in called for first, _, _ in defs]
        unreached_lines: set[int] = set()
        names = []
        for (first, last, name), hit in zip(defs, reached):
            if hit or first in unreached_lines:
                continue
            unreached_lines.update(range(first, last + 1))
            names.append(f"`{name}`")
        module = path.relative_to(PACKAGE).as_posix()
        if defs and not any(reached):
            dead.append(module)
        counts = [nlines, len(defs), sum(reached), len(unreached_lines)]
        for k, value in enumerate(counts):
            totals[k] += value
        totals[4] += 1
        rows.append(
            f"| {module} | " + " | ".join(map(str, counts)) + f" | {', '.join(names)} |"
        )
    nlines, nfuncs, nreached, nunreached, nmodules = totals
    head = [
        "# Reach of `src/repro`",
        "",
        "Generated by `python tools/reach.py`; CI re-runs it and fails on a",
        "diff.  A function is *reached* when one of the user paths calls it:",
        "every `python -m repro` target, every `python -m repro` command of",
        "the CI workflow, every `examples/*.py`, and the six end-to-end",
        "benchmark workloads at full size (set-up, one untraced pass, one",
        "traced pass, the extras).  *Unreached lines* are the lines inside",
        "functions no path called; the last column names the outermost of",
        "those functions.",
        "",
        f"{nmodules} modules, {nlines} lines; {nfuncs} functions, {nreached}"
        f" reached; {nunreached} lines inside unreached functions.",
        "",
        "| module | lines | functions | reached | unreached lines | unreached functions |",
        "|---|---:|---:|---:|---:|---|",
    ]
    return "\n".join(head + rows) + "\n", dead


def unreached_lines(table: str) -> int | None:
    """The unreached-line count in the header of a reach table."""
    found = re.search(r"(\d+) lines inside unreached functions", table)
    return int(found.group(1)) if found else None


def main() -> int:
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as name:
        tmp = Path(name)
        (tmp / "e2e").mkdir()
        # The run registry and the prepare cache land in the temp dir too.
        os.environ["REPRO_RUNS_DIR"] = str(tmp / "runs")
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
        os.chdir(tmp)
        try:
            run_user_paths(tmp)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    table, dead = reach_table(_called)
    before = unreached_lines(OUT.read_text()) if OUT.exists() else None
    after = unreached_lines(table)
    OUT.write_text(table)
    for module in dead:
        print(f"error: no function of src/repro/{module} is reached", file=sys.stderr)
    grew = before is not None and after > before
    if grew:
        print(f"error: {after} lines inside unreached functions, up from the "
              f"{before} of the table it replaced", file=sys.stderr)
    return 1 if dead or grew else 0


if __name__ == "__main__":
    sys.exit(main())

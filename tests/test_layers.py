"""The package graph of ``src/repro`` is a DAG in one declared order.

Every ``import`` and ``from ... import`` of every module counts: at
module level or inside a function ("lazy"), absolute or relative.  An
edge from a package to one later in :data:`LAYERS` fails the test, and
there is no allowlist.  The top-level modules (``__init__``,
``__main__``, ``cli``) sit above every package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

LAYERS = (
    "obs",
    "sparse",
    "ordering",
    "symbolic",
    "core",
    "machine",
    "numeric",
    "mpsim",
    "analysis",
    "perf",
    "cli",
)


def _imported(node: ast.AST, package: list[str], top: str):
    """Module paths (as parts under the package root) that ``node`` imports."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == top:
                yield parts[1:]
        return
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != top:
            return
        base = parts[1:]
    else:
        up = node.level - 1
        if up > len(package):
            raise ValueError(f"relative import beyond the package root (line {node.lineno})")
        base = package[: len(package) - up] + (node.module.split(".") if node.module else [])
    if base:
        yield base
    else:
        # ``from .. import x``: each name is a subpackage or a name of the root.
        for alias in node.names:
            yield [alias.name]


def upward_edges(root: Path, layers=LAYERS) -> list[tuple[str, int, str, str]]:
    """Every import in the package at ``root`` that points up ``layers``.

    Returns ``(module, line, from_layer, to_layer)`` per offending import.
    """
    rank = {name: i for i, name in enumerate(layers)}
    above = len(layers)  # the root package's own modules
    edges = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = list(rel.parts[:-1])
        if not package:
            continue  # top-level modules may import anything
        source = package[0]
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported(node, package, root.name):
                name = target[0] if target else ""
                if rank.get(name, above) > rank[source]:
                    edges.append((rel.as_posix(), node.lineno, source, name or root.name))
    return edges


def test_no_package_imports_upward():
    root = Path(repro.__file__).parent
    edges = upward_edges(root)
    assert not edges, "upward imports:\n" + "\n".join(
        f"  {mod}:{line}  {src} -> {dst}" for mod, line, src, dst in edges
    )


def test_every_package_has_a_layer():
    root = Path(repro.__file__).parent
    packages = {p.parent.name for p in root.glob("*/__init__.py")}
    modules = {p.stem for p in root.glob("*.py")} - {"__init__", "__main__"}
    assert packages | modules == set(LAYERS)


def _package(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "pkg"
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    for sub in [root, *(p for p in root.rglob("*") if p.is_dir())]:
        (sub / "__init__.py").touch()
    return root


ORDER = ("low", "high")


def test_flags_a_function_level_upward_import(tmp_path):
    root = _package(tmp_path, {
        "low/mod.py": "def f():\n    from ..high import x\n    return x\n",
        "high/__init__.py": "x = 1\n",
    })
    assert upward_edges(root, ORDER) == [("low/mod.py", 2, "low", "high")]


def test_flags_a_relative_import_of_the_root(tmp_path):
    root = _package(tmp_path, {"low/inner/mod.py": "from ... import y\n"})
    assert upward_edges(root, ORDER) == [("low/inner/mod.py", 1, "low", "y")]


def test_flags_an_absolute_upward_import(tmp_path):
    root = _package(tmp_path, {"low/mod.py": "import pkg.high.mod\nfrom pkg.high import z\n"})
    assert [e[1] for e in upward_edges(root, ORDER)] == [1, 2]


def test_accepts_downward_and_sibling_imports(tmp_path):
    root = _package(tmp_path, {
        "high/mod.py": (
            "import numpy\nfrom ..low import a\nfrom . import other\n"
            "from .other import b\nimport pkg.low\n"
            "def f():\n    from ..low.mod import c\n"
        ),
        "high/other.py": "b = 1\n",
        "low/mod.py": "c = 1\n",
    })
    assert upward_edges(root, ORDER) == []


def test_accepts_any_import_in_the_root_init(tmp_path):
    root = _package(tmp_path, {
        "__init__.py": "from .high import x\nfrom .low import y\nfrom . import high\n",
    })
    assert upward_edges(root, ORDER) == []

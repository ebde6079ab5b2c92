"""EXPERIMENTS.md's measured blocks, rendered from one table of sections.

Every measured block of EXPERIMENTS.md sits, fenced, between
``<!-- BEGIN generated:KEY -->`` and ``<!-- END generated:KEY -->``.
:func:`generate_report` renders every block in ``SECTIONS`` order;
:func:`update_document` rewrites the blocks of an existing document in
place and leaves everything outside them alone.  A document must carry
each key exactly once: a missing, unknown, duplicated or unclosed
marker is a ``ValueError`` naming the key.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable

from .ablations import ABLATIONS, render_ablation
from .compare import comparison_headline
from .experiments import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_tradeoff,
)
from .figures import figure4_report

__all__ = ["SECTIONS", "generate_report", "update_document"]

#: Block key -> renderer, in EXPERIMENTS.md's order.
SECTIONS: dict[str, Callable[[], str]] = {
    "compare": comparison_headline,
    "table1": render_table1,
    "table2": render_table2,
    "table3": render_table3,
    "table4": render_table4,
    "table5": lambda: render_table5() + "\n\n" + render_tradeoff(),
    "figure4": partial(figure4_report, "LAP30", grain=25),
    **{key: partial(render_ablation, key) for key in ABLATIONS},
}

_MARKER = re.compile(r"<!-- (BEGIN|END) generated:(\S+) -->")
_BLOCK = re.compile(
    r"<!-- BEGIN generated:(\S+) -->.*?<!-- END generated:\1 -->", re.S
)


def _render_block(key: str) -> str:
    """One section, fenced and between its markers."""
    return (f"<!-- BEGIN generated:{key} -->\n```text\n{SECTIONS[key]()}\n```\n"
            f"<!-- END generated:{key} -->")


def generate_report() -> str:
    """Every section's block, in order."""
    return "\n\n".join(_render_block(key) for key in SECTIONS) + "\n"


def _check_markers(text: str) -> None:
    markers = _MARKER.findall(text)
    for _, key in markers:
        if key not in SECTIONS:
            raise ValueError(f"unknown generated block {key!r}")
    ends = markers[1::2] + [("", "")]
    for (kind, key), end in zip(markers[::2], ends):
        if kind != "BEGIN" or end != ("END", key):
            raise ValueError(f"generated block {key!r} is not closed")
    seen = [key for _, key in markers[::2]]
    for key in SECTIONS:
        if seen.count(key) != 1:
            raise ValueError(
                f"generated block {key!r} is "
                + ("missing" if key not in seen else "duplicated")
            )


def update_document(text: str) -> str:
    """``text`` with every generated block re-rendered."""
    _check_markers(text)
    return _BLOCK.sub(lambda m: _render_block(m.group(1)), text)

"""Analysis oracles: reference bodies that used to live in ``src/``,
kept for the tests to compare against.

* :func:`render_gantt_reference` — the Gantt chart's original inline
  raster loop, which ``render_gantt`` (through
  ``repro.obs.simtime.busy_grid``) must reproduce character for
  character.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.gantt import _render


def render_gantt_reference(assignment, timeline, width: int = 72) -> str:
    """The original ad-hoc raster loop, kept as the reference path for
    the identity test against ``render_gantt``."""
    if assignment.proc_of_unit is None:
        raise ValueError("gantt chart requires a block assignment")
    if width < 10:
        raise ValueError("width must be at least 10 columns")
    nprocs = assignment.nprocs
    makespan = timeline.makespan
    if makespan <= 0:
        return "(empty schedule)"
    scale = width / makespan

    busy = np.zeros((nprocs, width), dtype=bool)
    for u in range(len(timeline.start)):
        p = int(assignment.proc_of_unit[u])
        a = int(timeline.start[u] * scale)
        b = int(np.ceil(timeline.finish[u] * scale))
        busy[p, a : max(b, a + (timeline.finish[u] > timeline.start[u]))] = True
    return _render(assignment, timeline, width, busy)

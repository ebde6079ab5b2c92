"""ASCII Gantt chart of a simulated schedule.

Renders the :class:`~repro.machine.simulate.ScheduleTimeline` of a block
schedule as one row per processor, with '#' for busy time and '.' for
idle time — a quick visual of where the dependency delays bite.

The raster comes from :func:`repro.obs.simtime.busy_grid`, the single
quantization shared with the HTML report panels, so the two can never
disagree.
"""

from __future__ import annotations

import numpy as np

from ..core.assignment import Assignment
from ..machine.simulate import ScheduleTimeline
from ..obs.simtime import busy_grid

__all__ = ["render_gantt"]


def _render(
    assignment: Assignment,
    timeline: ScheduleTimeline,
    width: int,
    busy: np.ndarray,
) -> str:
    nprocs = assignment.nprocs
    makespan = timeline.makespan
    lines = [
        f"Schedule Gantt ({assignment.scheme}, P={nprocs}); makespan "
        f"{makespan:.0f}, idle {100 * timeline.idle_fraction:.0f}%",
        " " * 5 + "0" + " " * (width - len(str(int(makespan))) - 1)
        + str(int(makespan)),
    ]
    for p in range(nprocs):
        row = "".join("#" if busy[p, c] else "." for c in range(width))
        util = timeline.proc_busy[p] / makespan
        lines.append(f"p{p:<3d} {row} {100 * util:3.0f}%")
    return "\n".join(lines)


def render_gantt(
    assignment: Assignment,
    timeline: ScheduleTimeline,
    width: int = 72,
) -> str:
    """Render the timeline as an ASCII Gantt chart of ``width`` columns."""
    if assignment.proc_of_unit is None:
        raise ValueError("gantt chart requires a block assignment")
    if width < 10:
        raise ValueError("width must be at least 10 columns")
    if timeline.makespan <= 0:
        return "(empty schedule)"
    busy = busy_grid(
        timeline.start, timeline.finish, assignment.proc_of_unit,
        assignment.nprocs, width, timeline.makespan,
    )
    return _render(assignment, timeline, width, busy)


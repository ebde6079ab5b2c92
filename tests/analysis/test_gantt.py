"""ASCII Gantt chart."""

import pytest

from repro.analysis import render_gantt
from repro.core import block_mapping, wrap_mapping
from repro.machine import MachineModel, simulate_schedule

from .oracles import render_gantt_reference


@pytest.fixture(scope="module")
def timeline(prepared_grid):
    r = block_mapping(prepared_grid, 4, grain=4)
    tl = simulate_schedule(
        r.assignment, r.dependencies, prepared_grid.updates,
        MachineModel(alpha=0.0, beta=0.0),
    )
    return r, tl


class TestGantt:
    def test_one_row_per_processor(self, timeline):
        r, tl = timeline
        out = render_gantt(r.assignment, tl)
        rows = [l for l in out.splitlines() if l.startswith("p")]
        assert len(rows) == 4

    def test_width_respected(self, timeline):
        r, tl = timeline
        out = render_gantt(r.assignment, tl, width=40)
        for line in out.splitlines():
            if line.startswith("p"):
                bar = line.split()[1]
                assert len(bar) == 40

    def test_utilization_annotated(self, timeline):
        r, tl = timeline
        out = render_gantt(r.assignment, tl)
        assert "%" in out
        assert "makespan" in out

    def test_busy_marks_present(self, timeline):
        r, tl = timeline
        out = render_gantt(r.assignment, tl)
        assert "#" in out

    def test_requires_unit_view(self, prepared_grid, timeline):
        from repro.core import two_d_cyclic

        _, tl = timeline
        a = two_d_cyclic(prepared_grid.pattern, 2, 2)
        with pytest.raises(ValueError):
            render_gantt(a, tl)

    def test_width_validated(self, timeline):
        r, tl = timeline
        with pytest.raises(ValueError):
            render_gantt(r.assignment, tl, width=5)


class TestGanttIdentity:
    """The shared busy_grid raster must reproduce the original inline
    loop character-for-character on the bundled paper matrices."""

    @pytest.mark.parametrize(
        "matrix", ["BUS1138", "CANN1072", "DWT512", "LAP30", "LSHP1009"]
    )
    @pytest.mark.parametrize("width", [40, 72])
    def test_matches_reference(self, matrix, width):
        from repro.analysis.experiments import prepared_matrix

        prep = prepared_matrix(matrix)
        r = block_mapping(prep, 16, grain=4)
        tl = simulate_schedule(r.assignment, r.dependencies, prep.updates)
        assert render_gantt(r.assignment, tl, width=width) == \
            render_gantt_reference(r.assignment, tl, width=width)

    def test_matches_reference_zero_alpha(self, timeline):
        r, tl = timeline
        assert render_gantt(r.assignment, tl) == \
            render_gantt_reference(r.assignment, tl)

"""Experiment harness (light checks; the full tables and their findings
are asserted in test_findings.py)."""

import pytest

from repro.analysis import paper_data, table1_rows, table4_rows
from repro.analysis.experiments import prepared_matrix


class TestPaperData:
    def test_table1_complete(self):
        assert set(paper_data.TABLE1) == set(paper_data.SHORT_NAMES)

    def test_total_work_derived(self):
        assert paper_data.PAPER_TOTAL_WORK["LAP30"] == 434577

    def test_tables_cover_all_matrices(self):
        for table in (paper_data.TABLE2, paper_data.TABLE3, paper_data.TABLE5):
            assert set(table) == set(paper_data.TABLE1)

    def test_table4_widths(self):
        assert set(paper_data.TABLE4) == {2, 4, 8}

    def test_wrap_p1_zero_traffic(self):
        for rows in paper_data.TABLE5.values():
            assert rows[1][0] == 0


class TestHarness:
    def test_prepared_matrix_cached(self):
        a = prepared_matrix("DWT512")
        b = prepared_matrix("DWT512")
        assert a is b

    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == 5
        lap = next(r for r in rows if r["matrix"] == "LAP30")
        assert lap["n"] == lap["paper_n"] == 900
        assert lap["nnz"] == lap["paper_nnz"] == 4322

    def test_table4_small_sweep(self):
        rows = table4_rows(widths=(2,), procs=(4,), matrix="DWT512")
        assert len(rows) == 1
        assert rows[0]["total"] > 0
        assert rows[0]["paper"] is None  # paper only reports LAP30

    def test_renders_include_paper_values(self):
        """The rendered tables must carry the published numbers side by
        side (spot-check one distinctive constant per table)."""
        from repro.analysis import render_table2, render_table5

        assert "100012" in render_table2()  # paper LAP30 g=4 P=16
        assert "177625" in render_table5()  # paper LAP30 wrap P=32

    def test_work_consistent_across_tables(self):
        """Table 3's mean work times P equals Table 5's P=1 total work
        for every matrix (the partition-invariance of the cost model)."""
        from repro.analysis import table3_rows, table5_rows

        t3 = {(r["matrix"], r["nprocs"]): r for r in table3_rows()}
        t5 = {(r["matrix"], r["nprocs"]): r for r in table5_rows()}
        for name in ("LAP30", "DWT512"):
            total = t5[(name, 1)]["work_mean"]
            for p in (4, 16, 32):
                assert t3[(name, p)]["work_mean"] * p == pytest.approx(
                    total, rel=0.01
                )

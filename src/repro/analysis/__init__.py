"""Experiment harness: regenerate the paper's tables and figures."""

from . import paper_data
from .experiments import (
    prepared_matrix,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from .claims import ClaimResult, check_claims, render_claims
from .compare import comparison_rows, render_comparison
from .explain import ExplainResult, explain_manifest, explain_run, render_explain
from .figures import figure1_ascii, figure2_ascii, figure3_ascii, figure4_report
from .gantt import render_gantt, render_gantt_reference
from .report import generate_report
from .stats import partition_statistics, render_partition_stats
from .tables import format_number, render_table

__all__ = [
    "ClaimResult",
    "check_claims",
    "render_claims",
    "paper_data",
    "prepared_matrix",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "comparison_rows",
    "render_comparison",
    "ExplainResult",
    "explain_manifest",
    "explain_run",
    "render_explain",
    "figure1_ascii",
    "figure2_ascii",
    "figure3_ascii",
    "figure4_report",
    "generate_report",
    "render_gantt",
    "render_gantt_reference",
    "partition_statistics",
    "render_partition_stats",
    "format_number",
    "render_table",
]

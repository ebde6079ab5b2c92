"""Experiment harness: regenerate the paper's tables and figures."""

from . import paper_data
from .ablations import ABLATIONS
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
    tradeoff_rows,
)
from .claims import ClaimResult, check_claims, render_claims
from .compare import comparison_rows, render_comparison
from .explain import ExplainResult, explain_manifest, explain_run, render_explain
from .figures import figure1_ascii, figure2_ascii, figure3_ascii, figure4_report
from .gantt import render_gantt
from .report import SECTIONS, generate_report, update_document
from .stats import partition_statistics, render_partition_stats
from .tables import format_number, render_table

__all__ = [
    "ABLATIONS",
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
    "tradeoff_rows",
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
    "SECTIONS",
    "generate_report",
    "update_document",
    "render_gantt",
    "partition_statistics",
    "render_partition_stats",
    "format_number",
    "render_table",
]

"""One-call scorecard for an assignment: every metric in one dict."""

from __future__ import annotations

from ..core.assignment import Assignment
from ..symbolic.updates import UpdateSet
from .hotspot import hotspot_profile
from .metrics import load_balance
from .solve_metrics import solve_balance, solve_traffic
from .traffic import data_traffic
from .work import processor_work

__all__ = ["scorecard"]


def scorecard(assignment: Assignment, updates: UpdateSet) -> dict:
    """All headline metrics of an assignment as a flat dict."""
    traffic = data_traffic(assignment, updates)
    balance = load_balance(processor_work(assignment, updates))
    hot = hotspot_profile(assignment, updates)
    s_traffic = solve_traffic(assignment)
    s_balance = solve_balance(assignment)
    return {
        "scheme": assignment.scheme,
        "nprocs": assignment.nprocs,
        "factor_traffic_total": traffic.total,
        "factor_traffic_mean": traffic.mean,
        "factor_traffic_max": traffic.max,
        "factor_work_total": balance.total,
        "factor_work_max": balance.max,
        "factor_imbalance": balance.imbalance,
        "factor_efficiency": balance.efficiency,
        "solve_traffic_total": s_traffic.total,
        "solve_imbalance": s_balance.imbalance,
        "hotspot_factor": hot.hotspot_factor,
        "mean_partners": hot.mean_partners,
        "pairs_for_90pct_traffic": hot.pairs_for_fraction(0.9),
    }

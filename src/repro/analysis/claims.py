"""Programmatic checks of the paper's headline claims (DESIGN.md C1-C4,
plus the simulated-time corollary C5).

Each claim is evaluated on freshly measured data and returns a
:class:`ClaimResult`; the CLI target ``claims`` prints the scoreboard
and the integration tests assert that every claim holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pipeline import block_mapping, wrap_mapping
from .experiments import prepared_matrix
from .tables import render_table

__all__ = ["ClaimResult", "check_claims", "render_claims"]


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    description: str
    holds: bool
    evidence: str


def check_claims(matrix: str = "LAP30") -> list[ClaimResult]:
    """Evaluate C1-C5 on one matrix (default: the exactly-regenerated LAP30)."""
    prep = prepared_matrix(matrix)
    results: list[ClaimResult] = []

    # C1: traffic grows with P; coarse grain cuts it sharply.
    t = {
        (g, p): block_mapping(prep, p, grain=g).traffic.total
        for g in (4, 25)
        for p in (4, 16, 32)
    }
    grows = t[(4, 4)] < t[(4, 16)] < t[(4, 32)]
    cut = t[(25, 16)] < 0.7 * t[(4, 16)] and t[(25, 32)] < 0.7 * t[(4, 32)]
    results.append(
        ClaimResult(
            "C1",
            "block traffic grows with P; g=25 cuts traffic substantially",
            grows and cut,
            f"g=4: {t[(4, 4)]}→{t[(4, 16)]}→{t[(4, 32)]}; "
            f"g=25 vs g=4 at P=32: {t[(25, 32)]} vs {t[(4, 32)]}",
        )
    )

    # C2: λ grows with grain and with P for the block scheme.
    lam = {
        (g, p): block_mapping(prep, p, grain=g).balance.imbalance
        for g in (4, 25)
        for p in (4, 32)
    }
    c2 = lam[(25, 32)] > lam[(4, 32)] and lam[(25, 32)] > lam[(25, 4)]
    results.append(
        ClaimResult(
            "C2",
            "block imbalance grows with grain size and processor count",
            c2,
            f"λ(g=4,P=32)={lam[(4, 32)]:.2f}, λ(g=25,P=4)={lam[(25, 4)]:.2f}, "
            f"λ(g=25,P=32)={lam[(25, 32)]:.2f}",
        )
    )

    # C3: wrap balances better but communicates more; block saves >= 35%
    # of traffic at g=25, P=32.
    blk = block_mapping(prep, 32, grain=25)
    wrp = wrap_mapping(prep, 32)
    saving = 1 - blk.traffic.total / wrp.traffic.total
    c3 = (
        wrp.balance.imbalance < blk.balance.imbalance
        and blk.traffic.total < wrp.traffic.total
        and saving >= 0.35
    )
    results.append(
        ClaimResult(
            "C3",
            "the communication / load-balance trade-off (block vs wrap)",
            c3,
            f"traffic {blk.traffic.total} vs {wrp.traffic.total} "
            f"({100 * saving:.0f}% saving); λ {blk.balance.imbalance:.2f} "
            f"vs {wrp.balance.imbalance:.2f}",
        )
    )

    # C4: the cluster-width parameter genuinely moves the partitioning.
    widths = {
        w: block_mapping(prep, 16, grain=4, min_width=w) for w in (2, 4, 8)
    }
    totals = {w: r.traffic.total for w, r in widths.items()}
    n_multi = {
        w: int((~r.partition.clusters.is_column).sum())
        for w, r in widths.items()
    }
    c4 = len(set(totals.values())) > 1 and n_multi[8] <= n_multi[2]
    results.append(
        ClaimResult(
            "C4",
            "minimum cluster width shifts the traffic/balance point",
            c4,
            f"traffic by width: {totals}; multi-col clusters: {n_multi}",
        )
    )

    # C5 (simulated-time corollary of C3): on the simulated machine the
    # wrap schedule spreads its traffic over more processor links and
    # spends a larger share of its critical path waiting on messages
    # than the coarse-grain block schedule.
    from ..machine.simulate import simulate_assignment

    _, blk_run = simulate_assignment(blk.assignment, prep.updates,
                                     deps=blk.dependencies, name=matrix)
    _, wrp_run = simulate_assignment(wrp.assignment, prep.updates, name=matrix)
    blk_links = len(blk_run.link_volumes())
    wrp_links = len(wrp_run.link_volumes())
    blk_cp = blk_run.critical_path()
    wrp_cp = wrp_run.critical_path()
    blk_msg = sum(1 for e in blk_cp.edges if e == "message")
    wrp_msg = sum(1 for e in wrp_cp.edges if e == "message")
    blk_frac = blk_msg / max(len(blk_cp.edges), 1)
    wrp_frac = wrp_msg / max(len(wrp_cp.edges), 1)
    c5 = wrp_links > blk_links and wrp_frac > blk_frac
    results.append(
        ClaimResult(
            "C5",
            "simulated wrap execution is communication-bound vs block",
            c5,
            f"used links {wrp_links} vs {blk_links}; message edges on the "
            f"critical path {100 * wrp_frac:.0f}% vs {100 * blk_frac:.0f}%",
        )
    )
    return results


def render_claims(matrix: str = "LAP30") -> str:
    rows = [
        [r.claim, r.description, "HOLDS" if r.holds else "FAILS", r.evidence]
        for r in check_claims(matrix)
    ]
    return render_table(
        ["claim", "description", "verdict", "evidence"],
        rows,
        f"Headline claims of the paper, re-measured on {matrix}",
    )

"""EXPERIMENTS.md's findings, asserted on the rows its blocks render.

Each test checks one finding the document states as a direction or an
inequality, not the exact number (the rendered blocks pin those), so a
change that moves a number keeps this suite green exactly when the
finding still holds.
"""

import pytest

from repro.analysis import (ABLATIONS, comparison_rows, figure1_ascii, figure2_ascii,
                            figure3_ascii, figure4_report, table1_rows, table2_rows,
                            table3_rows, table4_rows, table5_rows, tradeoff_rows)
from repro.sparse import names


@pytest.fixture(scope="module")
def rows():
    return {key: ablation.rows() for key, ablation in ABLATIONS.items()}


def by(rows, n=1):
    """Index list rows by their first ``n`` columns."""
    return {(r[0] if n == 1 else tuple(r[:n])): r for r in rows}


def of(rows, matrix):
    return [r for r in rows if r["matrix"] == matrix]


def rising(values):
    values = list(values)
    return values == sorted(set(values))


def falling(values):
    return rising(reversed(list(values)))


MATRICES = names()


class TestTables:
    def test_table1_orders_exact_factors_within_a_fifth_cann_fills_least(self):
        rows = {r["matrix"]: r for r in table1_rows()}
        for r in rows.values():
            assert r["n"] == r["paper_n"]
            assert abs(r["factor_nnz"] - r["paper_factor_nnz"]) <= 0.2 * r["paper_factor_nnz"]
        fill = {m: r["factor_nnz"] / r["paper_factor_nnz"] for m, r in rows.items()}
        assert min(fill, key=fill.get) == "CANN1072"
        dwt = rows["DWT512"]
        assert dwt["nnz"] > dwt["paper_nnz"] and abs(fill["DWT512"] - 1) < 0.01

    def test_table2_coarse_grain_cuts_traffic_in_every_cell(self):
        for r in table2_rows():
            assert 0 < r["total_g25"] < r["total_g4"]
        lap16 = of(table2_rows(), "LAP30")[1]  # a smaller cut than the paper's
        assert lap16["total_g25"] / lap16["total_g4"] > lap16["paper"][1] / lap16["paper"][0]

    def test_table2_traffic_against_p(self):
        for name in ("LAP30", "LSHP1009", "CANN1072"):
            for g in ("total_g4", "total_g25"):
                assert rising(r[g] for r in of(table2_rows(), name))
        cann = of(table2_rows(), "CANN1072")
        assert all(r["total_g4"] < r["paper"][0] and r["total_g25"] < r["paper"][1] for r in cann)
        dwt = [r["total_g4"] for r in of(table2_rows(), "DWT512")]
        bus = [r["total_g4"] for r in of(table2_rows(), "BUS1138")]
        assert dwt[1] == dwt[2] and bus[2] < bus[1]

    def test_table3_lambda_rises_with_grain_and_with_p_at_g25(self):
        wrap = {(r["matrix"], r["nprocs"]): r["imbalance"] for r in table5_rows()}
        for r in table3_rows():
            assert 0.0 <= r["imbalance_g4"] < r["imbalance_g25"]
            assert r["imbalance_g25"] > 2 * wrap[r["matrix"], r["nprocs"]]
        for name in MATRICES:
            assert rising(r["imbalance_g25"] for r in of(table3_rows(), name))

    def test_table3_against_the_paper(self):
        for r in table3_rows():
            if r["nprocs"] >= 16 and r["matrix"] in ("LAP30", "LSHP1009", "DWT512"):
                assert r["imbalance_g25"] < r["paper"][2]
            if r["nprocs"] >= 16 and r["matrix"] == "BUS1138":
                assert r["imbalance_g4"] < 0.25 * r["paper"][1]

    def test_table4_width_moves(self):
        rows = table4_rows()
        assert len({r["work_mean"] for r in rows if r["nprocs"] == 16}) == 1
        p16 = {r["width"]: r for r in rows if r["nprocs"] == 16}
        assert p16[2]["total"] < p16[4]["total"] and p16[2]["paper"][0] < p16[4]["paper"][0]
        assert p16[4]["paper"][3] < p16[2]["paper"][3]
        # Width 8 diverges: the paper's lambda explodes, ours keeps falling.
        assert p16[8]["imbalance"] < p16[4]["imbalance"] < p16[2]["imbalance"]
        assert p16[4]["imbalance"] < p16[8]["paper"][3]

    def test_table5_wrap_balances_lap30_closest_to_the_paper(self):
        for r in table5_rows():
            assert r["imbalance"] < 0.6 if r["nprocs"] > 1 else r["total"] == r["imbalance"] == 0

        def ratios(name):
            return [r["total"] / r["paper"][0] for r in of(table5_rows(), name) if r["nprocs"] > 1]

        assert all(x > 1 for x in ratios("LAP30"))
        miss = {m: max(abs(x - 1) for x in ratios(m)) for m in MATRICES}
        assert min(miss, key=miss.get) == "LAP30"

    def test_tradeoff_block_saves_over_half_and_pays_in_lambda(self):
        for r in tradeoff_rows():
            assert r["saving"] > 0.5 and r["paper_saving"] > 0.5
            assert r["imbalance_block"] > r["imbalance_wrap"]
            assert r["paper_imbalance_block"] > r["paper_imbalance_wrap"]
        lap = of(tradeoff_rows(), "LAP30")[0]
        assert round(100 * lap["paper_saving"], 1) == 72.5  # 1 - 48863 / 177625

    def test_compare_traffic_cells_reproduce_better_than_lambda(self):
        cells = [r for r in comparison_rows() if r["ratio"] is not None]
        assert len(cells) == 75

        def median_miss(kind):
            ratios = sorted(r["ratio"] for r in cells if kind in r["quantity"])
            return abs(ratios[len(ratios) // 2] - 1)

        assert median_miss("traffic") < median_miss("lambda")


class TestFigures:
    def test_renders(self):
        assert "T = target element" in figure1_ascii()
        assert "fill=" in figure2_ascii(5, 5)
        assert "triangle" in figure3_ascii() and "rectangle" in figure3_ascii()

    def test_figure4_every_category_occurs_and_cat10_is_the_majority(self):
        lines = figure4_report("LAP30", grain=25).splitlines()[3:]
        counts = [int(line.split("|")[2]) for line in lines]
        assert len(counts) == 11 and all(counts)
        assert "two rectangles update a rectangle" in lines[10]
        assert 2 * counts[10] > sum(counts)


class TestAblations:
    def test_grain_sweep_is_one_monotone_trade_off(self, rows):
        r = rows["ablation_grain"]
        assert falling(x[1] for x in r) and falling(x[2] for x in r)
        assert rising(x[4] for x in r)

    def test_zero_tolerance_pads_and_costs_traffic(self, rows):
        r = rows["ablation_zeros"]
        assert r[0][3] == 0
        assert all(a[3] <= b[3] and a[4] <= b[4] for a, b in zip(r, r[1:]))
        assert len({x[1] for x in r[:-1]}) == 1 and r[-1][1] < r[0][1]
        assert rising(x[5] for x in r)

    def test_least_loaded_buys_balance_with_traffic(self, rows):
        r = by(rows["ablation_policy"], 2)
        for name in ("LAP30", "DWT512"):
            first, ll, rr = (r[name, p] for p in ("first", "least_loaded", "round_robin"))
            assert first[2] < ll[2] < rr[2] and ll[3] <= first[3]
        assert abs(r["LAP30", "least_loaded"][3] - r["LAP30", "first"][3]) < 0.005
        assert r["DWT512", "least_loaded"][3] < r["DWT512", "first"][3] / 2

    def test_block_cyclic_8_beats_block_g25(self, rows):
        r = by(rows["ablation_mappings"])
        bc = [r[f"block-cyclic({b})"] for b in (1, 2, 4, 8)]
        assert falling(x[1] for x in bc) and rising(x[3] for x in bc)
        assert r["block(g=25)"][1] < r["block-cyclic(1)"][1]  # block beats wrap
        assert r["block-cyclic(8)"][1] < r["block(g=25)"][1]
        assert r["block-cyclic(8)"][3] < r["block(g=25)"][3]

    def test_costly_communication_narrows_the_coarse_grain_gap(self, rows):
        r = by(rows["ablation_delays"], 2)
        assert 4.0 < r[4, "free-comm"][4] < 16
        gap = [r[25, m][2] / r[4, m][2] for m in ("free-comm", "cheap-comm", "costly-comm")]
        assert falling(gap) and gap[-1] > 1  # narrower at every step, never closed

    def test_adaptive_cuts_lap30_traffic_near_the_papers_cell(self, rows):
        r = by(rows["ablation_adaptive"], 3)
        assert len(r) == 30  # every Table 2 / 3 cell
        for x in r.values():
            assert x[4] <= x[3] and x[6] <= x[5]  # never more units or traffic
        closer = {key for key, x in r.items() if abs(x[6] - x[7]) < abs(x[5] - x[7])}
        assert closer == {("BUS1138", 4, 4), ("BUS1138", 16, 4), ("LAP30", 4, 25),
                          ("LAP30", 16, 4), ("LAP30", 16, 25), ("LAP30", 32, 4),
                          ("LAP30", 32, 25)}
        capped = {key for key, x in r.items() if x[4] < x[3]}
        lower = {key for key in capped if r[key][9] < r[key][8]}
        assert len(capped) == 17 and all(r[key][9] > r[key][8] for key in capped - lower)
        assert lower == {("LAP30", 4, 25), ("LSHP1009", 16, 4), ("LSHP1009", 16, 25)}
        lap = r["LAP30", 16, 4]  # the one cell the paper's traffic nearly equals
        assert abs(lap[6] - lap[7]) < 0.01 * lap[7] < abs(lap[5] - lap[7])
        for key, x in r.items():  # no cap binds on DWT512: adaptive is static
            if key[0] == "DWT512":
                assert (x[3], x[5], x[8]) == (x[4], x[6], x[9])

    def test_solve_phase_is_milder_and_block_still_communicates_less(self, rows):
        r = by(rows["ablation_solve"], 2)
        assert all(x[5] < x[3] for x in r.values())
        assert all(r["block g=25", p][4] < r["wrap", p][4] for p in (4, 16, 32))

    def test_fanin_sends_fewer_messages_but_not_a_quarter_fewer(self, rows):
        r = rows["distributed_messages"]
        assert rising(x[1] for x in r) and rising(x[4] for x in r)
        assert all(0.75 * x[1] < x[2] < x[1] for x in r)

    def test_block_execution_messages_fall_with_the_grain(self, rows):
        r = rows["block_execution"]
        assert all(falling(x[col] for x in r) for col in (2, 3, 4))

    def test_paper_scheduler_sits_between_the_extremes(self, rows):
        r = by(rows["ablation_schedulers"], 2)
        for p in (16, 32):
            paper, lpt = r[p, "paper §3.4"], r[p, "LPT (pure balance)"]
            aff = r[p, "affinity (pure locality)"]
            assert aff[2] < paper[2] < lpt[2] and lpt[3] < paper[3] < aff[3]

    def test_ordering_rcm_fills_less_than_mmd_but_mmd_balances(self, rows):
        r = by(rows["ablation_ordering"])
        for md_like in ("md", "amd"):
            assert r[md_like][1] < r["rcm"][1] < r["mmd"][1] < r["natural"][1]
            assert r["mmd"][4] < r[md_like][4]
        assert r["nd"][1] == max(x[1] for x in r.values())

    def test_scaling_saving_decays_while_balance_improves(self, rows):
        r = rows["scaling"]
        savings = [float(x[5].rstrip("%")) for x in r]
        assert falling(savings) and min(savings) > 20
        assert falling(x[6] for x in r)

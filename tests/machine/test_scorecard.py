"""Assignment scorecard."""

import pytest

from repro.core import block_mapping, wrap_mapping
from repro.machine import scorecard


class TestScorecard:
    def test_fields_present(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        card = scorecard(r.assignment, prepared_grid.updates)
        for key in (
            "scheme", "nprocs", "factor_traffic_total", "factor_imbalance",
            "solve_traffic_total", "hotspot_factor", "pairs_for_90pct_traffic",
        ):
            assert key in card

    def test_consistent_with_mapping_result(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        card = scorecard(r.assignment, prepared_grid.updates)
        assert card["factor_traffic_total"] == r.traffic.total
        assert card["factor_imbalance"] == pytest.approx(r.balance.imbalance)
        assert card["factor_work_total"] == prepared_grid.total_work

    def test_wrap_vs_block_story(self, prepared_lap30):
        blk = scorecard(
            block_mapping(prepared_lap30, 16, grain=25).assignment,
            prepared_lap30.updates,
        )
        wrp = scorecard(
            wrap_mapping(prepared_lap30, 16).assignment, prepared_lap30.updates
        )
        assert blk["factor_traffic_total"] < wrp["factor_traffic_total"]
        assert blk["factor_imbalance"] > wrp["factor_imbalance"]
        # On LAP30 at P=16 both schemes touch every partner at least
        # once; the concentration measure is the discriminator.
        assert blk["pairs_for_90pct_traffic"] < wrp["pairs_for_90pct_traffic"]

    def test_cli_target(self, capsys):
        from repro.cli import main

        assert main(["scorecard", "--matrix", "DWT512", "--grain", "25"]) == 0
        out = capsys.readouterr().out
        assert "hotspot_factor" in out

    def test_cli_sweep_csv(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "s.csv"
        assert main(["sweep", "--matrix", "DWT512", "--output", str(out_path)]) == 0
        assert out_path.read_text().startswith("matrix,scheme")

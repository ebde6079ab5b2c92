"""obs.report: the self-contained HTML run report."""

import re
import xml.etree.ElementTree as ET

import pytest

from repro.obs import runs
from repro.obs.histogram import Histogram
from repro.obs.report import build_report, downsample, render_report


def _hist_doc():
    h = Histogram()
    for v in (1.0, 2.0, 4.0, 40.0):
        h.observe(v)
    return h.to_dict()


def _manifest(**over):
    doc = {
        "run_id": "sweep-20260808T120000-abc123",
        "kind": "sweep",
        "created": "2026-08-08 12:00:00",
        "created_unix": 1000.0,
        "git_sha": "deadbeefcafe",
        "host": {"hostname": "ci-box", "platform": "Linux", "python": "3.12",
                 "cpus": 8},
        "config": {"matrices": ["DWT512"], "jobs": 2},
        "matrices": {
            "DWT512": {
                "stages": {"order": 0.01, "symbolic": 0.02, "schedule": 0.005},
                "wall_total": 0.04,
                "mem_peak_mb": 88.5,
            }
        },
        "memory": [[0.0, 55.0], [0.5, 90.0], [1.0, 85.0]],
        "histograms": {"perf.sweep.unit_ms": _hist_doc()},
        "records": [
            {"matrix": "DWT512", "scheme": s, "nprocs": p, "grain": 4,
             "traffic_total": 100.0 * p * (1.5 if s == "wrap" else 1.0),
             "imbalance": 1.2}
            for s in ("block", "wrap") for p in (2, 4, 8)
        ],
        "profile": {"hz": 200.0, "duration_s": 1.0, "nsamples": 200,
                    "top": [{"span": "pipeline.order", "func": "mmd (a/b.py:1)",
                             "samples": 120, "pct": 60.0, "est_s": 0.6}]},
        "wall_s": 1.0,
    }
    doc.update(over)
    return doc


#: Anything that would make the report reach off-disk.
_EXTERNAL = re.compile(
    r"https?://|<script\s+[^>]*src|<link\b|<img\b|url\(|@import", re.I
)


class TestDownsample:
    def test_short_series_untouched(self):
        samples = [(0.0, 1), (1.0, 2)]
        assert downsample(samples, limit=400) == samples

    def test_respects_limit_and_keeps_endpoints(self):
        samples = [(float(i), i) for i in range(5000)]
        out = downsample(samples, limit=100)
        assert len(out) <= 102  # limit chunks + first and last raw points
        assert out[0] == samples[0] and out[-1] == samples[-1]

    def test_preserves_the_peak(self):
        samples = [(float(i), 10) for i in range(1000)]
        samples[417] = (417.0, 9999)  # a spike a naive stride would skip
        out = downsample(samples, limit=50)
        assert max(v for _, v in out) == 9999

    def test_output_stays_time_sorted(self):
        samples = [(float(i), i % 7) for i in range(1000)]
        out = downsample(samples, limit=64)
        assert out == sorted(out)


class TestBuildReport:
    @pytest.fixture(scope="class")
    def html(self):
        return build_report(_manifest())

    def test_self_contained(self, html):
        assert not _EXTERNAL.search(html)
        assert "<style>" in html  # CSS is inlined, not linked

    def test_every_panel_renders(self, html):
        for heading in ("Stage timings", "Memory", "Sweep", "Histogram",
                        "Profile"):
            assert heading.lower() in html.lower(), heading

    def test_header_carries_provenance(self, html):
        assert "sweep-20260808T120000-abc123" in html
        assert "deadbeef" in html and "ci-box" in html

    def test_svg_is_well_formed(self, html):
        svgs = re.findall(r"<svg.*?</svg>", html, re.S)
        assert svgs, "expected inline SVG charts"
        for svg in svgs:
            ET.fromstring(svg)  # raises on malformed markup
            assert "NaN" not in svg and "Infinity" not in svg

    def test_schemes_get_fixed_colors_and_legend(self, html):
        assert "block" in html and "wrap" in html
        assert "legend" in html

    def test_tables_accompany_charts(self, html):
        assert html.count("<details") >= 2  # table views for the data

    def test_dark_mode_is_selected_not_flipped(self, html):
        assert "prefers-color-scheme" in html
        assert "data-theme" in html

    def test_delta_panel_needs_a_previous_run(self):
        base = _manifest()
        prev = _manifest(run_id="sweep-20260808T110000-000000",
                         created_unix=500.0)
        for entry in prev["matrices"].values():
            entry["stages"] = {k: v / 2 for k, v in entry["stages"].items()}
            entry["wall_total"] /= 2
        alone = build_report(base)
        paired = build_report(base, previous=prev)
        assert "vs previous" in paired.lower() or "delta" in paired.lower()
        assert len(paired) > len(alone)

    def test_empty_manifest_renders_fallback(self):
        html = build_report({"run_id": "x", "kind": "bench"})
        assert "no renderable panels" in html
        assert not _EXTERNAL.search(html)

    def test_hostile_strings_are_escaped(self):
        doc = _manifest(run_id="<script>alert(1)</script>")
        html = build_report(doc)
        assert "<script>" not in html


class TestRenderReport:
    def test_latest_run_from_registry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "reg"))
        runs.record_run("sweep", matrices=_manifest()["matrices"],
                        extra={"memory": _manifest()["memory"]})
        out = render_report(None, out=tmp_path / "REPORT.html")
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert not _EXTERNAL.search(html)
        assert "DWT512" in html

    def test_previous_same_kind_run_feeds_the_delta(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "reg"))
        slow = {"DWT512": {"stages": {"order": 0.02}, "wall_total": 0.02}}
        fast = {"DWT512": {"stages": {"order": 0.01}, "wall_total": 0.01}}
        runs.record_run("bench", matrices=slow)
        runs.record_run("bench", matrices=fast)
        out = render_report("bench:latest", out=tmp_path / "R.html")
        assert "vs previous" in out.read_text().lower()

    def test_unknown_ref_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "reg"))
        with pytest.raises(ValueError):
            render_report("no-such-run", out=tmp_path / "R.html")

    def test_cli_report_latest(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "reg"))
        monkeypatch.chdir(tmp_path)
        runs.record_run("sweep", matrices=_manifest()["matrices"])
        assert main(["report", "--latest"]) == 0
        assert "REPORT.html" in capsys.readouterr().out
        assert (tmp_path / "REPORT.html").exists()

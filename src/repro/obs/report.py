"""One self-contained HTML page per recorded run: the unified report.

ASCII tables answer "what just happened"; Perfetto answers "show me the
microseconds"; this module answers the question in between — *how did
this run behave, end to end, on one page I can attach to a CI
artifact?*  :func:`build_report` renders a run-registry manifest
(:mod:`repro.obs.runs`) into a single HTML file with **zero external
resources**: styles are inline, charts are inline SVG, and nothing
references the network, so the page opens identically from a CI
artifact zip, a mail attachment, or ``file://``.

Panels appear when the manifest carries their data and disappear when
it does not:

* **stage timings** — per-matrix horizontal bars from ``matrices``;
* **memory timeline** — the RSS sample curve (``extra["memory"]``,
  downsampled peak-preserving by :func:`downsample`);
* **sweep curves** — traffic vs processor count, one line per mapping
  scheme (``extra["records"]``);
* **histograms** — bucket bars + p50/p90/p99 for each recorded
  distribution (``extra["histograms"]``);
* **profiler top-N** — the self-time table of a ``profile`` run;
* **delta vs previous** — the registry comparison against the prior
  run of the same kind, the same rows the CI gate checks;
* **simulated machine** — for ``explain`` runs (``extra["explain"]``,
  built by :func:`repro.analysis.explain.explain_manifest`): the P×P
  communication heatmap, the critical path with compute/wait split, the
  λ-attribution waterfall with culprit blocks, and per-processor
  busy/wait/idle stacks — all on the simulated clock.

Styling follows the repo's chart conventions: colors are CSS custom
properties with light and dark values (``prefers-color-scheme`` plus a
``data-theme`` override), mapping schemes keep fixed hues (block =
blue, wrap = orange, block-adaptive = aqua — color follows the entity,
never the series count), every multi-series chart has a legend, every
chart has a table view, and text always wears ink tokens, never the
series color.  Only the standard library is used.
"""

from __future__ import annotations

import html
import math
import time
from pathlib import Path

from .histogram import bucket_bounds

__all__ = ["build_report", "render_report", "downsample", "SCHEME_COLORS"]

#: Fixed categorical slots (validated all-pairs CVD-safe): the hue
#: follows the scheme identity across every chart and filter state.
SCHEME_COLORS = {
    "block": "cat1",
    "wrap": "cat2",
    "block-adaptive": "cat3",
}
_EXTRA_SLOTS = ["cat1", "cat2", "cat3"]  # fallback cycle for unknown schemes

_CSS = """
:root {
  --bg: #fcfcfb; --panel: #f4f3f0;
  --ink: #1a1a19; --ink2: #5f5e59; --muted: #8a8984;
  --grid: #e4e3df; --axis: #b9b8b2;
  --cat1: #2a78d6; --cat2: #eb6834; --cat3: #1baf7a;
  --accent: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    --bg: #1a1a19; --panel: #22211f;
    --ink: #f0efea; --ink2: #b3b2ab; --muted: #807f79;
    --grid: #34332f; --axis: #55544e;
    --cat1: #3987e5; --cat2: #d95926; --cat3: #199e70;
    --accent: #3987e5;
  }
}
[data-theme="light"] {
  --bg: #fcfcfb; --panel: #f4f3f0;
  --ink: #1a1a19; --ink2: #5f5e59; --muted: #8a8984;
  --grid: #e4e3df; --axis: #b9b8b2;
  --cat1: #2a78d6; --cat2: #eb6834; --cat3: #1baf7a; --accent: #2a78d6;
}
[data-theme="dark"] {
  --bg: #1a1a19; --panel: #22211f;
  --ink: #f0efea; --ink2: #b3b2ab; --muted: #807f79;
  --grid: #34332f; --axis: #55544e;
  --cat1: #3987e5; --cat2: #d95926; --cat3: #199e70; --accent: #3987e5;
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 24px; max-width: 960px;
  background: var(--bg); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 16px 0 6px; color: var(--ink2); }
.meta { color: var(--ink2); margin: 0 0 4px; }
.meta code { color: var(--ink); background: var(--panel);
  padding: 1px 5px; border-radius: 4px; }
section { margin-bottom: 8px; }
figure { margin: 0; padding: 12px; background: var(--panel);
  border-radius: 8px; }
figcaption { color: var(--ink2); font-size: 12px; margin-bottom: 8px; }
svg text { fill: var(--ink2); font: 11px system-ui, sans-serif; }
svg .lbl { fill: var(--ink); }
svg .axis { stroke: var(--axis); stroke-width: 1; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
.legend { display: flex; gap: 16px; flex-wrap: wrap;
  margin: 6px 0 0; padding: 0; list-style: none; font-size: 12px;
  color: var(--ink); }
.legend .chip { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
details { margin-top: 6px; }
summary { cursor: pointer; color: var(--ink2); font-size: 12px; }
table { border-collapse: collapse; margin-top: 6px; font-size: 12px; }
th, td { text-align: left; padding: 3px 10px 3px 0;
  border-bottom: 1px solid var(--grid); }
th { color: var(--ink2); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.grid2 { display: grid; grid-template-columns: repeat(auto-fill,
  minmax(280px, 1fr)); gap: 12px; }
footer { margin-top: 32px; color: var(--muted); font-size: 12px; }
.delta-up { font-weight: 600; }
"""


# -- small helpers ------------------------------------------------------

def _esc(text) -> str:
    return html.escape(str(text), quote=True)


def _fmt(v: float) -> str:
    """Compact numeric label: 3 significant digits, no exponent noise."""
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    if abs(v) >= 1:
        return f"{v:.3g}"
    return f"{v:.2g}"


def downsample(samples: list, limit: int = 400) -> list:
    """Peak-preserving downsample of ``(t, value)`` pairs.

    Splits the series into ``limit`` chunks and keeps each chunk's
    maximum (plus the first and last raw points), so a memory spike
    narrower than the stride still shows in the rendered curve —
    exactly the property a watermark plot must not lose.
    """
    samples = sorted((float(t), float(v)) for t, v in samples)
    if len(samples) <= limit:
        return samples
    out = [samples[0]]
    chunk = len(samples) / float(limit)
    for i in range(limit):
        lo, hi = int(i * chunk), max(int((i + 1) * chunk), int(i * chunk) + 1)
        window = samples[lo:hi]
        if window:
            out.append(max(window, key=lambda s: s[1]))
    out.append(samples[-1])
    out = sorted(set(out))
    return out


def _table(headers: list[str], rows: list[list], numeric: set[int] = frozenset()) -> str:
    head = "".join(
        f'<th{" class=num" if i in numeric else ""}>{_esc(h)}</th>'
        for i, h in enumerate(headers)
    )
    body = "".join(
        "<tr>" + "".join(
            f'<td{" class=num" if i in numeric else ""}>{_esc(c)}</td>'
            for i, c in enumerate(row)
        ) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _table_view(headers: list[str], rows: list[list],
                numeric: set[int] = frozenset()) -> str:
    return ("<details><summary>table view</summary>"
            + _table(headers, rows, numeric) + "</details>")


def _legend(entries: list[tuple[str, str]]) -> str:
    """``entries``: (label, css color slot like ``cat1``)."""
    items = "".join(
        f'<li><span class="chip" style="background:var(--{slot})"></span>'
        f"{_esc(label)}</li>"
        for label, slot in entries
    )
    return f'<ul class="legend">{items}</ul>'


# -- SVG charts ---------------------------------------------------------

def _ticks(lo: float, hi: float, n: int = 4) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1, 2, 2.5, 5, 10) if s * mag >= raw) * mag
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12:
        out.append(round(t, 10))
        t += step
    return out or [lo, hi]


def _bar_chart(rows: list[tuple[str, float]], unit: str = "ms",
               width: int = 640) -> str:
    """Horizontal bars, one per row, single accent hue (magnitude job)."""
    if not rows:
        return ""
    label_w, bar_h, gap, pad = 170, 16, 6, 8
    vmax = max(v for _, v in rows) or 1.0
    chart_w = width - label_w - 90
    height = pad * 2 + len(rows) * (bar_h + gap) - gap
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'width="100%" preserveAspectRatio="xMinYMin meet">'
    ]
    for i, (label, v) in enumerate(rows):
        y = pad + i * (bar_h + gap)
        w = max(chart_w * v / vmax, 1.5)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 4}" '
            f'text-anchor="end">{_esc(label)}</text>'
        )
        # 4px-rounded data end; a square patch re-anchors the baseline
        # end so only the far end reads as rounded.
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" height="{bar_h}" '
            f'rx="4" fill="var(--accent)"/>'
        )
        if w > 5:
            parts.append(
                f'<rect x="{label_w}" y="{y}" width="4" height="{bar_h}" '
                f'fill="var(--accent)"/>'
            )
        parts.append(
            f'<text x="{label_w + w + 6:.1f}" y="{y + bar_h - 4}" '
            f'class="lbl">{_fmt(v)} {_esc(unit)}</text>'
        )
    parts.append(
        f'<line x1="{label_w}" y1="{pad}" x2="{label_w}" '
        f'y2="{height - pad}" class="axis"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _line_chart(
    series: list[dict],
    *,
    width: int = 640,
    height: int = 240,
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
    markers: bool = True,
) -> str:
    """Multi-series line chart; one y axis, gridlines, no dual axes.

    ``series``: ``[{"label": ..., "slot": "cat1", "points": [(x, y)]}]``.
    """
    series = [s for s in series if s["points"]]
    if not series:
        return ""
    pad_l, pad_r, pad_t, pad_b = 64, 16, 10, 34
    xs = [x for s in series for x, _ in s["points"]]
    ys = [y for s in series for _, y in s["points"]]
    fx = (lambda v: math.log10(v)) if log_x and min(xs) > 0 else (lambda v: v)
    x_lo, x_hi = min(fx(x) for x in xs), max(fx(x) for x in xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    sx = lambda x: pad_l + plot_w * (fx(x) - x_lo) / (x_hi - x_lo)  # noqa: E731
    sy = lambda y: pad_t + plot_h * (1 - (y - y_lo) / (y_hi - y_lo))  # noqa: E731
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'width="100%" preserveAspectRatio="xMinYMin meet">'
    ]
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{pad_l}" y1="{y:.1f}" '
                     f'x2="{width - pad_r}" y2="{y:.1f}" class="grid"/>')
        parts.append(f'<text x="{pad_l - 6}" y="{y + 3.5:.1f}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
    x_tick_vals = sorted(set(xs)) if markers and len(set(xs)) <= 8 else None
    if x_tick_vals is None:
        x_tick_vals = [t for t in _ticks(min(xs), max(xs))
                       if min(xs) <= t <= max(xs)] or [min(xs), max(xs)]
    for t in x_tick_vals:
        x = sx(t)
        parts.append(f'<text x="{x:.1f}" y="{height - pad_b + 14}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    parts.append(f'<line x1="{pad_l}" y1="{height - pad_b}" '
                 f'x2="{width - pad_r}" y2="{height - pad_b}" class="axis"/>')
    parts.append(f'<line x1="{pad_l}" y1="{pad_t}" '
                 f'x2="{pad_l}" y2="{height - pad_b}" class="axis"/>')
    if x_label:
        parts.append(f'<text x="{pad_l + plot_w / 2:.0f}" y="{height - 4}" '
                     f'text-anchor="middle">{_esc(x_label)}</text>')
    if y_label:
        parts.append(f'<text x="12" y="{pad_t + plot_h / 2:.0f}" '
                     f'text-anchor="middle" '
                     f'transform="rotate(-90 12 {pad_t + plot_h / 2:.0f})">'
                     f"{_esc(y_label)}</text>")
    for s in series:
        pts = sorted(s["points"])
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="var(--{s["slot"]})" stroke-width="2" '
                     f'stroke-linejoin="round"/>')
        if markers and len(pts) <= 40:
            for x, y in pts:
                # 2px surface ring keeps overlapping markers separable
                parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                             f'r="4" fill="var(--{s["slot"]})" '
                             f'stroke="var(--panel)" stroke-width="2"/>')
    parts.append("</svg>")
    return "".join(parts)


def _hist_panel(name: str, doc: dict, width: int = 300) -> str:
    """One histogram: bucket bars + the summary stat row."""
    buckets = {int(k): int(v) for k, v in doc.get("buckets", {}).items()}
    finite = sorted(k for k in buckets if k > -(2 ** 30))
    under = sum(v for k, v in buckets.items() if k <= -(2 ** 30))
    bars: list[tuple[str, float]] = []
    if under:
        bars.append(("<=0", under))
    for k in finite:
        lo, _hi = bucket_bounds(k)
        bars.append((_fmt(lo), buckets[k]))
    height, pad = 96, 4
    cmax = max((v for _, v in bars), default=1)
    n = max(len(bars), 1)
    bw = max((width - 2 * pad) / n - 2, 1.5)
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" width="100%">']
    base = height - 18
    for i, (label, v) in enumerate(bars):
        x = pad + i * ((width - 2 * pad) / n)
        h = max((base - 6) * v / cmax, 1.5)
        parts.append(f'<rect x="{x:.1f}" y="{base - h:.1f}" '
                     f'width="{bw:.1f}" height="{h:.1f}" rx="2" '
                     f'fill="var(--accent)"/>')
        if n <= 12 or i % max(1, n // 8) == 0:
            parts.append(f'<text x="{x + bw / 2:.1f}" y="{height - 5}" '
                         f'text-anchor="middle">{_esc(label)}</text>')
    parts.append(f'<line x1="{pad}" y1="{base}" x2="{width - pad}" '
                 f'y2="{base}" class="axis"/>')
    parts.append("</svg>")
    stats = _table(
        ["count", "mean", "p50", "p90", "p99", "max"],
        [[doc.get("count", 0), _fmt(doc.get("mean", 0.0)),
          _fmt(doc.get("p50", 0.0)), _fmt(doc.get("p90", 0.0)),
          _fmt(doc.get("p99", 0.0)), _fmt(doc.get("max", 0.0))]],
        numeric={0, 1, 2, 3, 4, 5},
    )
    return (f"<figure><figcaption>{_esc(name)}</figcaption>"
            + "".join(parts) + stats + "</figure>")


# -- panels -------------------------------------------------------------

def _panel_header(manifest: dict) -> str:
    host = manifest.get("host") or {}
    bits = [
        f"run <code>{_esc(manifest.get('run_id', '?'))}</code>",
        f"kind <code>{_esc(manifest.get('kind', '?'))}</code>",
    ]
    if manifest.get("created"):
        bits.append(_esc(manifest["created"]))
    if manifest.get("git_sha"):
        bits.append(f"git <code>{_esc(str(manifest['git_sha'])[:10])}</code>")
    line2 = []
    if host.get("hostname"):
        line2.append(_esc(host["hostname"]))
    if host.get("platform"):
        line2.append(_esc(host["platform"]))
    if host.get("python"):
        line2.append(f"python {_esc(host['python'])}")
    if host.get("cpus"):
        line2.append(f"{_esc(host['cpus'])} cpus")
    out = "<header><h1>repro run report</h1>"
    out += f'<p class="meta">{" · ".join(bits)}</p>'
    if line2:
        out += f'<p class="meta">{" · ".join(line2)}</p>'
    if manifest.get("config"):
        cfg = ", ".join(f"{_esc(k)}={_esc(v)}"
                        for k, v in sorted(manifest["config"].items()))
        out += f'<p class="meta">config: {cfg}</p>'
    out += "</header>"
    return out


def _panel_stages(manifest: dict) -> str:
    matrices = manifest.get("matrices") or {}
    blocks = []
    for name, doc in sorted(matrices.items()):
        if not isinstance(doc, dict):
            continue
        stages = doc.get("stages") or {}
        if not stages:
            continue
        rows = [(stage, 1e3 * float(t)) for stage, t in stages.items()]
        mem = doc.get("mem_peak_mb")
        caption = f"stage wall time — {_esc(name)}"
        if isinstance(mem, (int, float)):
            caption += f" (peak RSS {_fmt(mem)} MB)"
        tbl = _table_view(["stage", "ms"],
                          [[stage, f"{v:.2f}"] for stage, v in rows], {1})
        blocks.append(f"<figure><figcaption>{caption}</figcaption>"
                      + _bar_chart(rows) + tbl + "</figure>")
    if not blocks:
        return ""
    return "<section id='stages'><h2>Stage timings</h2>" + "".join(blocks) + "</section>"


def _panel_memory(manifest: dict) -> str:
    """The run's RSS timeline."""
    samples = manifest.get("memory") or []
    if len(samples) < 2:
        return ""
    pts = downsample(samples)
    peak_t, peak_v = max(pts, key=lambda s: s[1])
    chart = _line_chart(
        [{"label": "RSS", "slot": "accent", "points": pts}],
        x_label="seconds since start", y_label="RSS MB", markers=False,
    )
    rows = [[f"{t:.3f}", f"{v:.1f}"]
            for t, v in pts[:: max(1, len(pts) // 50)]]
    return ("<section id='memory'><h2>Memory timeline</h2>"
            "<figure><figcaption>resident set size — whole run — "
            f"peak {_fmt(peak_v)} MB at {peak_t:.2f}s "
            f"({len(samples)} samples)</figcaption>"
            + chart + _table_view(["t (s)", "RSS MB"], rows, {0, 1})
            + "</figure></section>")


def _scheme_slot(scheme: str, taken: dict) -> str:
    if scheme in SCHEME_COLORS:
        return SCHEME_COLORS[scheme]
    if scheme not in taken:
        taken[scheme] = _EXTRA_SLOTS[len(taken) % len(_EXTRA_SLOTS)]
    return taken[scheme]


def _panel_sweep(manifest: dict) -> str:
    records = manifest.get("records") or []
    if not records:
        return ""
    by_matrix: dict[str, dict[str, dict[int, list[float]]]] = {}
    for r in records:
        try:
            m, s, p = str(r["matrix"]), str(r["scheme"]), int(r["nprocs"])
            traffic = float(r["traffic_total"])
        except (KeyError, TypeError, ValueError):
            continue
        by_matrix.setdefault(m, {}).setdefault(s, {}).setdefault(p, []).append(traffic)
    blocks = []
    taken: dict[str, str] = {}
    for m, schemes in sorted(by_matrix.items()):
        series, legend, table_rows = [], [], []
        for s, by_p in sorted(schemes.items()):
            slot = _scheme_slot(s, taken)
            pts = [(p, sum(v) / len(v)) for p, v in sorted(by_p.items())]
            series.append({"label": s, "slot": slot, "points": pts})
            legend.append((s, slot))
            table_rows += [[s, p, _fmt(v)] for p, v in pts]
        chart = _line_chart(series, x_label="processors P",
                            y_label="traffic (words)", log_x=True)
        blocks.append(
            f"<figure><figcaption>communication traffic vs P — {_esc(m)} "
            "(mean over grain/width grid)</figcaption>"
            + chart + _legend(legend)
            + _table_view(["scheme", "P", "traffic"], table_rows, {1, 2})
            + "</figure>"
        )
    if not blocks:
        return ""
    return ("<section id='sweep'><h2>Sweep: traffic vs processors</h2>"
            + "".join(blocks) + "</section>")


def _panel_histograms(manifest: dict) -> str:
    hists = manifest.get("histograms") or {}
    panels = [_hist_panel(name, doc) for name, doc in sorted(hists.items())
              if isinstance(doc, dict)]
    if not panels:
        return ""
    return ("<section id='histograms'><h2>Distributions</h2>"
            f'<div class="grid2">{"".join(panels)}</div></section>')


def _panel_profile(manifest: dict) -> str:
    prof = manifest.get("profile") or {}
    top = prof.get("top") or []
    if not top:
        return ""
    rows = [
        [r.get("func", "?"), r.get("span", "?"), r.get("samples", 0),
         f"{r.get('pct', 0.0):.1f}%", f"{1e3 * r.get('est_s', 0.0):.1f}"]
        for r in top
    ]
    cap = (f"{prof.get('nsamples', 0)} samples at "
           f"{_fmt(prof.get('hz', 0))} Hz over "
           f"{_fmt(prof.get('duration_s', 0.0))}s")
    return (
        "<section id='profile'><h2>Profiler self-time (top "
        f"{len(rows)})</h2><figure><figcaption>{cap}</figcaption>"
        + _table(["function", "span", "samples", "self %", "est ms"],
                 rows, {2, 3, 4})
        + "</figure></section>"
    )


def _panel_delta(manifest: dict, previous: dict | None) -> str:
    if previous is None:
        return ""
    from . import runs as obs_runs

    try:
        rows = obs_runs.compare_runs(previous, manifest)
    except Exception:
        return ""
    if not rows:
        return ""
    table_rows = []
    for r in rows:
        base, cur = float(r["baseline_s"]), float(r["current_s"])
        unit = r.get("unit", "s")
        if unit == "mb":
            base_txt, cur_txt = f"{base:.1f} MB", f"{cur:.1f} MB"
        else:
            base_txt, cur_txt = f"{1e3 * base:.2f} ms", f"{1e3 * cur:.2f} ms"
        ratio = cur / base if base > 0 else float("inf")
        mark = "&#9650; slower" if ratio > 1.05 else (
            "&#9660; faster" if ratio < 0.95 else "&#8776; same")
        table_rows.append([
            r.get("matrix", "?"), r.get("stage", "?"),
            base_txt, cur_txt, f"{ratio:.2f}x", mark,
        ])
    cap = (f"previous run <code>{_esc(previous.get('run_id', '?'))}</code>"
           + (f" ({_esc(previous['created'])})" if previous.get("created") else ""))
    return (
        "<section id='delta'><h2>Delta vs previous run</h2>"
        f"<figure><figcaption>{cap}</figcaption>"
        + _table(["matrix", "stage", "baseline", "current", "ratio", ""],
                 table_rows, {2, 3, 4})
        + "</figure></section>"
    )


# -- explain panels (simulated machine, sim-clock domain) ---------------

def _panel_explain_header(ex: dict) -> str:
    rows = [
        ["matrix", ex.get("matrix", ex.get("name", "?"))],
        ["scheme", ex.get("scheme", "?")],
        ["processors", ex.get("nprocs", "?")],
        ["makespan (sim units)", _fmt(float(ex.get("makespan", 0.0)))],
        ["idle fraction", f"{float(ex.get('idle_fraction', 0.0)):.3f}"],
        ["traffic total (= ledger bytes)", ex.get("message_bytes", 0)],
        ["messages", ex.get("n_messages", 0)],
        ["work imbalance λ", f"{float(ex.get('work_imbalance', 0.0)):.3f}"],
    ]
    return (
        "<section id='explain'><h2>Simulated machine</h2>"
        "<figure><figcaption>headline figures — simulated clock "
        "(abstract machine time), not wall clock</figcaption>"
        + _table(["metric", "value"], rows, {1}) + "</figure></section>"
    )


def _panel_comm(ex: dict) -> str:
    """P×P communication heatmap: sequential job, one hue via opacity."""
    links = ex.get("links") or []
    matrix = ex.get("comm_matrix")
    if not links and not matrix:
        return ""
    figures = []
    if matrix:
        n = len(matrix)
        vmax = max((v for row in matrix for v in row), default=0)
        side = 520
        cell = side / max(n, 1)
        parts = [f'<svg viewBox="0 0 {side + 60} {side + 40}" role="img" '
                 f'width="100%" preserveAspectRatio="xMinYMin meet">']
        for p, row in enumerate(matrix):
            for q, v in enumerate(row):
                if not v:
                    continue
                # light→dark single hue: opacity carries the magnitude
                op = 0.15 + 0.85 * (v / vmax) if vmax else 0.0
                parts.append(
                    f'<rect x="{40 + q * cell:.1f}" y="{10 + p * cell:.1f}" '
                    f'width="{max(cell - 0.3, 0.7):.2f}" '
                    f'height="{max(cell - 0.3, 0.7):.2f}" '
                    f'fill="var(--accent)" fill-opacity="{op:.3f}">'
                    f"<title>p{p} &#8592; p{q}: {v} elements</title></rect>"
                )
        parts.append(f'<text x="{40 + side / 2:.0f}" y="{side + 32}" '
                     f'text-anchor="middle">sender q</text>')
        parts.append(f'<text x="12" y="{10 + side / 2:.0f}" text-anchor="middle" '
                     f'transform="rotate(-90 12 {10 + side / 2:.0f})">'
                     "receiver p</text>")
        parts.append(f'<line x1="40" y1="{10 + side}" x2="{40 + side}" '
                     f'y2="{10 + side}" class="axis"/>')
        parts.append(f'<line x1="40" y1="10" x2="40" y2="{10 + side}" '
                     'class="axis"/>')
        parts.append("</svg>")
        used = sum(1 for row in matrix for v in row if v)
        figures.append(
            "<figure><figcaption>communication matrix C[p, q] = elements "
            f"p fetches from q — {used} of {n * n} links used, heaviest "
            f"{_fmt(vmax)} elements (hover a cell for the value)"
            "</figcaption>" + "".join(parts)
            + _table_view(["src", "dst", "elements"],
                          [[l["src"], l["dst"], l["bytes"]] for l in links],
                          {0, 1, 2})
            + "</figure>"
        )
    elif links:
        rows = [(f'p{l["src"]}→p{l["dst"]}', float(l["bytes"])) for l in links]
        figures.append(
            "<figure><figcaption>heaviest links (matrix omitted at this "
            "processor count)</figcaption>"
            + _bar_chart(rows, unit="elements")
            + _table_view(["src", "dst", "elements"],
                          [[l["src"], l["dst"], l["bytes"]] for l in links],
                          {0, 1, 2})
            + "</figure>"
        )
    return ("<section id='comm'><h2>Communication matrix</h2>"
            + "".join(figures) + "</section>")


def _panel_critical_path(ex: dict) -> str:
    cp = ex.get("critical_path") or {}
    units = cp.get("units") or []
    if not units:
        return ""
    length = float(cp.get("length", 0.0)) or 1.0
    compute = float(cp.get("compute", 0.0))
    wait = float(cp.get("wait", 0.0))
    # one stacked bar: compute (cat1) vs wait (cat2), 2px surface gap
    w_total, h = 640, 22
    w_c = (w_total - 2) * compute / length
    bar = (
        f'<svg viewBox="0 0 {w_total} {h + 18}" role="img" width="100%" '
        'preserveAspectRatio="xMinYMin meet">'
        f'<rect x="0" y="0" width="{w_c:.1f}" height="{h}" rx="4" '
        'fill="var(--cat1)"/>'
        f'<rect x="{w_c + 2:.1f}" y="0" width="{w_total - w_c - 2:.1f}" '
        f'height="{h}" rx="4" fill="var(--cat2)"/>'
        f'<text x="0" y="{h + 14}">compute {_fmt(compute)} '
        f"({100 * compute / length:.0f}%) · wait {_fmt(wait)} "
        f"({100 * wait / length:.0f}%)</text></svg>"
    )
    edge_counts: dict[str, int] = {}
    for u in units:
        e = u.get("edge", "?")
        if e != "start":
            edge_counts[e] = edge_counts.get(e, 0) + 1
    edges_txt = ", ".join(f"{k}&#215;{v}" for k, v in sorted(edge_counts.items()))
    shown = units[-40:]
    rows = [[u["uid"], f'p{u["proc"]}', u["stage"], u.get("kind", "?"),
             _fmt(float(u["start"])), _fmt(float(u["finish"])), u["edge"]]
            for u in shown]
    trunc = " (truncated)" if cp.get("truncated") else ""
    cap = (f"{cp.get('n_units', len(units))} units{trunc}, length "
           f"{_fmt(length)} = simulated makespan; links: {edges_txt or '-'}")
    return (
        "<section id='critical-path'><h2>Critical path</h2>"
        f"<figure><figcaption>{cap}</figcaption>" + bar
        + _legend([("compute", "cat1"), ("wait", "cat2")])
        + "<details><summary>last "
        + str(len(shown)) + " units</summary>"
        + _table(["uid", "proc", "stage", "kind", "start", "finish",
                  "released by"], rows, {0, 2, 4, 5})
        + "</details></figure></section>"
    )


def _panel_imbalance(ex: dict) -> str:
    imb = ex.get("imbalance") or {}
    stages = imb.get("stages") or []
    if not stages:
        return ""
    lam = float(imb.get("lambda", 0.0))
    p_star = imb.get("proc", "?")
    # waterfall: per-stage excess of the peak processor vs the stage
    # mean — diverging job, cat2 above zero / cat1 below
    w_total, bar_w_pad, h = 640, 2, 160
    n = len(stages)
    bw = max((w_total - 60) / max(n, 1) - bar_w_pad, 1.5)
    vmax = max((abs(float(s["excess"])) for s in stages), default=1.0) or 1.0
    mid = h / 2
    parts = [f'<svg viewBox="0 0 {w_total} {h + 22}" role="img" width="100%" '
             'preserveAspectRatio="xMinYMin meet">']
    parts.append(f'<line x1="40" y1="{mid}" x2="{w_total - 10}" y2="{mid}" '
                 'class="axis"/>')
    for i, s in enumerate(stages):
        v = float(s["excess"])
        x = 45 + i * (bw + bar_w_pad)
        bh = (mid - 12) * abs(v) / vmax
        y = mid - bh if v >= 0 else mid
        slot = "cat2" if v >= 0 else "cat1"
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bw:.1f}" '
            f'height="{max(bh, 0.8):.1f}" rx="2" fill="var(--{slot})">'
            f'<title>stage {s["stage"]}: excess {_fmt(v)}, '
            f'stage λ {float(s.get("lambda_s", 0.0)):.2f}</title></rect>'
        )
        if n <= 16 or i % max(1, n // 12) == 0:
            parts.append(f'<text x="{x + bw / 2:.1f}" y="{h + 16}" '
                         f'text-anchor="middle">{_esc(s["stage"])}</text>')
    parts.append(f'<text x="40" y="{h + 16}">stage</text>')
    parts.append("</svg>")
    culprits = imb.get("culprits") or []
    rows = [[s["stage"], _fmt(float(s["excess"])), _fmt(float(s["peak_work"])),
             _fmt(float(s["mean_work"])), f'{float(s.get("lambda_s", 0.0)):.3f}']
            for s in sorted(stages, key=lambda r: -float(r["excess"]))]
    out = (
        "<section id='imbalance'><h2>Imbalance attribution</h2>"
        f"<figure><figcaption>λ = {lam:.3f}, peak processor p{_esc(p_star)}; "
        "bars show each stage's peak-processor excess over the stage mean "
        "(Σ = λ·W<sub>ave</sub>)</figcaption>"
        + "".join(parts)
        + _legend([("excess (above mean)", "cat2"), ("deficit", "cat1")])
        + _table_view(["stage", "excess", "peak work", "mean work", "stage λ"],
                      rows, {0, 1, 2, 3, 4})
        + "</figure>"
    )
    if culprits:
        out += (
            "<figure><figcaption>heaviest blocks on the peak processor"
            "</figcaption>"
            + _table(["uid", "stage", "kind", "work"],
                     [[c["uid"], c["stage"], c.get("kind", "?"),
                       _fmt(float(c["work"]))] for c in culprits],
                     {0, 1, 3})
            + "</figure>"
        )
    return out + "</section>"


def _panel_proc_times(ex: dict) -> str:
    pt = ex.get("proc_times") or {}
    busy, wait, idle = pt.get("busy"), pt.get("wait"), pt.get("idle")
    if not busy:
        return ""
    makespan = float(ex.get("makespan", 0.0)) or 1.0
    n = len(busy)
    w_total, h = 640, 170
    bw = max((w_total - 50) / max(n, 1) - 2, 1.0)
    parts = [f'<svg viewBox="0 0 {w_total} {h + 22}" role="img" width="100%" '
             'preserveAspectRatio="xMinYMin meet">']
    for p in range(n):
        x = 45 + p * (bw + 2)
        y = 10.0
        segs = [(float(busy[p]), "cat1"), (float(wait[p]), "cat2"),
                (float(idle[p]), "grid")]
        tip = (f"p{p}: busy {_fmt(segs[0][0])}, wait {_fmt(segs[1][0])}, "
               f"idle {_fmt(segs[2][0])}")
        for v, slot in segs:
            sh = (h - 10) * v / makespan
            if sh <= 0:
                continue
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bw:.1f}" '
                f'height="{max(sh - 2, 0.8):.1f}" rx="2" '
                f'fill="var(--{slot})"><title>{tip}</title></rect>'
            )
            y += sh
        if n <= 16 or p % max(1, n // 12) == 0:
            parts.append(f'<text x="{x + bw / 2:.1f}" y="{h + 16}" '
                         f'text-anchor="middle">{p}</text>')
    parts.append(f'<text x="40" y="{h + 16}">proc</text>')
    parts.append("</svg>")
    rows = [[p, _fmt(float(busy[p])), _fmt(float(wait[p])),
             _fmt(float(idle[p]))] for p in range(n)]
    return (
        "<section id='proc-times'><h2>Processor time</h2>"
        "<figure><figcaption>per-processor makespan decomposition "
        "(busy + wait + idle = makespan, top to bottom)</figcaption>"
        + "".join(parts)
        + _legend([("busy", "cat1"), ("wait", "cat2"), ("idle", "grid")])
        + _table_view(["proc", "busy", "wait", "idle"], rows, {0, 1, 2, 3})
        + "</figure></section>"
    )


def _panels_explain(manifest: dict) -> str:
    ex = manifest.get("explain")
    if not isinstance(ex, dict):
        return ""
    return (
        _panel_explain_header(ex)
        + _panel_comm(ex)
        + _panel_critical_path(ex)
        + _panel_imbalance(ex)
        + _panel_proc_times(ex)
    )


# -- assembly -----------------------------------------------------------

def build_report(manifest: dict, previous: dict | None = None) -> str:
    """Render one manifest (plus an optional prior run for the delta
    panel) into a complete, self-contained HTML document string."""
    panels = [
        _panel_header(manifest),
        "<main>",
        _panel_stages(manifest),
        _panels_explain(manifest),
        _panel_memory(manifest),
        _panel_sweep(manifest),
        _panel_histograms(manifest),
        _panel_profile(manifest),
        _panel_delta(manifest, previous),
        "</main>",
    ]
    body = "".join(p for p in panels if p)
    if "<section" not in body:
        body += ("<main><p class='meta'>This run manifest carries no "
                 "renderable panels (no stage timings, memory samples, "
                 "sweep records, histograms or profile).</p></main>")
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    title = f"repro run report — {manifest.get('run_id', 'run')}"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n<body>\n"
        + body
        + f"\n<footer>generated {stamp} · self-contained (no external "
          "resources) · python -m repro report</footer>\n</body></html>\n"
    )


def render_report(
    ref: str | None = None,
    runs_dir=None,
    out: str | Path = "REPORT.html",
) -> Path:
    """Load a run (``ref`` as in ``runs show``; ``None`` = latest),
    pair it with the prior run of the same kind for the delta panel,
    and write the HTML report to ``out``.  Returns the output path."""
    from . import runs as obs_runs

    manifest = obs_runs.load_run(ref if ref else "latest", runs_dir)
    previous = None
    kind = manifest.get("kind")
    if kind:
        same_kind = obs_runs.list_runs(runs_dir, kind)
        earlier = [m for m in same_kind
                   if m.get("created_unix", 0) < manifest.get("created_unix", 0)
                   and m.get("run_id") != manifest.get("run_id")]
        if earlier:
            previous = earlier[-1]
    out = Path(out)
    out.write_text(build_report(manifest, previous))
    return out

"""Self-contained HTML dashboard for one run (zero dependencies).

``repro report --html OUT.html`` renders everything a reviewer needs to
assess a run into one file: stdlib string templating plus inline SVG
for the charts, so the artifact opens anywhere — CI artifact viewers,
air-gapped machines — without a JS toolchain or network access.

Inputs are the artifacts the CLI already writes, all optional (the
dashboard renders whichever sections have data):

- a run ledger parsed by :func:`repro.obs.read_ledger` — manifest
  provenance, per-cell metric/outcome tables, resilience summary;
- an events list from :func:`repro.obs.read_events` — the prefetch
  lifecycle funnel, via the same :mod:`repro.harness.reporting`
  helper the ASCII report uses;
- a ``--metrics-out`` snapshot dict — phase-timing and DRAM queue-wait
  histograms.
"""

from __future__ import annotations

import html
import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .reporting import lifecycle_counts

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4361ee; padding-bottom: 0.2em; }
h2 { color: #3a0ca3; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #cbd5e1; padding: 0.3em 0.7em;
         text-align: right; }
th { background: #eef2ff; }
td:first-child, th:first-child { text-align: left; }
.bad { background: #fee2e2; }
.ok { background: #dcfce7; }
dl.manifest { display: grid; grid-template-columns: max-content auto;
              gap: 0.2em 1em; }
dl.manifest dt { font-weight: 600; }
dl.manifest dd { margin: 0; font-family: monospace; }
svg text { font-family: system-ui, sans-serif; }
""".strip()


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _table(headers: Sequence[str], rows: Iterable[Sequence[object]],
           row_classes: Optional[Sequence[str]] = None) -> str:
    parts = ["<table>", "<tr>"]
    parts.extend(f"<th>{_esc(h)}</th>" for h in headers)
    parts.append("</tr>")
    for index, row in enumerate(rows):
        css = (row_classes[index] if row_classes
               and index < len(row_classes) else "")
        parts.append(f'<tr class="{_esc(css)}">' if css else "<tr>")
        parts.extend(f"<td>{_esc(_fmt(cell))}</td>" for cell in row)
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _bar_svg(pairs: Sequence[Tuple[str, float]], unit: str = "",
             width: int = 640) -> str:
    """A horizontal inline-SVG bar chart (no JS, no external assets).

    Degenerate inputs — no pairs at all, a single bucket, all-zero or
    non-finite values — must render valid markup rather than emitting
    ``NaN``/``inf`` SVG coordinates, so values are filtered to finite
    non-negatives first and the peak is clamped to a positive number.
    """
    pairs = [(label, float(value)) for label, value in pairs
             if isinstance(value, (int, float))
             and not isinstance(value, bool) and math.isfinite(value)
             and value >= 0]
    if not pairs:
        return "<p>(no data)</p>"
    peak = max(value for _, value in pairs) or 1.0
    bar_h, gap, label_w = 18, 6, 220
    height = len(pairs) * (bar_h + gap) + gap
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    for i, (label, value) in enumerate(pairs):
        y = gap + i * (bar_h + gap)
        bar = max(1.0, (width - label_w - 90) * value / peak)
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 4}" '
            f'text-anchor="end" font-size="12">{_esc(label)}</text>')
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{bar:.1f}" '
            f'height="{bar_h}" fill="#4361ee"></rect>')
        parts.append(
            f'<text x="{label_w + bar + 6:.1f}" y="{y + bar_h - 4}" '
            f'font-size="12">{_esc(_fmt(value))}{_esc(unit)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _manifest_section(manifest: Dict) -> str:
    git = manifest.get("git") or {}
    sha = git.get("sha") or "unknown"
    dirty = git.get("dirty")
    git_label = sha if not isinstance(sha, str) else sha[:12]
    if dirty:
        git_label = f"{git_label} (dirty)"
    fields = [
        ("run id", manifest.get("run_id", "?")),
        ("command", manifest.get("command", "?")),
        ("started (UTC)", manifest.get("timestamp_utc", "?")),
        ("git", git_label),
        ("config fingerprint", manifest.get("config_fingerprint", "?")),
        ("seeds", manifest.get("seeds")),
        ("argv", " ".join(map(str, manifest.get("argv") or []))),
        ("python", manifest.get("python", "?")),
        ("platform", manifest.get("platform", "?")),
    ]
    items = "".join(f"<dt>{_esc(k)}</dt><dd>{_esc(v)}</dd>"
                    for k, v in fields if v is not None)
    return f'<h2>Run manifest</h2><dl class="manifest">{items}</dl>'


def _cells_section(cells: List[Dict]) -> str:
    headers = ["cell", "workload", "prefetcher", "speedup", "accuracy",
               "coverage", "issued", "useful", "late", "outcome",
               "attempts"]
    rows, classes = [], []
    for cell in cells:
        metrics = cell.get("metrics") or {}
        outcome = cell.get("outcome", "ok")
        rows.append([
            cell.get("cell", "?"), cell.get("workload", "?"),
            cell.get("prefetcher", "?"), metrics.get("speedup", 0.0),
            metrics.get("accuracy", 0.0), metrics.get("coverage", 0.0),
            metrics.get("issued", 0), metrics.get("useful", 0),
            metrics.get("late", 0), outcome, cell.get("attempts", 1)])
        classes.append("bad" if outcome in ("failed", "quarantined")
                       else "")
    return ("<h2>Grid cells</h2>"
            + _table(headers, rows, row_classes=classes))


def _prefetcher_section(cells: List[Dict]) -> str:
    """Mean coverage/accuracy/timeliness per prefetcher across cells.

    Timeliness is the on-time fraction of useful prefetches:
    ``1 - late / useful`` (``pf_useful`` already counts late fills).
    """
    grouped: Dict[str, List[Dict]] = defaultdict(list)
    for cell in cells:
        grouped[str(cell.get("prefetcher", "?"))].append(
            cell.get("metrics") or {})
    rows = []
    for name in sorted(grouped):
        metrics = grouped[name]
        n = len(metrics)
        useful = sum(m.get("useful", 0) for m in metrics)
        late = sum(m.get("late", 0) for m in metrics)
        rows.append([
            name, n,
            sum(m.get("accuracy", 0.0) for m in metrics) / n,
            sum(m.get("coverage", 0.0) for m in metrics) / n,
            (1.0 - late / useful) if useful else 0.0,
            sum(m.get("issued", 0) for m in metrics),
        ])
    return ("<h2>Per-prefetcher summary</h2>"
            + _table(["prefetcher", "cells", "mean accuracy",
                      "mean coverage", "timeliness", "issued"], rows))


def _ranking_section(cells: List[Dict]) -> str:
    """Prefetcher ranking by speedup, with CI whiskers + sig. groups.

    Pools per-cell speedups across seeds/workloads per prefetcher and
    runs :func:`repro.harness.stats.rank_groups` (Holm-corrected
    all-pairs Mann-Whitney).  Prefetchers sharing a group letter are
    *not* statistically distinguishable at α=0.05 — the table says so
    explicitly so a reader never over-interprets a rank ordering that
    the data cannot support.  Needs at least two prefetchers with
    :data:`~repro.harness.stats.MIN_SAMPLES_FOR_STATS` speedup samples
    each; otherwise the section is omitted.
    """
    from . import stats as st

    samples: Dict[str, List[float]] = defaultdict(list)
    for cell in cells:
        if cell.get("outcome") in ("failed", "quarantined"):
            continue
        metrics = cell.get("metrics") or {}
        if "speedup" in metrics:
            samples[str(cell.get("prefetcher", "?"))].append(
                float(metrics["speedup"]))
    usable = {name: vals for name, vals in samples.items()
              if len(vals) >= st.MIN_SAMPLES_FOR_STATS}
    if len(usable) < 2:
        return ""
    entries = st.rank_groups(usable, higher_is_better=True)
    lo = min(e.ci_low for e in entries)
    hi = max(e.ci_high for e in entries)
    span = (hi - lo) or 1.0
    width, label_w, row_h, gap, pad = 640, 220, 18, 6, 60

    def x(value: float) -> float:
        return label_w + (width - label_w - pad) * (value - lo) / span

    parts = [f'<svg width="{width}" '
             f'height="{len(entries) * (row_h + gap) + gap}" role="img">']
    for i, e in enumerate(entries):
        y = gap + i * (row_h + gap)
        mid = y + row_h / 2
        parts.append(
            f'<text x="{label_w - 6}" y="{y + row_h - 4}" '
            f'text-anchor="end" font-size="12">{_esc(e.name)}</text>')
        parts.append(  # CI whisker
            f'<line x1="{x(e.ci_low):.1f}" y1="{mid:.1f}" '
            f'x2="{x(e.ci_high):.1f}" y2="{mid:.1f}" '
            f'stroke="#94a3b8" stroke-width="2"></line>')
        for bound in (e.ci_low, e.ci_high):
            parts.append(
                f'<line x1="{x(bound):.1f}" y1="{mid - 5:.1f}" '
                f'x2="{x(bound):.1f}" y2="{mid + 5:.1f}" '
                f'stroke="#94a3b8" stroke-width="2"></line>')
        parts.append(  # mean tick
            f'<line x1="{x(e.mean):.1f}" y1="{y + 2}" '
            f'x2="{x(e.mean):.1f}" y2="{y + row_h - 2}" '
            f'stroke="#4361ee" stroke-width="3"></line>')
        parts.append(
            f'<text x="{x(e.ci_high) + 8:.1f}" y="{y + row_h - 4}" '
            f'font-size="12">{_esc(e.group)}</text>')
    parts.append("</svg>")
    rows = [[e.rank, e.name, e.n, e.mean, e.ci_low, e.ci_high, e.group]
            for e in entries]
    return ("<h2>Prefetcher ranking (speedup)</h2>"
            + "".join(parts)
            + _table(["rank", "prefetcher", "n", "mean speedup",
                      "CI95 low", "CI95 high", "group"], rows)
            + "<p>Prefetchers sharing a group letter are not "
              "statistically distinguishable (Holm-corrected "
              "Mann-Whitney, &alpha;=0.05); whiskers are seeded "
              "bootstrap 95% CIs of the mean.</p>")


def _funnel_section(events: List[Dict]) -> str:
    funnel = lifecycle_counts(events)
    if not any(funnel.values()):
        return ""
    pairs = [(name, float(count)) for name, count in funnel.items()]
    return ("<h2>Prefetch lifecycle funnel</h2>"
            + _bar_svg(pairs)
            + _table(["stage", "events"], funnel.items()))


def _histogram_sections(metrics: Dict) -> str:
    histograms = (metrics.get("metrics", metrics) or {}).get(
        "histograms") or {}
    parts = []
    for key in sorted(histograms):
        snap = histograms[key]
        buckets = snap.get("buckets") or {}
        pairs = [(bound, float(count)) for bound, count in buckets.items()
                 if count]
        if not pairs:
            continue
        parts.append(f"<h2>Histogram: {_esc(key)}</h2>")
        parts.append(
            f"<p>count={_fmt(snap.get('count', 0))} "
            f"mean={_fmt(snap.get('mean', 0.0))} "
            f"p50={_fmt(snap.get('p50', 0.0))} "
            f"p99={_fmt(snap.get('p99', 0.0))} "
            f"max={_fmt(snap.get('max', 0.0))}</p>")
        parts.append(_bar_svg(pairs))
    return "".join(parts)


def _flatten_profile(node: Dict, prefix: str = ""
                     ) -> List[Tuple[str, float, int]]:
    """``(dotted.path, wall_s, calls)`` rows from a profile-report tree."""
    flat: List[Tuple[str, float, int]] = []
    for child in node.get("children") or []:
        path = f"{prefix}{child.get('name', '?')}"
        flat.append((path, float(child.get("wall_s", 0.0)),
                     int(child.get("calls", 0))))
        flat.extend(_flatten_profile(child, path + "."))
    return flat


def _profile_section(metrics: Dict) -> str:
    profile = metrics.get("profile")
    if not isinstance(profile, dict):
        return ""
    phases = _flatten_profile(profile)
    if not phases:
        return ""
    pairs = [(path, wall_s) for path, wall_s, _ in phases]
    rows = [[path, calls, wall_s] for path, wall_s, calls in phases]
    return ("<h2>Phase timings</h2>" + _bar_svg(pairs, unit="s")
            + _table(["phase", "calls", "wall s"], rows))


_SERIES_PALETTE = ("#4361ee", "#e63946", "#2a9d8f", "#f4a261",
                   "#7209b7", "#588157")


def _line_svg(lines: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
              caption: str = "", boundaries: Sequence[float] = (),
              width: int = 640, height: int = 160) -> str:
    """An inline-SVG line chart over ``(x, y)`` points.

    ``lines`` is ``[(label, points), ...]``; ``boundaries`` are x
    positions drawn as red vertical markers (phase changes).  Shares
    the bar chart's degeneracy rules: non-finite points are dropped
    and a chart with no plottable line renders a placeholder.
    """
    clean: List[Tuple[str, List[Tuple[float, float]]]] = []
    for label, points in lines:
        good = [(float(x), float(y)) for x, y in points
                if math.isfinite(float(x)) and math.isfinite(float(y))]
        if len(good) >= 2:
            clean.append((label, good))
    if not clean:
        return "<p>(no data)</p>"
    x_lo = min(p[0] for _, pts in clean for p in pts)
    x_hi = max(p[0] for _, pts in clean for p in pts)
    y_hi = max((p[1] for _, pts in clean for p in pts), default=0.0)
    x_span = (x_hi - x_lo) or 1.0
    y_peak = y_hi or 1.0
    pad = 30
    parts = [f'<svg width="{width + 180}" height="{height}" role="img">']

    def sx(x: float) -> float:
        return pad + (width - 2 * pad) * (x - x_lo) / x_span

    def sy(y: float) -> float:
        return height - pad - (height - 2 * pad) * y / y_peak

    for x in boundaries:
        x = float(x)
        if not math.isfinite(x) or not x_lo <= x <= x_hi:
            continue
        parts.append(
            f'<line x1="{sx(x):.1f}" y1="{pad / 2:.1f}" '
            f'x2="{sx(x):.1f}" y2="{height - pad:.1f}" '
            'stroke="#e63946" stroke-width="1.5" '
            'stroke-dasharray="4 3"></line>')
    for color_i, (label, points) in enumerate(clean):
        color = _SERIES_PALETTE[color_i % len(_SERIES_PALETTE)]
        polyline = " ".join(f"{sx(x):.1f},{sy(y):.1f}"
                            for x, y in points)
        parts.append(f'<polyline points="{polyline}" fill="none" '
                     f'stroke="{color}" stroke-width="2"></polyline>')
        parts.append(
            f'<text x="{width + 6}" y="{pad + color_i * 16}" '
            f'font-size="12" fill="{color}">{_esc(label)}</text>')
    if caption:
        parts.append(f'<text x="{pad}" y="{height - 8}" '
                     f'font-size="11">{_esc(caption)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _series_groups(series: List[Dict]
                   ) -> "Dict[Tuple[str, str, str], Dict[str, Dict]]":
    """Index series records by (prefetcher, trace, cell) then name."""
    groups: Dict[Tuple[str, str, str], Dict[str, Dict]] = {}
    for record in series:
        labels = record.get("labels") or {}
        key = (str(labels.get("prefetcher", "?")),
               str(labels.get("trace", "?")),
               str(labels.get("cell", "")))
        groups.setdefault(key, {})[str(record.get("name", "?"))] = record
    return groups


def _series_sections(series: List[Dict]) -> str:
    """Windowed-telemetry sections from a ``--series`` snapshot.

    Three views of the same JSONL records: per-cell learning-curve
    sparklines (PATHFINDER prediction accuracy per window),
    phase-annotated demand miss-rate strips (mean-shift boundaries in
    red, from :func:`repro.obs.timeseries.detect_phases`), and an
    adaptation-lag table (windows from each phase boundary until the
    accuracy series recovers its pre-boundary level).
    """
    from bisect import bisect_left

    from ..obs.timeseries import adaptation_lag, detect_phases, rate_points

    groups = _series_groups(series)
    curve_lines: List[Tuple[str, List[Tuple[float, float]]]] = []
    strips: List[str] = []
    lag_rows: List[List[object]] = []
    for key in sorted(groups):
        prefetcher, trace, cell = key
        names = groups[key]
        label = cell or f"{prefetcher}/{trace}"
        accuracy: List[Tuple[int, float]] = []
        correct = names.get("gen.pred_correct")
        checked = names.get("gen.pred_checked")
        if correct and checked:
            accuracy = rate_points(correct, checked)
            if len(accuracy) >= 2:
                curve_lines.append(
                    (label, [(float(s), v) for s, v in accuracy]))
        misses = names.get("replay.llc_misses")
        l1_hits = names.get("replay.l1_hits")
        l1_misses = names.get("replay.l1_misses")
        if not (misses and l1_hits and l1_misses):
            continue
        accesses = {start: value
                    for start, value in l1_hits["points"]}
        for start, value in l1_misses["points"]:
            accesses[start] = accesses.get(start, 0) + value
        starts: List[int] = []
        values: List[float] = []
        for start, value in misses["points"]:
            total = accesses.get(start)
            if total:
                starts.append(int(start))
                values.append(value / total)
        if len(values) < 2:
            continue
        boundaries = detect_phases(values)
        acc_starts = [s for s, _ in accuracy]
        acc_values = [v for _, v in accuracy]
        for boundary in boundaries:
            lag: Optional[int] = None
            if acc_values:
                lag = adaptation_lag(
                    acc_values, bisect_left(acc_starts, starts[boundary]))
            lag_rows.append([label, prefetcher, trace, starts[boundary],
                             values[boundary - 1], values[boundary],
                             "never" if lag is None else lag])
        strips.append(
            f"<h3>{_esc(label)} &mdash; {_esc(prefetcher)} on "
            f"{_esc(trace)}</h3>"
            + _line_svg(
                [("demand miss rate",
                  [(float(s), v) for s, v in zip(starts, values)])],
                caption=f"per-window LLC miss rate; "
                        f"{len(boundaries)} phase boundary(ies)",
                boundaries=[float(starts[b]) for b in boundaries]))
    parts: List[str] = []
    if curve_lines:
        parts.append(
            "<h2>Learning curves (prediction accuracy)</h2>"
            + _line_svg(curve_lines,
                        caption="per-window prediction accuracy "
                                "(correct / checked) by access index"))
    if strips:
        parts.append("<h2>Phase-annotated miss rate</h2>"
                     + "".join(strips))
    if lag_rows:
        parts.append(
            "<h2>Adaptation lag</h2>"
            + _table(["cell", "prefetcher", "trace", "phase @ access",
                      "miss rate before", "miss rate after",
                      "lag (windows)"], lag_rows)
            + "<p>Lag counts windows from a detected miss-rate phase "
              "boundary until prediction accuracy recovers its "
              "pre-boundary mean (tolerance 0.05); &ldquo;never&rdquo; "
              "means it did not recover within the trace.</p>")
    return "".join(parts)


def _campaign_section(campaign: Dict) -> str:
    """Live campaign state: timeline, per-worker throughput, faults.

    ``campaign`` is a :func:`repro.campaign.supervisor.campaign_summary`
    snapshot — built from the queue event log and ledger, both of which
    tolerate in-flight appends, so this section regenerates correctly
    *mid-campaign*.  Its one chart is the campaign timeline that the
    summary derives from ``queue.jsonl``.
    """
    counts = campaign.get("counts") or {}
    total = int(campaign.get("cells") or 0)
    state = ("complete" if campaign.get("finished")
             else "in progress / interrupted")
    parts = [
        "<h2>Campaign</h2>",
        f"<p>campaign <b>{_esc(campaign.get('name', '?'))}</b> "
        f"(run {_esc(campaign.get('run_id', '?'))}): {state} &mdash; "
        f"{_fmt(counts.get('done', 0))} done, "
        f"{_fmt(counts.get('leased', 0))} leased, "
        f"{_fmt(counts.get('pending', 0))} pending, "
        f"{_fmt(counts.get('quarantined', 0))} quarantined "
        f"of {total} cell(s).</p>"]
    if campaign.get("fault_spec"):
        parts.append(f"<p>armed faults: "
                     f"<code>{_esc(campaign['fault_spec'])}</code></p>")

    timeline = campaign.get("timeline") or []
    if len(timeline) >= 2:
        # Derived from queue.jsonl: one point per cell state change.
        def _points(field: str) -> List[Tuple[float, float]]:
            return [(float(point["t"]), float(point[field]))
                    for point in timeline]

        parts.append(
            "<h3>Campaign timeline</h3>"
            + _line_svg(
                [("queue depth", _points("queue_depth")),
                 ("done", _points("done")),
                 ("retries", _points("retries")),
                 ("quarantined", _points("quarantined"))],
                caption=f"{len(timeline)} queue state change(s) over "
                        f"{float(timeline[-1]['t']):.1f}s"))

    per_worker = campaign.get("per_worker") or {}
    if per_worker:
        parts.append("<h3>Per-worker throughput</h3>"
                     + _table(["worker", "cells completed"],
                              sorted(per_worker.items())))
    parts.append("<h3>Campaign resilience</h3>" + _table(
        ["event", "count"],
        [["retries", campaign.get("retries", 0)],
         ["lease expirations", campaign.get("expirations", 0)],
         ["quarantined cells", counts.get("quarantined", 0)],
         ["torn queue events", campaign.get("torn_events", 0)]]))
    quarantined = campaign.get("quarantined") or []
    if quarantined:
        rows = [[q.get("index"), q.get("workload"), q.get("prefetcher"),
                 q.get("seed"), q.get("attempts"), q.get("error", "")]
                for q in quarantined]
        parts.append(
            "<h3>Quarantined (poison) cells</h3>"
            + _table(["index", "workload", "prefetcher", "seed",
                      "attempts", "last error"], rows,
                     row_classes=["bad"] * len(rows)))
    return "".join(parts)


def _finish_section(finish: Optional[Dict]) -> str:
    if finish is None:
        return ('<h2>Run status</h2><p class="bad">No finish record — '
                "this run crashed or was interrupted.</p>")
    parts = [f"<h2>Run status</h2><p>status={_esc(finish.get('status'))} "
             f"wall={_fmt(finish.get('wall_s', 0.0))}s</p>"]
    resilience = finish.get("resilience")
    if resilience:
        # CampaignStats.to_dict(): grids and campaigns share the schema.
        rows = [[key.replace("_", " "), value]
                for key, value in resilience.items()]
        parts.append("<h3>Resilience</h3>"
                     + _table(["event", "count"], rows))
    return "".join(parts)


def render_dashboard(ledger: Optional[Dict] = None,
                     events: Optional[List[Dict]] = None,
                     metrics: Optional[Dict] = None,
                     campaign: Optional[Dict] = None,
                     series: Optional[List[Dict]] = None,
                     title: str = "repro run dashboard") -> str:
    """Render the artifacts of one run as a single HTML document.

    Any subset of inputs may be ``None``; the corresponding sections
    are simply omitted.  The output embeds its own CSS and SVG — no
    scripts, no external fetches.  ``campaign`` is a
    :func:`repro.campaign.supervisor.campaign_summary` snapshot, safe
    to regenerate while the campaign is still running; its timeline
    (queue depth, done, retries and quarantined over wall time) comes
    from ``queue.jsonl``.  ``series`` is a list of windowed time-series
    records from :func:`repro.obs.read_series` (a ``--series`` run) —
    it renders the learning-curve section, and the phase annotations
    and adaptation lags, which are computed here from those records
    and nowhere else.
    """
    sections: List[str] = []
    if campaign:
        sections.append(_campaign_section(campaign))
    if series:
        sections.append(_series_sections(series))
    if ledger:
        manifest = ledger.get("manifest")
        if manifest:
            sections.append(_manifest_section(manifest))
        cells = ledger.get("cells") or []
        if cells:
            sections.append(_prefetcher_section(cells))
            sections.append(_ranking_section(cells))
            sections.append(_cells_section(cells))
        experiments = ledger.get("experiments") or []
        if experiments:
            rows = [[e.get("experiment_id", "?"), e.get("title", ""),
                     len(e.get("metrics") or {})] for e in experiments]
            sections.append("<h2>Experiments</h2>" + _table(
                ["experiment", "title", "#metrics"], rows))
        sections.append(_finish_section(ledger.get("finish")))
    if events:
        sections.append(_funnel_section(events))
    if metrics:
        sections.append(_profile_section(metrics))
        sections.append(_histogram_sections(metrics))
    if not any(sections):
        sections.append("<p>(no artifacts supplied)</p>")
    body = "\n".join(part for part in sections if part)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}</style></head>\n"
        f"<body><h1>{_esc(title)}</h1>\n{body}\n</body></html>\n")


def write_dashboard(path, ledger: Optional[Dict] = None,
                    events: Optional[List[Dict]] = None,
                    metrics: Optional[Dict] = None,
                    campaign: Optional[Dict] = None,
                    series: Optional[List[Dict]] = None,
                    title: str = "repro run dashboard") -> None:
    """Render and atomically write the dashboard to ``path``."""
    from ..resilience.atomic import atomic_write_text

    atomic_write_text(path, render_dashboard(
        ledger=ledger, events=events, metrics=metrics,
        campaign=campaign, series=series, title=title))

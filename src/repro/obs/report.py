"""Self-contained HTML / Markdown run reports.

One reviewable artifact per run: ledger records, merged metrics, trace
summaries, ground-truth scorecards, ROC sweeps, per-epoch trust
trajectories, and assumption-drift warnings, rendered into a single
file with **zero external references** -- styling is inline CSS and
every chart is an inline SVG, so the file can be archived as a CI
artifact, attached to a review, or opened years later offline.

The renderer consumes a plain :class:`ReportData` container; the CLI's
``repro-rating report`` subcommand assembles one from a seeded challenge
scenario, and a ``--run-dir`` bundle's ``report.html`` is assembled from
whatever the invocation's registry collected (:func:`report_from_registry`).
Output format follows the file extension: ``.md`` / ``.markdown`` get
Markdown, everything else HTML.
"""

from __future__ import annotations

import html
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.quality import ConfusionCounts
from repro.obs.registry import MetricsRegistry

__all__ = [
    "ReportData",
    "RocSweep",
    "confusion_from_counters",
    "report_from_registry",
    "render_html",
    "render_markdown",
    "svg_sparkline",
    "svg_roc",
    "write_report",
]

#: Quality counter cells recognized by :func:`confusion_from_counters`.
_CELLS = ("tp", "fp", "fn", "tn")


# --------------------------------------------------------------------- #
# Data model
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RocSweep:
    """One sensitivity sweep summarized for the report.

    ``points`` rows are ``(parameter_value, false_alarm_rate, recall)``.
    """

    parameter: str
    points: Tuple[Tuple[float, float, float], ...]
    auc: float


@dataclass
class ReportData:
    """Everything one run report can show.  All sections are optional:
    empty collections render as nothing."""

    title: str = "repro run report"
    generated: str = ""
    environment: Mapping[str, str] = field(default_factory=dict)
    #: ``(run_id, when, command, status, wall_seconds)`` rows.
    ledger_rows: Sequence[Tuple[str, str, str, int, float]] = ()
    #: Summed per-detector confusion counts (e.g. from
    #: :func:`repro.obs.quality.aggregate_confusions`).
    confusions: Mapping[str, ConfusionCounts] = field(default_factory=dict)
    #: Per-submission scorecard rows:
    #: ``(label, archetype, detected, latency_days, bias_at_detection)``.
    scorecard_rows: Sequence[
        Tuple[str, str, bool, Optional[float], Optional[float]]
    ] = ()
    roc: Optional[RocSweep] = None
    #: Per-epoch mean-trust series keyed by group label.
    trust_trajectories: Mapping[str, Sequence[float]] = field(
        default_factory=dict
    )
    drift_warnings: Sequence[str] = ()
    #: Alert state transitions:
    #: ``(epoch, rule, state, value, threshold, severity, latency)`` rows.
    alert_rows: Sequence[
        Tuple[int, str, str, float, float, str, int]
    ] = ()
    #: Recorded per-epoch metric series keyed by metric name (values in
    #: epoch order) -- rendered as sparklines.
    series_sparklines: Mapping[str, Sequence[float]] = field(
        default_factory=dict
    )
    counters: Mapping[str, float] = field(default_factory=dict)
    #: ``(name, count, mean, p50, max)`` histogram summary rows.
    histogram_rows: Sequence[Tuple[str, int, float, float, float]] = ()
    trace_summary: Optional[str] = None
    notes: Sequence[str] = ()

    def __post_init__(self) -> None:
        if not self.generated:
            self.generated = time.strftime("%Y-%m-%d %H:%M:%S")


def confusion_from_counters(
    counters: Mapping[str, float],
) -> Dict[str, ConfusionCounts]:
    """Reassemble per-detector confusion counts from ``quality.*`` counters.

    Inverse of :func:`repro.obs.quality.emit_scorecards`'s counter naming
    (``quality.<detector>.<cell>``), so any collected registry -- live,
    merged from capsules, or read back from a ledger record -- can feed
    the report's scorecard table.
    """
    cells: Dict[str, Dict[str, int]] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if len(parts) != 3 or parts[0] != "quality" or parts[2] not in _CELLS:
            continue
        cells.setdefault(parts[1], {})[parts[2]] = int(value)
    return {
        detector: ConfusionCounts(**{c: row.get(c, 0) for c in _CELLS})
        for detector, row in cells.items()
    }


def report_from_registry(
    registry: MetricsRegistry,
    title: str = "repro run report",
    environment: Optional[Mapping[str, str]] = None,
    ledger_rows: Sequence[Tuple[str, str, str, int, float]] = (),
    trace_summary: Optional[str] = None,
    notes: Sequence[str] = (),
) -> ReportData:
    """Assemble a :class:`ReportData` from one collected registry."""
    snapshot = registry.snapshot()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if value
    }
    histogram_rows = []
    for name, hist in sorted(registry.histograms.items()):
        summary = hist.summary()
        histogram_rows.append(
            (name, int(summary["count"]), summary["mean"], summary["p50"],
             summary["max"]),
        )
    alert_rows: List[Tuple[int, str, str, float, float, str, int]] = []
    series_sparklines: Dict[str, List[float]] = {}
    recorder = registry.series
    if recorder is not None:
        engine = recorder.engine
        if engine is not None:
            alert_rows = [
                (
                    event.epoch,
                    event.rule,
                    event.state,
                    event.value,
                    event.threshold,
                    event.severity,
                    event.latency_epochs,
                )
                for event in engine.events
            ]
        series_sparklines = _headline_series(recorder)
    return ReportData(
        title=title,
        environment=dict(environment or {}),
        ledger_rows=ledger_rows,
        confusions=confusion_from_counters(counters),
        alert_rows=alert_rows,
        series_sparklines=series_sparklines,
        counters=counters,
        histogram_rows=histogram_rows,
        trace_summary=trace_summary,
        notes=notes,
    )


#: Series namespaces the report charts first (operational headliners).
_SERIES_PRIORITY = ("drift.", "quality.", "online.", "alert.")

#: At most this many sparkline figures render in the series section.
MAX_SERIES_SPARKLINES = 12


def _headline_series(recorder) -> Dict[str, List[float]]:
    """The most report-worthy recorded series (>= 2 points, capped).

    Operational namespaces (:data:`_SERIES_PRIORITY`) chart first,
    alphabetically within a namespace, then everything else -- at most
    :data:`MAX_SERIES_SPARKLINES` series total.
    """

    def rank(name: str) -> Tuple[int, str]:
        for index, prefix in enumerate(_SERIES_PRIORITY):
            if name.startswith(prefix):
                return (index, name)
        return (len(_SERIES_PRIORITY), name)

    picked: Dict[str, List[float]] = {}
    for name in sorted(recorder.names(), key=rank):
        points = recorder.series(name)
        if len(points) < 2:
            continue
        picked[name] = [value for _, value in points]
        if len(picked) >= MAX_SERIES_SPARKLINES:
            break
    return picked


# --------------------------------------------------------------------- #
# Inline SVG charts
# --------------------------------------------------------------------- #


def _finite(values: Sequence[float]) -> List[float]:
    return [float(v) for v in values if math.isfinite(float(v))]


def svg_sparkline(
    values: Sequence[float],
    width: int = 220,
    height: int = 44,
    stroke: str = "#2563eb",
) -> str:
    """A minimal inline-SVG polyline for one series (no axes)."""
    clean = _finite(values)
    if len(clean) < 2:
        return (
            f'<svg width="{width}" height="{height}" role="img">'
            f'<text x="4" y="{height - 6}" class="dim">(not enough data)'
            f"</text></svg>"
        )
    lo, hi = min(clean), max(clean)
    span = (hi - lo) or 1.0
    pad = 3.0
    step = (width - 2 * pad) / (len(clean) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(clean)
    )
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<polyline points="{points}" fill="none" stroke="{stroke}" '
        f'stroke-width="1.8" stroke-linejoin="round"/></svg>'
    )


def svg_roc(
    points: Sequence[Tuple[float, float]],
    width: int = 240,
    height: int = 240,
) -> str:
    """An inline-SVG ROC curve: unit box, chance diagonal, curve, dots.

    ``points`` are ``(false_alarm_rate, recall)`` pairs; the curve is
    anchored at (0,0) and (1,1) like :func:`repro.obs.quality.roc_auc`.
    """
    clean = sorted(
        {(0.0, 0.0), (1.0, 1.0)}
        | {
            (float(x), float(y))
            for x, y in points
            if math.isfinite(float(x)) and math.isfinite(float(y))
        }
    )
    pad = 14.0
    inner_w, inner_h = width - 2 * pad, height - 2 * pad

    def sx(x: float) -> float:
        return pad + x * inner_w

    def sy(y: float) -> float:
        return height - pad - y * inner_h

    poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in clean)
    dots = "".join(
        f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="#dc2626"/>'
        for x, y in points
        if math.isfinite(float(x)) and math.isfinite(float(y))
    )
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<rect x="{pad}" y="{pad}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="#9ca3af"/>'
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" '
        f'y2="{sy(1):.1f}" stroke="#d1d5db" stroke-dasharray="4 3"/>'
        f'<polyline points="{poly}" fill="none" stroke="#2563eb" '
        f'stroke-width="2"/>'
        f"{dots}"
        f'<text x="{width / 2:.0f}" y="{height - 1}" text-anchor="middle" '
        f'class="dim">false alarms</text>'
        f'<text x="8" y="{height / 2:.0f}" class="dim" '
        f'transform="rotate(-90 8 {height / 2:.0f})" '
        f'text-anchor="middle">recall</text>'
        f"</svg>"
    )


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #

_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; color: #1f2937;
       max-width: 60rem; margin: 2rem auto; padding: 0 1rem; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #2563eb;
     padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 1.6rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #d1d5db; padding: .25rem .6rem;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #f3f4f6; }
td:first-child, th:first-child { text-align: left; }
pre { background: #f3f4f6; padding: .6rem; overflow-x: auto; }
.dim { color: #6b7280; font-size: 11px; fill: #6b7280; }
.warn { color: #b45309; }
.ok { color: #15803d; }
figure { display: inline-block; margin: .4rem 1.2rem .4rem 0; }
figcaption { font-size: 12px; color: #6b7280; text-align: center; }
"""


def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "-"
    if value and abs(value) < 10 ** -digits:
        return f"{value:.1e}"
    return f"{value:,.{digits}f}".rstrip("0").rstrip(".") or "0"


def _html_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = []
    for row in rows:
        cells = "".join(
            "<td>{}</td>".format(
                html.escape(cell) if isinstance(cell, str) else _fmt(cell)
            )
            for cell in row
        )
        body.append(f"<tr>{cells}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def _confusion_rows(
    confusions: Mapping[str, ConfusionCounts],
) -> List[Sequence]:
    rows: List[Sequence] = []
    for name, counts in confusions.items():
        rows.append(
            (
                name,
                counts.tp,
                counts.fp,
                counts.fn,
                counts.tn,
                counts.precision,
                counts.recall,
                counts.false_alarm_rate,
            )
        )
    return rows


_CONFUSION_HEADERS = (
    "detector", "tp", "fp", "fn", "tn",
    "precision", "recall", "false alarms",
)

_ALERT_HEADERS = (
    "epoch", "rule", "state", "value", "threshold", "severity",
    "latency (epochs)",
)


def render_html(data: ReportData) -> str:
    """Render one report as a single self-contained HTML document."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(data.title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(data.title)}</h1>",
        f'<p class="dim">generated {html.escape(data.generated)}</p>',
    ]
    if data.notes:
        parts.append(
            "<ul>"
            + "".join(f"<li>{html.escape(note)}</li>" for note in data.notes)
            + "</ul>"
        )
    if data.environment:
        parts.append("<h2>Environment</h2>")
        parts.append(
            _html_table(
                ("key", "value"),
                sorted((k, str(v)) for k, v in data.environment.items()),
            )
        )
    if data.ledger_rows:
        parts.append("<h2>Run ledger</h2>")
        parts.append(
            _html_table(
                ("run", "when", "command", "status", "wall s"),
                data.ledger_rows,
            )
        )
    if data.confusions:
        parts.append("<h2>Detection scorecard</h2>")
        parts.append(
            '<p class="dim">Confusion counts joined against ground-truth '
            "unfair labels; per-detector rows attribute via provenance "
            "bits, so one rating can count for several detectors.</p>"
        )
        parts.append(
            _html_table(_CONFUSION_HEADERS, _confusion_rows(data.confusions))
        )
    if data.scorecard_rows:
        parts.append("<h2>Per-submission detection</h2>")
        parts.append(
            _html_table(
                ("submission", "archetype", "detected", "latency (days)",
                 "bias at detection"),
                data.scorecard_rows,
            )
        )
    if data.roc is not None:
        parts.append(
            f"<h2>ROC sweep: {html.escape(data.roc.parameter)}</h2>"
        )
        auc = _fmt(data.roc.auc)
        parts.append(
            "<figure>"
            + svg_roc([(fa, rc) for _, fa, rc in data.roc.points])
            + f"<figcaption>AUC {auc}</figcaption></figure>"
        )
        parts.append(
            _html_table(
                (data.roc.parameter, "false alarms", "recall"),
                data.roc.points,
            )
        )
    if data.trust_trajectories:
        parts.append("<h2>Trust trajectories</h2>")
        parts.append(
            '<p class="dim">Mean beta trust per 30-day epoch '
            "(Procedure 1).</p>"
        )
        for label, series in data.trust_trajectories.items():
            parts.append(
                "<figure>"
                + svg_sparkline(series)
                + f"<figcaption>{html.escape(label)}"
                + (f" ({_fmt(series[-1])})" if len(series) else "")
                + "</figcaption></figure>"
            )
    parts.append("<h2>Assumption drift</h2>")
    if data.drift_warnings:
        parts.append(
            f'<p class="warn">{len(data.drift_warnings)} warning(s):</p><ul>'
            + "".join(
                f'<li class="warn">{html.escape(str(w))}</li>'
                for w in data.drift_warnings
            )
            + "</ul>"
        )
    else:
        parts.append(
            '<p class="ok">no assumption-drift warnings: the fair-rating '
            "regime held.</p>"
        )
    if data.alert_rows:
        firing = sum(1 for row in data.alert_rows if row[2] == "firing")
        parts.append("<h2>Alerts</h2>")
        parts.append(
            f'<p class="{"warn" if firing else "ok"}">'
            f"{len(data.alert_rows)} alert state transition(s), "
            f"{firing} firing; latency is epochs between first breach "
            "and the alarm.</p>"
        )
        parts.append(_html_table(_ALERT_HEADERS, data.alert_rows))
    if data.series_sparklines:
        parts.append("<h2>Telemetry series</h2>")
        parts.append(
            '<p class="dim">Per-epoch metric snapshots (epoch index on '
            "the x axis).</p>"
        )
        for label, series in data.series_sparklines.items():
            parts.append(
                "<figure>"
                + svg_sparkline(series)
                + f"<figcaption>{html.escape(label)}"
                + (f" ({_fmt(series[-1])})" if len(series) else "")
                + "</figcaption></figure>"
            )
    if data.counters:
        parts.append("<h2>Counters</h2>")
        parts.append(
            _html_table(
                ("counter", "value"), sorted(data.counters.items())
            )
        )
    if data.histogram_rows:
        parts.append("<h2>Histograms</h2>")
        parts.append(
            _html_table(
                ("histogram", "count", "mean", "p50", "max"),
                data.histogram_rows,
            )
        )
    if data.trace_summary:
        parts.append("<h2>Trace summary</h2>")
        parts.append(f"<pre>{html.escape(data.trace_summary)}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def _md_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    def cell(value) -> str:
        return value if isinstance(value, str) else _fmt(value)

    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(v) for v in row) + " |")
    return "\n".join(lines)


def render_markdown(data: ReportData) -> str:
    """Render one report as Markdown (charts become tables)."""
    parts: List[str] = [
        f"# {data.title}",
        "",
        f"_generated {data.generated}_",
    ]
    if data.notes:
        parts.append("")
        parts.extend(f"- {note}" for note in data.notes)
    if data.environment:
        parts += ["", "## Environment", "", _md_table(
            ("key", "value"),
            sorted((k, str(v)) for k, v in data.environment.items()),
        )]
    if data.ledger_rows:
        parts += ["", "## Run ledger", "", _md_table(
            ("run", "when", "command", "status", "wall s"), data.ledger_rows
        )]
    if data.confusions:
        parts += ["", "## Detection scorecard", "", _md_table(
            _CONFUSION_HEADERS, _confusion_rows(data.confusions)
        )]
    if data.scorecard_rows:
        parts += ["", "## Per-submission detection", "", _md_table(
            ("submission", "archetype", "detected", "latency (days)",
             "bias at detection"),
            data.scorecard_rows,
        )]
    if data.roc is not None:
        parts += [
            "", f"## ROC sweep: {data.roc.parameter}",
            "", f"AUC: {_fmt(data.roc.auc)}", "",
            _md_table(
                (data.roc.parameter, "false alarms", "recall"),
                data.roc.points,
            ),
        ]
    if data.trust_trajectories:
        parts += ["", "## Trust trajectories (mean per epoch)", ""]
        for label, series in data.trust_trajectories.items():
            parts.append(
                f"- {label}: " + ", ".join(_fmt(v) for v in series)
            )
    parts += ["", "## Assumption drift", ""]
    if data.drift_warnings:
        parts.extend(f"- {w}" for w in data.drift_warnings)
    else:
        parts.append("no assumption-drift warnings.")
    if data.alert_rows:
        parts += ["", "## Alerts", "", _md_table(
            _ALERT_HEADERS, data.alert_rows
        )]
    if data.series_sparklines:
        parts += ["", "## Telemetry series (per epoch)", ""]
        for label, series in data.series_sparklines.items():
            parts.append(
                f"- {label}: " + ", ".join(_fmt(v) for v in series)
            )
    if data.counters:
        parts += ["", "## Counters", "", _md_table(
            ("counter", "value"), sorted(data.counters.items())
        )]
    if data.histogram_rows:
        parts += ["", "## Histograms", "", _md_table(
            ("histogram", "count", "mean", "p50", "max"), data.histogram_rows
        )]
    if data.trace_summary:
        parts += ["", "## Trace summary", "", "```",
                  data.trace_summary, "```"]
    return "\n".join(parts) + "\n"


def write_report(data: ReportData, path: os.PathLike) -> str:
    """Write ``data`` to ``path``; format follows the extension.

    Returns the format written (``"markdown"`` or ``"html"``).
    """
    kind = (
        "markdown"
        if str(path).lower().endswith((".md", ".markdown"))
        else "html"
    )
    text = render_markdown(data) if kind == "markdown" else render_html(data)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return kind

"""Terminal rendering of recorded series: sparklines + alert state.

``repro monitor`` replays a run directory's ``series.jsonl`` (see
:class:`~repro.obs.series.MetricsStreamWriter`) into a local
:class:`~repro.obs.series.TimeSeriesRecorder`, re-evaluating the alert
ruleset epoch by epoch, and renders one plain-text frame: a unicode
sparkline per series plus the alert board.  Everything here is pure
string building over recorder state.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.obs.alerts import AlertEngine
from repro.obs.series import TimeSeriesRecorder, read_metrics_stream

__all__ = [
    "render_frame",
    "replay_stream",
    "sparkline",
]

#: Eight vertical-bar glyphs, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """A unicode sparkline over ``values``, resampled to ``width`` cells.

    Non-finite values render as spaces; a flat (or single-point) series
    renders at mid-height so it stays visible.
    """
    if not values or width < 1:
        return ""
    if len(values) > width:
        # Keep the most recent ``width`` points.
        values = list(values)[-width:]
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return " " * len(values)
    low, high = min(finite), max(finite)
    span = high - low
    cells: List[str] = []
    for value in values:
        if not math.isfinite(value):
            cells.append(" ")
        elif span <= 0:
            cells.append(SPARK_GLYPHS[len(SPARK_GLYPHS) // 2])
        else:
            rank = (value - low) / span
            index = min(int(rank * len(SPARK_GLYPHS)), len(SPARK_GLYPHS) - 1)
            cells.append(SPARK_GLYPHS[index])
    return "".join(cells)


def _format_value(value: float) -> str:
    """A compact numeric rendering for the frame's value column."""
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def replay_stream(
    path,
    engine: Optional[AlertEngine] = None,
    capacity: int = 1024,
) -> Tuple[TimeSeriesRecorder, List]:
    """Fold every snapshot of a metrics-stream file into a fresh recorder.

    Returns the populated recorder and the full list of alert events the
    replay produced (empty when no ``engine`` is given).  Replay drives
    the engine exactly like the live epoch-close path, so the monitor's
    alert board matches what the producing run would have reported.
    """
    recorder = TimeSeriesRecorder(capacity=capacity, engine=engine)
    events: List = []
    for epoch, metrics in read_metrics_stream(path):
        events.extend(recorder.ingest_snapshot(epoch, metrics))
    return recorder, events


def render_frame(
    recorder: TimeSeriesRecorder,
    engine: Optional[AlertEngine] = None,
    select: Sequence[str] = (),
    top: int = 16,
    width: int = 32,
    title: str = "",
) -> str:
    """One monitor frame: header, per-series sparklines, alert board.

    ``select`` filters series by substring (any match keeps the series);
    at most ``top`` series render, alphabetically, after filtering.
    """
    lines: List[str] = []
    epoch = recorder.last_epoch
    header = (
        f"epoch {epoch}" if epoch is not None else "no snapshots yet"
    )
    names = recorder.names()
    if select:
        names = [n for n in names if any(s in n for s in select)]
    shown = names[: max(top, 0)]
    lines.append(
        (f"{title} · " if title else "")
        + f"{header} · {len(recorder.names())} series"
        + (f" · showing {len(shown)}" if len(shown) < len(names) else "")
    )
    if shown:
        name_width = max(len(name) for name in shown)
        for name in shown:
            points = recorder.series(name)
            values = [value for _, value in points]
            lines.append(
                f"  {name.ljust(name_width)}  "
                f"{sparkline(values, width).ljust(width)}  "
                f"{_format_value(values[-1])}"
            )
    if engine is not None:
        firing = set(engine.firing())
        lines.append("")
        lines.append(
            f"alerts: {len(firing)} firing / {len(engine.rules)} rules"
        )
        for rule in engine.rules:
            marker = "FIRING" if rule.name in firing else "ok"
            detail = ""
            if rule.name in firing:
                latest = [
                    e
                    for e in engine.events
                    if e.rule == rule.name and e.state == "firing"
                ]
                if latest:
                    event = latest[-1]
                    detail = (
                        f"  since epoch {event.epoch} "
                        f"(latency {event.latency_epochs} epochs, "
                        f"value {_format_value(event.value)})"
                    )
            lines.append(
                f"  [{marker:>6}] {rule.name} "
                f"({rule.kind} {rule.metric} {rule.op} "
                f"{_format_value(rule.value)}){detail}"
            )
    return "\n".join(lines) + "\n"

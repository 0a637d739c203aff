"""Chrome/Perfetto ``trace_event`` export of the recorded span tree.

Every completed :class:`~repro.obs.spans.SpanRecord` -- including worker
records merged back through :class:`~repro.obs.capsule.TelemetryCapsule`
-- becomes one complete ("X") event in the Trace Event Format that
``chrome://tracing`` and https://ui.perfetto.dev load natively.  Records
keep their producing pid, so a parallel sweep renders one lane per pool
worker next to the parent's dispatch span; timestamps are normalized to
the earliest span so the trace starts at zero.  (Span start times come
from ``perf_counter``, which on Linux is the system-wide monotonic clock
-- comparable across forked workers.)

Final counter values are exported as one trailing counter ("C") event
per metric namespace so quality counters are visible alongside timing.
When the registry carries profiler samples (:mod:`repro.obs.profile`),
they render as an extra per-process lane of synthetic complete events
-- one slice per collapsed stack, sized by sampled self time -- so the
flamegraph and the span tree sit side by side in one Perfetto view.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

from repro.errors import ValidationError
from repro.obs.profile import (
    PROFILE_TID,
    profile_trace_events,
    registry_hz,
    self_durations,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecord

__all__ = [
    "trace_events",
    "write_trace",
    "read_trace",
    "summarize_trace",
]

#: Microseconds per second -- trace event timestamps are in µs.
_US = 1e6


def trace_events(registry: MetricsRegistry) -> List[Dict[str, object]]:
    """The registry's spans (plus final counters) as trace events; spans
    recorded in this process land on its pid."""
    base_pid = os.getpid()
    spans: Sequence[SpanRecord] = list(registry.spans)
    origin = min((record.start for record in spans), default=0.0)
    events: List[Dict[str, object]] = []
    pids = {base_pid}
    for record in spans:
        pid = record.pid or base_pid
        pids.add(pid)
        args: Dict[str, object] = {"path": record.path, "depth": record.depth}
        args.update(record.annotations)
        events.append(
            {
                "name": record.name,
                "cat": record.path.split(".", 1)[0] if record.path else "span",
                "ph": "X",
                "ts": (record.start - origin) * _US,
                "dur": record.duration * _US,
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if value
    }
    if counters:
        last_ts = max((float(e["ts"]) + float(e["dur"]) for e in events),
                      default=0.0)
        events.append(
            {
                "name": "final counters",
                "ph": "C",
                "ts": last_ts,
                "pid": base_pid,
                "tid": 0,
                "args": counters,
            }
        )
    profile_events: List[Dict[str, object]] = []
    if registry.profile:
        profile_events = profile_trace_events(
            registry.profile, hz=registry_hz(registry)
        )
    metadata: List[Dict[str, object]] = []
    for pid in sorted(pids):
        label = "main" if pid == base_pid else f"worker {pid}"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro {label}"},
            }
        )
    if profile_events:
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": base_pid,
                "tid": PROFILE_TID,
                "args": {"name": "profiler samples"},
            }
        )
    return metadata + events + profile_events


def write_trace(registry: MetricsRegistry, path: os.PathLike) -> int:
    """Write the registry's trace to ``path``; returns the event count."""
    events = trace_events(registry)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.trace"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    registry.inc("trace.events_written", len(events))
    return len(events)


def read_trace(path: os.PathLike) -> Dict[str, object]:
    """Load and structurally validate a trace JSON file.

    Raises :class:`~repro.errors.ValidationError` on anything Perfetto's
    JSON importer would reject: a missing ``traceEvents`` list, events
    without ``ph``/``name``, or complete events without numeric
    ``ts``/``dur``/``pid``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise ValidationError(
            f"{path}: expected an object with a 'traceEvents' list"
        )
    for index, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            raise ValidationError(f"{path}: event #{index} is not an object")
        if "ph" not in event or "name" not in event:
            raise ValidationError(
                f"{path}: event #{index} lacks required 'ph'/'name' fields"
            )
        if event["ph"] == "X":
            for key in ("ts", "dur", "pid"):
                if not isinstance(event.get(key), (int, float)):
                    raise ValidationError(
                        f"{path}: complete event #{index} has non-numeric "
                        f"{key!r}"
                    )
    return payload


def summarize_trace(payload: Dict[str, object], top: int = 10) -> str:
    """A text digest of a loaded trace (lanes, phases, cache, longest spans)."""
    events = payload["traceEvents"]
    complete = [e for e in events if e.get("ph") == "X"]
    phases: Dict[str, int] = {}
    for event in events:
        phases[event["ph"]] = phases.get(event["ph"], 0) + 1
    lanes = sorted({e["pid"] for e in complete})
    lines = [
        f"{len(events)} events "
        f"({', '.join(f'{n} {ph!r}' for ph, n in sorted(phases.items()))})",
        f"process lanes: {', '.join(str(p) for p in lanes) or '(none)'}",
    ]
    # MP-cache effectiveness, from the final-counters event.  Hit rate
    # is hits / (hits + misses): a fully warm run dispatches zero tasks
    # but still answers every lookup from the cache, so task counts
    # would wrongly report 0.
    counters: Dict[str, float] = {}
    for event in events:
        if event.get("ph") == "C" and event.get("name") == "final counters":
            counters.update(event.get("args", {}))
    hits = float(counters.get("exec.cache.hits", 0))
    lookups = hits + float(counters.get("exec.cache.misses", 0))
    if lookups:
        cache_line = (
            f"MP cache: {hits:g}/{lookups:g} lookups hit "
            f"({hits / lookups:.0%})"
        )
        corrupt = float(counters.get("exec.cache.corrupt", 0))
        if corrupt:
            cache_line += (
                f"; {corrupt:g} corrupt entries treated as misses"
            )
        lines.append(cache_line)
    span_events = [e for e in complete if e.get("cat") != "profile"]
    profile_events = [e for e in complete if e.get("cat") == "profile"]
    if span_events:
        # The ledger's self-time rule, with each (pid, tid) as a lane and
        # the tolerance in the trace's µs.
        own_us = self_durations(
            [
                ((e["pid"], e.get("tid", 0)), float(e["ts"]), float(e["dur"]))
                for e in span_events
            ],
            tolerance=1e-9,
        )
        span_end = max(float(e["ts"]) + float(e["dur"]) for e in span_events)
        lines.append(f"trace span: {span_end / 1e3:.2f} ms")
        lines.append(
            f"longest {min(top, len(span_events))} spans (total / self):"
        )
        longest = sorted(
            zip(span_events, own_us), key=lambda pair: -float(pair[0]["dur"])
        )[:top]
        for event, own in longest:
            path = event.get("args", {}).get("path", event["name"])
            lines.append(
                f"  {float(event['dur']) / 1e3:10.2f} ms"
                f" / {own / 1e3:10.2f} ms self"
                f"  pid={event['pid']}  {path}"
            )
        by_path: Dict[str, float] = {}
        for event, own in zip(span_events, own_us):
            path = str(event.get("args", {}).get("path", event["name"]))
            by_path[path] = by_path.get(path, 0.0) + own
        lines.append(f"top {min(top, len(by_path))} self-time paths:")
        ranked = sorted(by_path.items(), key=lambda item: (-item[1], item[0]))
        for path, self_us in ranked[:top]:
            lines.append(f"  {self_us / 1e3:10.2f} ms self  {path}")
    if profile_events:
        sampled_seconds = sum(float(e["dur"]) for e in profile_events) / 1e6
        lines.append(
            f"profiler lane: {len(profile_events)} sampled stacks, "
            f"{sampled_seconds:.2f} s of samples"
        )
    return "\n".join(lines)

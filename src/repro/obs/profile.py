"""Span-attributed sampling profiler with flamegraph-ready exporters.

:class:`SpanProfiler` runs a background daemon thread that periodically
(``hz`` times per second) snapshots every tracked thread's Python frame
stack via ``sys._current_frames`` and the innermost open span via
:func:`~repro.obs.spans.span_stack_snapshot`.  Each sample becomes one
*collapsed-stack key*::

    span:<innermost.span.path>;<frame>;<frame>;...;<leaf frame>

where frames are ``<src-relative-file>:<function>`` labels ordered
root-to-leaf (``span:-`` marks samples taken outside any span).  Keys
aggregate into ``registry.profile`` -- a plain ``{key: sample_count}``
dict -- so profiles merge across processes exactly like counters do:
counts add per key, in task order, deterministically
(:class:`~repro.obs.capsule.TelemetryCapsule`).

Design points:

- **Zero overhead when disabled.**  Nothing starts unless a profiler is
  constructed and started; the instrumented code paths are untouched.
- **Attribution rides the span tree.**  Because the sampler reads the
  same per-thread span stacks the :func:`~repro.obs.spans.span` context
  manager maintains, every sample lands under the span that was open
  when it fired -- ``detector.HC`` gets self-time and a per-frame
  breakdown without any detector code changes beyond opening spans.
- **One profiler samples at a time.**  Profilers nest on a process-wide
  stack; only the innermost records.  The execution engine starts a
  per-task profiler inside each captured task, so a CLI-level profiler
  never double-counts the same thread during serial (``workers=0``)
  dispatch, and forked pool workers (which inherit the parent's stack
  entry whose thread is dead) sample correctly under their own.

Exporters: :func:`speedscope_document` / :func:`write_speedscope`
(sampled-profile speedscope JSON) and :func:`profile_trace_events` (a
profile lane merged into the Perfetto ``trace_event`` export).  A run
directory keeps the samples once, in ``metrics.json`` (``profile``, with
the ``profile.hz`` gauge), which ``repro profile`` reads back.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import ValidationError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.spans import span_stack_snapshot

__all__ = [
    "DEFAULT_HZ",
    "SpanProfiler",
    "enable_profiling",
    "disable_profiling",
    "profiling_enabled",
    "profiling_hz",
    "maybe_task_profiler",
    "reparent_profile_key",
    "attributed_fraction",
    "self_seconds_by_span",
    "top_frames",
    "self_durations",
    "span_self_times",
    "speedscope_document",
    "write_speedscope",
    "profile_trace_events",
]

#: Default sampling rate.  A prime avoids phase-locking with periodic
#: work (epoch loops, pool heartbeats) that an even rate could alias.
DEFAULT_HZ = 97

#: The synthetic Perfetto thread id profile lanes render under.
PROFILE_TID = 1

#: Collapsed-stack keys start with this prefix + the span path.
_SPAN_PREFIX = "span:"

#: The span segment of a sample taken outside any open span.
_UNATTRIBUTED = "span:-"

_SRC_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_SRC_PREFIX = _SRC_ROOT + os.sep

#: Nested profilers, innermost last; only the top of the stack records.
_profiler_stack: List["SpanProfiler"] = []

#: Sampler-thread idents -- excluded from sampling so the profiler never
#: profiles itself (or a sibling profiler).
_sampler_threads: Set[int] = set()

_label_cache: Dict[Tuple[str, str], str] = {}


def _frame_label(code) -> str:
    """``<src-relative-file>:<function>`` for one code object (cached)."""
    cache_key = (code.co_filename, code.co_name)
    label = _label_cache.get(cache_key)
    if label is None:
        filename = code.co_filename
        if filename.startswith(_SRC_PREFIX):
            short = filename[len(_SRC_PREFIX):]
        else:
            short = os.path.basename(filename)
        label = f"{short}:{code.co_name}"
        _label_cache[cache_key] = label
    return label


class SpanProfiler:
    """Background sampling profiler attributed to the open span stack.

    Parameters
    ----------
    registry:
        Where samples (and the ``profile.*`` metrics) land at
        :meth:`stop`; ``None`` uses the globally active registry at stop
        time.
    hz:
        Samples per second (default :data:`DEFAULT_HZ`).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        hz: int = DEFAULT_HZ,
    ) -> None:
        if hz <= 0:
            raise ValidationError(f"profiler hz must be positive, got {hz}")
        self.hz = int(hz)
        self.samples: Dict[str, float] = {}
        self._registry = registry
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "SpanProfiler":
        """Start the sampler thread (idempotent while running)."""
        if self._thread is not None:
            return self
        self._stop_event.clear()
        _profiler_stack.append(self)
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Dict[str, float]:
        """Stop sampling and flush samples/metrics into the registry."""
        if self._thread is None:
            return dict(self.samples)
        self._stop_event.set()
        self._thread.join(timeout=5.0)
        _sampler_threads.discard(self._thread.ident)
        self._thread = None
        try:
            _profiler_stack.remove(self)
        except ValueError:
            pass  # e.g. a forked child stopping the inherited profiler
        registry = self.registry
        if self.samples:
            registry.add_profile_samples(self.samples)
        total = sum(self.samples.values())
        registry.set_gauge("profile.hz", float(self.hz))
        registry.inc("profile.samples", total)
        registry.inc(
            "profile.samples.unattributed",
            sum(
                count
                for key, count in self.samples.items()
                if key.startswith(_UNATTRIBUTED)
            ),
        )
        return dict(self.samples)

    def __enter__(self) -> "SpanProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        _sampler_threads.add(threading.get_ident())
        interval = 1.0 / self.hz
        # Absolute deadlines: waiting a fixed interval *between* samples
        # would add per-tick wait/sampling overhead to the period and
        # undershoot the configured rate.
        next_at = time.perf_counter() + interval
        while True:
            delay = next_at - time.perf_counter()
            if self._stop_event.wait(max(0.0, delay)):
                return
            self._sample_once()
            next_at += interval
            now = time.perf_counter()
            if next_at < now:
                # Sampling could not keep up; skip the missed ticks
                # rather than burst to catch up.
                next_at = now + interval

    def _sample_once(self) -> None:
        # Only the innermost active profiler records: when the execution
        # engine runs a captured task under its own profiler, an outer
        # CLI-level profiler must not double-count the same thread.
        if _profiler_stack and _profiler_stack[-1] is not self:
            return
        stacks = span_stack_snapshot()
        current = sys._current_frames()
        try:
            for tid, top in current.items():
                if tid in _sampler_threads:
                    continue
                span_path = stacks.get(tid)
                if span_path is None:
                    # The thread never touched the span machinery (pool
                    # plumbing, logging, ...): not pipeline work.
                    continue
                labels: List[str] = []
                frame = top
                while frame is not None:
                    labels.append(_frame_label(frame.f_code))
                    frame = frame.f_back
                labels.append(f"{_SPAN_PREFIX}{span_path or '-'}")
                labels.reverse()
                key = ";".join(labels)
                self.samples[key] = self.samples.get(key, 0.0) + 1.0
        finally:
            del current


# --------------------------------------------------------------------- #
# Process-wide enablement (inherited by forked pool workers)
# --------------------------------------------------------------------- #

_enabled_hz: Optional[int] = None


def enable_profiling(hz: int = DEFAULT_HZ) -> None:
    """Mark profiling globally enabled (captured tasks self-profile)."""
    global _enabled_hz
    _enabled_hz = int(hz)


def disable_profiling() -> None:
    """Clear the global profiling switch."""
    global _enabled_hz
    _enabled_hz = None


def profiling_enabled() -> bool:
    """Whether :func:`enable_profiling` is in effect."""
    return _enabled_hz is not None


def profiling_hz() -> int:
    """The globally configured sampling rate (default when disabled)."""
    return _enabled_hz if _enabled_hz is not None else DEFAULT_HZ


def maybe_task_profiler(
    registry: MetricsRegistry,
) -> Optional[SpanProfiler]:
    """A started per-task profiler when profiling is globally enabled.

    Called by the execution engine inside each captured task (worker- or
    parent-side) so worker samples land in the task's local registry and
    ride back in its :class:`~repro.obs.capsule.TelemetryCapsule`.
    """
    if _enabled_hz is None:
        return None
    return SpanProfiler(registry, hz=_enabled_hz).start()


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #


def reparent_profile_key(key: str, parent_path: str) -> str:
    """Prefix a sample key's span segment with the dispatching span path.

    Mirrors the span re-parenting capsules apply on merge; unattributed
    samples (``span:-``) stay unattributed.
    """
    if (
        not parent_path
        or not key.startswith(_SPAN_PREFIX)
        or key.startswith(_UNATTRIBUTED)
    ):
        return key
    return f"{_SPAN_PREFIX}{parent_path}.{key[len(_SPAN_PREFIX):]}"


def attributed_fraction(samples: Dict[str, float]) -> float:
    """Fraction of samples attributed to an open span (1.0 when empty)."""
    total = sum(samples.values())
    if not total:
        return 1.0
    unattributed = sum(
        count
        for key, count in samples.items()
        if key.startswith(_UNATTRIBUTED)
    )
    return (total - unattributed) / total


def self_seconds_by_span(
    samples: Dict[str, float], hz: float = DEFAULT_HZ
) -> Dict[str, float]:
    """Sampled self-seconds per innermost span path ("-" = no span)."""
    out: Dict[str, float] = {}
    for key, count in samples.items():
        root = key.split(";", 1)[0]
        path = root[len(_SPAN_PREFIX):] if root.startswith(_SPAN_PREFIX) else root
        out[path] = out.get(path, 0.0) + count / hz
    return out


def top_frames(
    samples: Dict[str, float], n: int = 10
) -> List[Tuple[str, float]]:
    """The ``n`` leaf frames holding the most samples (self time)."""
    per_frame: Dict[str, float] = {}
    for key, count in samples.items():
        leaf = key.rsplit(";", 1)[-1]
        if leaf.startswith(_SPAN_PREFIX):
            continue  # a sample with no Python frames (should not happen)
        per_frame[leaf] = per_frame.get(leaf, 0.0) + count
    ranked = sorted(per_frame.items(), key=lambda item: (-item[1], item[0]))
    return ranked[: max(0, n)]


def self_durations(
    intervals: Sequence[Tuple[Hashable, float, float]], tolerance: float
) -> List[float]:
    """Exclusive (self) duration of each ``(lane, start, duration)``
    interval, in input order.

    Derived from wall-clock containment: within each lane (a producing
    process), intervals are taken by start time, longest first on ties,
    and a child's duration is subtracted from its innermost enclosing
    parent, so nested spans stop double-counting.  An interval starting
    within ``tolerance`` (in the intervals' time unit) of an open
    parent's end follows that parent instead of nesting in it.
    """
    own = [float(duration) for _, _, duration in intervals]
    open_by_lane: Dict[Hashable, List[Tuple[float, int]]] = defaultdict(list)
    order = sorted(
        range(len(intervals)), key=lambda i: (intervals[i][1], -intervals[i][2])
    )
    for index in order:
        lane, start, duration = intervals[index]
        stack = open_by_lane[lane]
        while stack and start >= stack[-1][0] - tolerance:
            stack.pop()
        if stack:
            own[stack[-1][1]] -= duration
        stack.append((start + duration, index))
    return own


def span_self_times(spans: Sequence) -> Dict[str, List[float]]:
    """Per-record exclusive (self) seconds (:func:`self_durations`, one
    lane per producing process), grouped by span path.  This is what
    makes per-phase percentiles in the run ledger honest."""
    own = self_durations(
        [(record.pid, record.start, record.duration) for record in spans],
        tolerance=1e-12,
    )
    grouped: Dict[str, List[float]] = defaultdict(list)
    for record, seconds in zip(spans, own):
        grouped[record.path].append(seconds)
    return dict(grouped)


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #


def speedscope_document(
    samples: Dict[str, float],
    hz: float = DEFAULT_HZ,
    name: str = "repro profile",
) -> Dict[str, object]:
    """A speedscope sampled-profile document for ``samples``."""
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    sample_stacks: List[List[int]] = []
    weights: List[float] = []
    for key in sorted(samples):
        stack: List[int] = []
        for label in key.split(";"):
            index = frame_index.get(label)
            if index is None:
                index = frame_index[label] = len(frames)
                frames.append({"name": label})
            stack.append(index)
        sample_stacks.append(stack)
        weights.append(samples[key] / hz)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro.obs.profile",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": sum(weights),
                "samples": sample_stacks,
                "weights": weights,
            }
        ],
    }


def write_speedscope(
    samples: Dict[str, float],
    path: os.PathLike,
    hz: float = DEFAULT_HZ,
    name: str = "repro profile",
) -> int:
    """Write the speedscope document to ``path``; returns the key count."""
    document = speedscope_document(samples, hz=hz, name=name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return len(samples)


def profile_trace_events(
    samples: Dict[str, float], hz: float = DEFAULT_HZ
) -> List[Dict[str, object]]:
    """Profile samples as a synthetic Perfetto lane of complete events.

    Keys render as back-to-back "X" events (duration = samples / hz),
    starting at 0, on a dedicated thread lane (:data:`PROFILE_TID`) of
    this process, ordered by sorted key so the lane is deterministic for
    a given profile.
    """
    pid = os.getpid()
    events: List[Dict[str, object]] = []
    ts = 0.0
    for key in sorted(samples):
        count = samples[key]
        if count <= 0:
            continue
        duration_us = count / hz * 1e6
        segments = key.split(";")
        events.append(
            {
                "name": segments[-1],
                "cat": "profile",
                "ph": "X",
                "ts": ts,
                "dur": duration_us,
                "pid": pid,
                "tid": PROFILE_TID,
                "args": {
                    "span": segments[0][len(_SPAN_PREFIX):],
                    "stack": key,
                    "samples": count,
                },
            }
        )
        ts += duration_us
    return events


def registry_hz(registry: MetricsRegistry) -> float:
    """The sampling rate a registry's profile was collected at."""
    gauge = registry.gauges.get("profile.hz")
    if gauge is not None and not math.isnan(gauge.value) and gauge.value > 0:
        return float(gauge.value)
    return float(DEFAULT_HZ)

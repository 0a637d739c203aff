"""Time-series telemetry: per-epoch snapshots of the metrics registry.

The registry (:mod:`repro.obs.registry`) collects *scalars*: by the end
of a run you know that ``drift.warnings`` is 3, but not *when* the
warnings happened.  For the online system (:mod:`repro.online`) --
whose whole point is operating over time -- that loses exactly the
signal an operator needs.  This module adds the time axis:

- :class:`TimeSeriesRecorder` attaches to a :class:`~repro.obs.registry.
  MetricsRegistry` and, at every epoch close, flattens the registry's
  counters, gauges, and histogram summaries into one numeric snapshot
  appended to ring-buffered per-metric series.  The time axis is the
  **epoch index**, never the wall clock, so recorded series are
  bit-reproducible across runs (and ``repro.lint``'s wall-clock rule
  stays clean).
- Recorder state is pickleable and merges **order-independently**
  (point union keyed by epoch, ties resolved by ``max``), mirroring the
  capsule contract: serial and hermetic-parallel runs export identical
  series.
- :class:`MetricsStreamWriter` streams one JSON line per epoch to disk
  (a run directory's ``series.jsonl``), flushed at epoch close so the
  file is readable while the run goes on; ``repro monitor`` replays it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ValidationError
from repro.obs.ledger import DEFAULT_IGNORE_PREFIXES
from repro.obs.registry import MetricsRegistry

__all__ = [
    "DEFAULT_SERIES_IGNORE",
    "MetricsStreamWriter",
    "TimeSeriesRecorder",
    "flatten_registry",
    "read_metrics_stream",
]

#: Namespaces excluded from series: run bookkeeping that is legitimately
#: topology- or timing-dependent (same set the ledger comparator
#: ignores), plus per-span timing histograms.
DEFAULT_SERIES_IGNORE: Tuple[str, ...] = DEFAULT_IGNORE_PREFIXES + ("span.",)

#: Histogram summary fields exported as derived series (``<name>.count``
#: etc.).  Timing histograms (``*.seconds``) export only ``count``: their
#: values are wall-clock noise.
_HISTOGRAM_FIELDS: Tuple[str, ...] = ("count", "mean", "p50", "p90", "max")

#: Suffixes a series name may carry when it is derived from a histogram
#: (used by the alert-rule lint check to resolve names to the catalog).
HISTOGRAM_SERIES_SUFFIXES: Tuple[str, ...] = tuple(
    f".{field}" for field in _HISTOGRAM_FIELDS
)


def flatten_registry(registry: MetricsRegistry) -> Dict[str, float]:
    """One numeric value per metric: the registry as a flat snapshot.

    Counters map to their value, gauges to their level (non-finite
    levels are skipped -- an unset gauge is NaN), and each non-empty
    histogram to derived ``<name>.count`` / ``.mean`` / ``.p50`` /
    ``.p90`` / ``.max`` entries with non-finite fields skipped
    individually (a timing histogram to its count only).  Names under
    :data:`DEFAULT_SERIES_IGNORE` are left out.
    """
    flat: Dict[str, float] = {}
    for name, counter in sorted(registry.counters.items()):
        if name.startswith(DEFAULT_SERIES_IGNORE):
            continue
        flat[name] = float(counter.value)
    for name, gauge in sorted(registry.gauges.items()):
        if name.startswith(DEFAULT_SERIES_IGNORE) or not math.isfinite(gauge.value):
            continue
        flat[name] = float(gauge.value)
    for name, hist in sorted(registry.histograms.items()):
        if name.startswith(DEFAULT_SERIES_IGNORE) or not hist.count:
            continue
        flat[f"{name}.count"] = float(hist.count)
        if name.endswith(".seconds"):
            continue
        values = {
            "mean": hist.mean,
            "p50": hist.percentile(50),
            "p90": hist.percentile(90),
            "max": hist.max,
        }
        for field, value in values.items():
            if math.isfinite(value):
                flat[f"{name}.{field}"] = float(value)
    return flat


class TimeSeriesRecorder:
    """Ring-buffered per-metric series sampled at epoch boundaries.

    Attach one to a registry (``registry.attach_series(recorder)``) and
    call :meth:`record_epoch` at each epoch close; the recorder snapshots
    the registry, appends one ``(epoch, value)`` point per metric, writes
    the snapshot to the configured ``sink`` (if any), and evaluates the
    configured alert ``engine`` (if any), returning the alert events the
    epoch produced.

    Determinism contract: the time axis is the epoch index, conflicting
    points for the same epoch resolve to ``max``, and :meth:`merge_state`
    is commutative and associative -- folding worker capsules in any
    order yields bit-identical series.
    """

    def __init__(
        self,
        capacity: int = 1024,
        sink: Optional["MetricsStreamWriter"] = None,
        engine=None,
    ) -> None:
        if capacity < 1:
            raise ValidationError(f"series capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.sink = sink
        self.engine = engine
        self._points: Dict[str, List[Tuple[int, float]]] = {}
        self.snapshots_recorded = 0
        self.last_epoch: Optional[int] = None

    # -- recording ------------------------------------------------------ #

    def record_epoch(self, epoch: int, registry: MetricsRegistry) -> list:
        """Snapshot ``registry`` at epoch ``epoch``; return alert events.

        The snapshot is taken *before* the recorder's own ``series.*``
        metrics are bumped, so self-telemetry appears in series from the
        following epoch -- deterministically, regardless of topology.
        """
        epoch = int(epoch)
        snapshot = flatten_registry(registry)
        dropped = 0
        for name, value in snapshot.items():
            dropped += self._append(name, epoch, value)
        self.snapshots_recorded += 1
        if self.last_epoch is None or epoch > self.last_epoch:
            self.last_epoch = epoch
        registry.inc("series.snapshots")
        registry.set_gauge("series.metrics", float(len(self._points)))
        if dropped:
            registry.inc("series.dropped_points", dropped)
        if self.sink is not None:
            self.sink.write(epoch, snapshot)
        if self.engine is not None:
            return self.engine.evaluate(self, epoch, registry=registry)
        return []

    def ingest_snapshot(self, epoch: int, metrics: Mapping[str, float]) -> list:
        """Fold an externally produced snapshot (e.g. a replayed JSONL
        line) into the series; return alert events, like
        :meth:`record_epoch`, but with no registry side effects."""
        epoch = int(epoch)
        for name, value in sorted(metrics.items()):
            value = float(value)
            if math.isfinite(value):
                self._append(name, epoch, value)
        self.snapshots_recorded += 1
        if self.last_epoch is None or epoch > self.last_epoch:
            self.last_epoch = epoch
        if self.engine is not None:
            return self.engine.evaluate(self, epoch)
        return []

    def _append(self, name: str, epoch: int, value: float) -> int:
        """Append one point; return how many old points fell off the ring."""
        points = self._points.setdefault(name, [])
        if points and points[-1][0] == epoch:
            points[-1] = (epoch, max(points[-1][1], value))
            return 0
        points.append((epoch, value))
        overflow = len(points) - self.capacity
        if overflow > 0:
            del points[:overflow]
            return overflow
        return 0

    # -- inspection ----------------------------------------------------- #

    @property
    def empty(self) -> bool:
        """True when no snapshot has contributed any point."""
        return not self._points

    def names(self) -> List[str]:
        """Sorted names of every recorded series."""
        return sorted(self._points)

    def series(self, name: str) -> List[Tuple[int, float]]:
        """The ``(epoch, value)`` points recorded for ``name``."""
        return list(self._points.get(name, ()))

    def latest(self) -> Dict[str, float]:
        """The most recent value of every series."""
        return {name: points[-1][1] for name, points in self._points.items()}

    # -- capsule-style state -------------------------------------------- #

    def state(self) -> Dict[str, object]:
        """The full pickleable state (plain containers only)."""
        return {
            "capacity": self.capacity,
            "snapshots": self.snapshots_recorded,
            "last_epoch": self.last_epoch,
            "points": {
                name: [list(point) for point in points]
                for name, points in self._points.items()
            },
        }

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Fold another recorder's :meth:`state` into this one.

        Point sets union per series keyed by epoch; a conflicting epoch
        resolves to ``max``, which commutes and associates, so merge
        order never changes the result.  Rings re-truncate to this
        recorder's capacity, keeping the most recent epochs.
        """
        for name, points in state.get("points", {}).items():
            merged = {epoch: value for epoch, value in self._points.get(name, ())}
            for epoch, value in points:
                epoch = int(epoch)
                value = float(value)
                if epoch in merged:
                    merged[epoch] = max(merged[epoch], value)
                else:
                    merged[epoch] = value
            ordered = sorted(merged.items())
            self._points[name] = ordered[-self.capacity:]
        self.snapshots_recorded += int(state.get("snapshots", 0))
        other_last = state.get("last_epoch")
        if other_last is not None:
            if self.last_epoch is None or int(other_last) > self.last_epoch:
                self.last_epoch = int(other_last)

    def clear(self) -> None:
        """Drop every recorded point (capacity and wiring stay)."""
        self._points.clear()
        self.snapshots_recorded = 0
        self.last_epoch = None


class MetricsStreamWriter:
    """A JSONL sink: one flat snapshot per line, flushed per epoch.

    The format is ``{"epoch": N, "metrics": {name: value, ...}}`` with
    sorted keys, so a stream file diffs cleanly across runs and a reader
    sees complete lines as epochs close.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.lines_written = 0

    def write(self, epoch: int, metrics: Mapping[str, float]) -> None:
        """Append one epoch snapshot and flush."""
        line = json.dumps(
            {"epoch": int(epoch), "metrics": dict(metrics)},
            sort_keys=True,
            allow_nan=False,
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        self.lines_written += 1

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "MetricsStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_metrics_stream(path) -> List[Tuple[int, Dict[str, float]]]:
    """Parse a metrics-stream JSONL file into epoch snapshots.

    A malformed line (e.g. the partial tail of a crashed or still-running
    writer) is skipped rather than fatal.
    """
    snapshots: List[Tuple[int, Dict[str, float]]] = []
    path = Path(path)
    if not path.exists():
        return snapshots
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                epoch = int(payload["epoch"])
                metrics = {
                    str(k): float(v) for k, v in payload["metrics"].items()
                }
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
            snapshots.append((epoch, metrics))
    return snapshots

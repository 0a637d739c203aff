"""Process-local metrics: counters, gauges, histograms, and the registry.

Design goals (mirroring what production rating pipelines need without
taking on any dependency):

- **Default-on, near-free.**  Instrumented code paths always call into the
  active registry, but the default registry is :data:`NULL_REGISTRY`,
  whose methods are no-ops -- the cost of uncollected telemetry is one
  attribute lookup and one no-op call.  Collection starts when a real
  :class:`MetricsRegistry` is installed (``set_registry`` /
  ``use_registry``) or injected into a component.
- **Injectable.**  Every instrumented component (``PScheme``,
  ``JointDetector``, ``TrustManager``, ``OnlineRatingSystem``,
  ``heuristic_region_search``) accepts a ``registry`` argument; ``None``
  means "whatever is globally active at call time", so tests can observe
  a single component without global state.
- **Summaries, not samples.**  Histograms keep running summary statistics
  (count/sum/min/max) plus a bounded reservoir of recent observations for
  percentiles, so memory stays O(1) per metric under heavy traffic.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "percentile",
    "set_registry",
    "use_registry",
]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of pre-sorted
    values (NaN when there are none)."""
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = float("nan")

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """Summary statistics over a stream of observations.

    Keeps exact count/sum/min/max and a bounded deque of the most recent
    observations (``reservoir`` entries) from which percentiles are
    estimated -- recency-biased by construction, which is what operational
    dashboards want.
    """

    __slots__ = ("count", "total", "min", "max", "_recent")

    RESERVOIR = 512

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._recent: Deque[float] = deque(maxlen=self.RESERVOIR)

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._recent.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold ``values`` in order, bit-identical to an :meth:`observe`
        loop: the sum accumulates left to right, and min/max use the
        same comparisons (so a NaN never becomes either)."""
        values = [float(value) for value in values]
        total, low, high = self.total, self.min, self.max
        for value in values:
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        self.count += len(values)
        self.total, self.min, self.max = total, low, high
        self._recent.extend(values)

    def state(self) -> Tuple[int, float, float, float, List[float]]:
        """The full pickleable state (count, sum, min, max, recent)."""
        return (self.count, self.total, self.min, self.max, list(self._recent))

    def merge_state(
        self,
        count: int,
        total: float,
        min_value: float,
        max_value: float,
        recent: Sequence[float],
    ) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Summary statistics combine exactly; the bounded reservoir is
        concatenated (recency bias is preserved because merges happen in
        dispatch order and the deque keeps the most recent entries).
        """
        if not count:
            return
        self.count += int(count)
        self.total += float(total)
        if min_value < self.min:
            self.min = min_value
        if max_value > self.max:
            self.max = max_value
        self._recent.extend(recent)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (0..100) over recent observations."""
        return percentile(sorted(self._recent), q)

    def summary(self) -> Dict[str, float]:
        """The exported summary dict."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """A collecting registry: named counters, gauges, histograms, spans.

    Metric handles are created lazily on first use and cached, so hot
    paths may either hold a handle (``registry.counter(name)``) or use the
    string-keyed convenience methods (``registry.inc(name)``).
    """

    #: Instrumented code may consult this to skip building expensive
    #: telemetry (e.g. per-rater loops) when nothing is collecting.
    enabled = True

    #: Completed span records kept for inspection (bounded).
    MAX_SPANS = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: List[object] = []
        #: Aggregated profiler samples: collapsed-stack key -> sample
        #: count (see :mod:`repro.obs.profile` for the key format).
        self.profile: Dict[str, float] = {}
        #: Optional attached :class:`~repro.obs.series.TimeSeriesRecorder`
        #: snapshotting this registry at epoch boundaries.
        self.series = None

    # -- handle creation ----------------------------------------------- #

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        try:
            return self.counters[name]
        except KeyError:
            with self._lock:
                return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        try:
            return self.gauges[name]
        except KeyError:
            with self._lock:
                return self.gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        try:
            return self.histograms[name]
        except KeyError:
            with self._lock:
                return self.histograms.setdefault(name, Histogram())

    # -- string-keyed convenience API ---------------------------------- #

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name``."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Observe ``value`` into histogram ``name``."""
        self.histogram(name).observe(value)

    def record_span(self, record) -> None:
        """Fold one completed span into the registry."""
        self.observe(f"span.{record.path}.seconds", record.duration)
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append(record)

    def adopt_span(self, record) -> None:
        """Append an already-recorded span (e.g. merged from a worker).

        Unlike :meth:`record_span` this does *not* observe the duration
        histogram -- the producing registry already did, and histogram
        merges carry that over -- it only re-homes the record into this
        registry's span list (bounded by :data:`MAX_SPANS`).
        """
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append(record)

    def add_profile_samples(self, samples: Dict[str, float]) -> None:
        """Fold profiler sample counts into the registry's profile.

        Counts add per collapsed-stack key, so merging worker profiles in
        task order is commutative and deterministic.
        """
        with self._lock:
            for key, count in samples.items():
                self.profile[key] = self.profile.get(key, 0.0) + float(count)

    def attach_series(self, recorder) -> None:
        """Attach a time-series recorder to snapshot this registry.

        Components that close epochs (``OnlineRatingSystem``, the CLI
        report pipeline) look here for the recorder to feed, so a single
        attachment turns scalar telemetry into series everywhere.
        """
        self.series = recorder

    # -- inspection ----------------------------------------------------- #

    def counter_value(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        counter = self.counters.get(name)
        return counter.value if counter is not None else 0.0

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict view of everything collected (JSON-ready)."""
        return {
            "counters": {k: v.value for k, v in sorted(self.counters.items())},
            "gauges": {k: v.value for k, v in sorted(self.gauges.items())},
            "histograms": {
                k: v.summary() for k, v in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric and recorded span (and any recorded series)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.spans.clear()
            self.profile.clear()
            if self.series is not None:
                self.series.clear()


class NullRegistry(MetricsRegistry):
    """The no-op registry active when no sink is configured.

    Every recording method returns immediately; handle creation returns
    shared throwaway objects so accidental handle caching stays harmless.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = Counter()
        self._null_gauge = Gauge()
        self._null_histogram = Histogram()

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        return self._null_histogram

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def record_span(self, record) -> None:
        pass

    def adopt_span(self, record) -> None:
        pass

    def add_profile_samples(self, samples: Dict[str, float]) -> None:
        pass

    def attach_series(self, recorder) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The shared no-op sink; identity-compared by fast paths.
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently active registry (:data:`NULL_REGISTRY` by default)."""
    return _active


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` globally (``None`` -> disable collection).

    Returns the previously active registry so callers can restore it.
    """
    global _active
    previous = _active
    _active = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` as the global sink."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)

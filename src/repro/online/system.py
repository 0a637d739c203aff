"""Streaming facade over the batch aggregation pipeline.

Design: the system keeps each product's ratings as four columns (time,
value, rater id, unfair flag).  History streams extend the columns from
their arrays, and :meth:`OnlineRatingSystem.submit` appends one row per
:class:`~repro.types.Rating`.  When an epoch closes (every ``period_days``
of rating time, or explicitly via :meth:`OnlineRatingSystem.close_epoch`),
each product's columns become one immutable stream and the configured
scheme's ``monthly_scores`` is evaluated over the *full* history --
detection is a whole-stream operation (windows straddle epoch
boundaries), so published scores must be recomputed from history, not
incrementally patched.  Each snapshot stream is the product's last one
merged with the rows ingested since (:meth:`~repro.types.RatingStream.merge`),
so it records its lineage, and the P-scheme's caches keep the
recomputation cost proportional to what actually changed: unchanged
streams hit its report cache, and a grown stream recomputes only the
detector windows its new rows reach.

A rating is late when at least one epoch is already published and its
timestamp precedes the accumulating epoch.  Before the first close
nothing is published, so a rating timestamped before ``start_day`` is
not late then.  Late ratings are accepted into the history and
attributed to the epoch their *timestamp* lands in (pre-origin times
clamp to epoch 0), not the epoch that happened to be accumulating when
they arrived -- a late rating arriving after a far-future rating
auto-closed several epochs would otherwise be charged to an unrelated
report (or, for the skipped epochs, to none at all).  Published
``EpochReport`` objects are immutable, so the
:attr:`OnlineRatingSystem.reports` view restates ``late_ratings`` with
everything learned since publication, consistent with this system's
recompute-from-history policy; the snapshot returned by
:meth:`close_epoch` keeps the counts known at publish time.

Each report also carries a ``telemetry`` block (ingest rate, late-rating
totals, scheme latency), and the same signals flow into the active
metrics registry under ``online.*``.

Every epoch close also runs the :mod:`repro.obs.drift` assumption
monitors over the closed window (Poisson arrival dispersion, residual
whiteness, mean drift vs the calibrated fair model): violations are
published as ``EpochReport.drift_warnings``, logged, and counted under
``drift.*``.  The monitor calibrates its fair mean from the pre-start
history when one is supplied, else from the first monitored window.
Pass ``monitor_drift=False`` to disable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ValidationError
from repro.obs import get_logger
from repro.obs.alerts import AlertEvent
from repro.obs.drift import DriftMonitor, DriftMonitorConfig, DriftWarning
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.series import TimeSeriesRecorder
from repro.types import Rating, RatingDataset, RatingStream

__all__ = ["EpochReport", "OnlineRatingSystem"]

logger = get_logger(__name__)

_Columns = Tuple[List[float], List[float], List[str], List[bool]]


@dataclass(frozen=True)
class EpochReport:
    """Everything published when one scoring epoch closes.

    ``late_ratings`` counts ratings whose timestamps land inside this
    epoch's window but that arrived after the epoch was published (known
    at the time the report was materialized -- see the module docstring).
    ``telemetry`` carries operational measurements: ``ratings_ingested``,
    ``ingest_rate_per_day``, ``late_ratings_total`` (cumulative across the
    system), ``scheme_seconds`` (wall-clock cost of the aggregation
    scheme for this close), and ``drift_warnings`` (assumption
    violations raised for this epoch).  ``drift_warnings`` holds the
    structured :class:`~repro.obs.drift.DriftWarning` records themselves.
    """

    epoch_index: int
    epoch_start: float
    epoch_end: float
    scores: Mapping[str, float]
    ratings_ingested: int
    late_ratings: int
    telemetry: Mapping[str, float] = field(default_factory=dict)
    drift_warnings: Tuple[DriftWarning, ...] = ()
    #: Alert state transitions produced at this epoch's close (only when
    #: a series recorder with an alert engine is attached).
    alerts: Tuple[AlertEvent, ...] = ()

    def score_of(self, product_id: str) -> float:
        """Published score for ``product_id`` (NaN when unscored)."""
        return self.scores.get(product_id, float("nan"))


class OnlineRatingSystem:
    """Ingest ratings one at a time; publish scores per epoch.

    Parameters
    ----------
    scheme:
        Any aggregation scheme (``monthly_scores`` protocol).
    start_day:
        Time origin of the first scoring epoch.
    period_days:
        Epoch length (the paper's MP metric uses 30-day periods).
    history:
        Optional pre-existing rating data (e.g. the pre-challenge
        history) the detectors should see from the start.
    registry:
        Metrics sink for this system's telemetry; ``None`` uses the
        globally active registry at call time.
    monitor_drift:
        Run the :mod:`repro.obs.drift` assumption monitors on every
        epoch close (default on).
    drift_config:
        Monitor tunables; ``None`` uses the calibrated defaults.  When
        its ``fair_mean`` is unset the monitor calibrates from
        ``history`` (or self-calibrates on the first monitored window).
    series_recorder:
        Explicit :class:`~repro.obs.series.TimeSeriesRecorder` snapshotted
        at every epoch close; ``None`` falls back to the recorder attached
        to the effective registry (if any).
    """

    def __init__(
        self,
        scheme,
        start_day: float = 0.0,
        period_days: float = 30.0,
        history: Optional[RatingDataset] = None,
        registry: Optional[MetricsRegistry] = None,
        monitor_drift: bool = True,
        drift_config: Optional[DriftMonitorConfig] = None,
        series_recorder: Optional[TimeSeriesRecorder] = None,
    ) -> None:
        if period_days <= 0:
            raise ValidationError(f"period_days must be > 0, got {period_days}")
        self.scheme = scheme
        self.start_day = float(start_day)
        self.period_days = float(period_days)
        self._registry = registry
        # Per product, in first-sighting order: time, value, rater id and
        # unfair columns, the arguments of ``RatingStream``.
        self._columns: Dict[str, _Columns] = {}
        # Per product, the stream the last snapshot published.
        self._snapshots: Dict[str, RatingStream] = {}
        if history is not None:
            for stream in history.streams():
                times, values, raters, unfair = self._columns_of(stream.product_id)
                times.extend(stream.times.tolist())
                values.extend(stream.values.tolist())
                raters.extend(stream.rater_ids)
                unfair.extend(stream.unfair.tolist())
        self.drift_monitor: Optional[DriftMonitor] = None
        if monitor_drift:
            self.drift_monitor = DriftMonitor(
                config=drift_config, registry=registry
            )
            if history is not None and history.total_ratings():
                self.drift_monitor.calibrate(history)
        self._series_recorder = series_recorder
        self._epochs_closed = 0
        self._ingested_this_epoch = 0
        # Late arrivals keyed by the epoch index their timestamp lands in.
        self._late_by_epoch: Dict[int, int] = {}
        self._late_total = 0
        self._reports: List[EpochReport] = []

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics sink in effect (injected, else the global one)."""
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    @property
    def current_epoch_start(self) -> float:
        """Start time of the epoch currently accumulating."""
        return self.start_day + self._epochs_closed * self.period_days

    @property
    def current_epoch_end(self) -> float:
        """End time (exclusive) of the epoch currently accumulating."""
        return self.current_epoch_start + self.period_days

    def _columns_of(self, product_id: str) -> _Columns:
        """The column lists of ``product_id``, created on first sighting."""
        columns = self._columns.get(product_id)
        if columns is None:
            columns = self._columns[product_id] = ([], [], [], [])
        return columns

    def _epoch_index_of(self, time: float) -> int:
        """The scoring epoch a timestamp lands in (pre-start clamps to 0)."""
        return max(0, int((time - self.start_day) // self.period_days))

    def submit(self, rating: Rating) -> List[EpochReport]:
        """Ingest one rating; auto-close any epochs its timestamp passes.

        Returns the (possibly empty) list of epoch reports published as a
        consequence -- a rating far in the future closes several epochs.
        Once an epoch is published, a rating timestamped before the
        accumulating epoch counts as late (see the module docstring).
        """
        published: List[EpochReport] = []
        while rating.time >= self.current_epoch_end:
            published.append(self.close_epoch())
        if self._epochs_closed and rating.time < self.current_epoch_start:
            landing = self._epoch_index_of(rating.time)
            self._late_by_epoch[landing] = self._late_by_epoch.get(landing, 0) + 1
            self._late_total += 1
            self.registry.inc("online.late_ratings")
        times, values, raters, unfair = self._columns_of(rating.product_id)
        times.append(rating.time)
        values.append(rating.value)
        raters.append(rating.rater_id)
        unfair.append(rating.unfair)
        self._ingested_this_epoch += 1
        self.registry.inc("online.ratings_ingested")
        return published

    def submit_many(self, ratings) -> List[EpochReport]:
        """Ingest an iterable of ratings (time-ordered or not)."""
        published: List[EpochReport] = []
        for rating in ratings:
            published.extend(self.submit(rating))
        return published

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def dataset(self) -> RatingDataset:
        """Immutable snapshot of everything ingested so far.

        Each product's stream is its last one merged with the rows
        ingested since (the same object if none were).  That equals
        ``RatingStream(product_id, *columns)`` bit for bit: the old rows
        were all ingested first, so time ties keep ingestion order.
        """
        for product_id, columns in self._columns.items():
            last = self._snapshots.get(product_id)
            if last is None:
                self._snapshots[product_id] = RatingStream(product_id, *columns)
            elif len(columns[0]) > len(last):
                tail = (column[len(last):] for column in columns)
                self._snapshots[product_id] = last.merge(
                    RatingStream(product_id, *tail)
                )
        return RatingDataset(self._snapshots[p] for p in self._columns)

    def close_epoch(self) -> EpochReport:
        """Close the current epoch and publish its scores."""
        epoch_start = self.current_epoch_start
        epoch_end = self.current_epoch_end
        snapshot = self.dataset()
        scheme_seconds = 0.0
        if len(snapshot) and snapshot.total_ratings():
            tick = perf_counter()
            scores_series = self.scheme.monthly_scores(
                snapshot,
                period_days=self.period_days,
                start_day=self.start_day,
                end_day=epoch_end,
            )
            scheme_seconds = perf_counter() - tick
            index = self._epochs_closed
            scores = {
                product_id: float(series[index]) if index < series.size else float("nan")
                for product_id, series in scores_series.items()
            }
        else:
            scores = {}
        ingested = self._ingested_this_epoch
        drift_warnings: Tuple[DriftWarning, ...] = ()
        if self.drift_monitor is not None and len(snapshot):
            drift_warnings = tuple(
                self.drift_monitor.check_epoch(snapshot, epoch_start, epoch_end)
            )
        telemetry = {
            "ratings_ingested": float(ingested),
            "ingest_rate_per_day": ingested / self.period_days,
            "late_ratings_total": float(self._late_total),
            "scheme_seconds": scheme_seconds,
            "drift_warnings": float(len(drift_warnings)),
        }
        registry = self.registry
        registry.inc("online.epochs_closed")
        registry.observe("online.scheme_seconds", scheme_seconds)
        registry.set_gauge("online.products", float(len(self._columns)))
        # Snapshot the registry *after* this epoch's own telemetry landed
        # so the recorded series reflect the epoch being published; the
        # recorder also drives the alert engine, whose events ride on the
        # published report.
        alerts: Tuple[AlertEvent, ...] = ()
        recorder = (
            self._series_recorder
            if self._series_recorder is not None
            else registry.series
        )
        if recorder is not None:
            alerts = tuple(recorder.record_epoch(self._epochs_closed, registry))
        report = EpochReport(
            epoch_index=self._epochs_closed,
            epoch_start=epoch_start,
            epoch_end=epoch_end,
            scores=scores,
            ratings_ingested=ingested,
            late_ratings=self._late_by_epoch.get(self._epochs_closed, 0),
            telemetry=telemetry,
            drift_warnings=drift_warnings,
            alerts=alerts,
        )
        self._reports.append(report)
        self._epochs_closed += 1
        self._ingested_this_epoch = 0
        logger.info(
            "epoch=%d window=[%.1f, %.1f) products_scored=%d ingested=%d "
            "scheme_seconds=%.4f",
            report.epoch_index, epoch_start, epoch_end, len(scores),
            ingested, scheme_seconds,
        )
        return report

    def _restated(self, report: EpochReport) -> EpochReport:
        """The report with late-rating knowledge learned since publish."""
        known = self._late_by_epoch.get(report.epoch_index, 0)
        if known == report.late_ratings:
            return report
        return replace(report, late_ratings=known)

    @property
    def reports(self) -> Tuple[EpochReport, ...]:
        """All epoch reports published so far, with ``late_ratings``
        restated to include late arrivals discovered after publication."""
        return tuple(self._restated(report) for report in self._reports)

    def late_ratings_by_epoch(self) -> Dict[int, int]:
        """Late-arrival counts keyed by the epoch the rating landed in."""
        return dict(self._late_by_epoch)

    def latest_scores(self) -> Mapping[str, float]:
        """The most recently published per-product scores ({} if none)."""
        if not self._reports:
            return {}
        return dict(self._reports[-1].scores)

"""Streaming facade over the batch aggregation pipeline.

Design: ratings arrive in batches of columns.
:meth:`OnlineRatingSystem.submit_many` takes either
:class:`~repro.types.Rating` records, which arrive in iteration order,
or a :class:`~repro.types.RatingDataset`, whose rows arrive in
``Rating`` order ``(time, rater_id, product_id, value)``, so that
``submit_many(dataset)`` behaves exactly like
``submit_many(sorted(records))``; :meth:`OnlineRatingSystem.submit` is a
batch of one.  A batch of records is checked whole (finite times and
values; a dataset's streams checked their own columns) before anything
is ingested, then cut at epoch edges: an epoch closes before the first
rating whose time reaches its end, found by one ``np.searchsorted``
over the running maximum of the batch's times.  At each cut the
late-rating rule is applied, each product's rows are appended as one
column chunk (arrival order holds within a product), products seen for
the first time join the snapshot order in arrival order, and
``online.ratings_ingested`` and ``online.late_ratings`` are incremented
once, so every per-epoch series reads what a rating-by-rating ingest
would.

Each product's rows are kept once: the stream its last snapshot
published (at first its ``history`` stream) plus the chunks ingested
since.  When an epoch closes (every ``period_days`` of rating time, or
explicitly via :meth:`OnlineRatingSystem.close_epoch`), each product's
chunks are merged into its last stream
(:meth:`~repro.types.RatingStream.merge`) and the configured scheme's
``monthly_scores`` is evaluated over the *full* history -- detection is
a whole-stream operation (windows straddle epoch boundaries), so
published scores must be recomputed from history, not incrementally
patched.  A merged snapshot records its lineage, and the P-scheme's
caches keep the recomputation cost proportional to what actually
changed: unchanged streams hit its report cache, and a grown stream
recomputes only the detector windows its new rows reach.

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
from itertools import chain
from time import perf_counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.obs import get_logger
from repro.obs.alerts import AlertEvent
from repro.obs.drift import DriftMonitor, DriftMonitorConfig, DriftWarning
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.series import TimeSeriesRecorder
from repro.types import Rating, RatingDataset, RatingStream, _gather

__all__ = ["EpochReport", "OnlineRatingSystem"]

logger = get_logger(__name__)

#: One product's rows of one cut: times, values, rater ids, unfair flags.
_Chunk = Tuple[np.ndarray, np.ndarray, Tuple[str, ...], np.ndarray]

#: A batch in arrival order: ``(product_ids, codes, times, values, rater
#: ids, unfair)``, where row ``i`` rates ``product_ids[codes[i]]``.
_Batch = Tuple[
    Tuple[str, ...], np.ndarray, np.ndarray, np.ndarray, Tuple[str, ...], np.ndarray
]


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
    """Ingest batches of ratings as they arrive; publish scores per epoch.

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
        # Every ingested row is kept once: per product, in first-sighting
        # order, the chunks ingested since its last snapshot, and in
        # ``_snapshots`` the stream that snapshot published (at first the
        # history stream).
        self._tails: Dict[str, List[_Chunk]] = {}
        self._snapshots: Dict[str, RatingStream] = {}
        if history is not None:
            for stream in history.streams():
                self._tails[stream.product_id] = []
                self._snapshots[stream.product_id] = stream
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

    def _epoch_index_of(self, time: float) -> int:
        """The scoring epoch a timestamp lands in (pre-start clamps to 0)."""
        return max(0, int((time - self.start_day) // self.period_days))

    def submit(self, rating: Rating) -> List[EpochReport]:
        """Ingest one rating: a batch of one (see :meth:`submit_many`).

        Every batch has a fixed cost (some twenty numpy calls), so a live
        feed is far cheaper per rating submitted in batches.
        """
        return self.submit_many((rating,))

    def submit_many(self, ratings) -> List[EpochReport]:
        """Ingest a batch; auto-close every epoch its timestamps pass.

        ``ratings`` is an iterable of :class:`~repro.types.Rating`
        records, which arrive in iteration order (time-ordered or not), or
        a :class:`~repro.types.RatingDataset`, whose rows arrive in
        ``Rating`` order, so ``submit_many(dataset)`` behaves exactly like
        ``submit_many(sorted(records))`` over the dataset's records.
        Returns the (possibly empty) list of epoch reports published as a
        consequence -- a rating far in the future closes several.  Once an
        epoch is published, a rating timestamped before the accumulating
        epoch counts as late (see the module docstring).
        """
        if isinstance(ratings, RatingDataset):
            return self._ingest(*_dataset_batch(ratings.streams()))
        return self._ingest(*_record_batch(ratings))

    def _ingest(
        self,
        product_ids: Sequence[str],
        codes: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        rater_ids: Sequence[str],
        unfair: np.ndarray,
    ) -> List[EpochReport]:
        """Ingest one valid batch of columns in arrival order (see
        :data:`_Batch`).

        Rows are ingested up to the first one whose time reaches the
        accumulating epoch's end, then that epoch closes: the running
        maximum of the times is searched against the same
        ``current_epoch_end`` that a rating-by-rating loop compares, so
        every cut lands where that loop would close.
        """
        n = times.size
        peaks = np.maximum.accumulate(times)
        published: List[EpochReport] = []
        start = 0
        while True:
            stop = int(np.searchsorted(peaks, self.current_epoch_end))
            if stop > start:
                rows = slice(start, stop)
                self._append(
                    product_ids, codes[rows], times[rows], values[rows],
                    rater_ids[rows], unfair[rows],
                )
            if stop == n:
                return published
            published.append(self.close_epoch())
            start = stop

    def _append(
        self,
        product_ids: Sequence[str],
        codes: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        rater_ids: Sequence[str],
        unfair: np.ndarray,
    ) -> None:
        """Ingest the rows of one cut into the accumulating epoch."""
        registry = self.registry
        if self._epochs_closed:
            late = times[times < self.current_epoch_start]
            for time in late.tolist():
                landing = self._epoch_index_of(time)
                self._late_by_epoch[landing] = self._late_by_epoch.get(landing, 0) + 1
            if late.size:
                self._late_total += late.size
                registry.inc("online.late_ratings", late.size)
        # One stable sort groups the rows by product in arrival order; a
        # group's first row is its product's first arrival, and products
        # new to the system join it in that order.
        order = np.argsort(codes, kind="stable")
        grouped = codes[order]
        firsts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
        ends = np.concatenate((firsts[1:], [order.size]))
        for g in np.argsort(order[firsts]).tolist():
            rows = order[firsts[g]:ends[g]]
            chunks = self._tails.setdefault(product_ids[grouped[firsts[g]]], [])
            chunks.append(
                (times[rows], values[rows], _gather(rater_ids, rows), unfair[rows])
            )
        self._ingested_this_epoch += order.size
        registry.inc("online.ratings_ingested", order.size)

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def dataset(self) -> RatingDataset:
        """Immutable snapshot of everything ingested so far.

        Each product's stream is its last one merged with the chunks
        ingested since (the same object if none were).  That equals
        ``RatingStream`` over all its rows in ingestion order, bit for
        bit: the old rows were all ingested first, so time ties keep
        ingestion order.
        """
        for product_id, chunks in self._tails.items():
            if chunks:
                tail = _tail_stream(product_id, chunks)
                last = self._snapshots.get(product_id)
                self._snapshots[product_id] = (
                    tail if last is None else last.merge(tail)
                )
                chunks.clear()
        return RatingDataset(self._snapshots[p] for p in self._tails)

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
        registry.observe("online.scheme_seconds", scheme_seconds)
        registry.set_gauge("online.products", float(len(self._tails)))
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


def _python_ranks(ids: Sequence[str]) -> np.ndarray:
    """Rank of each id in Python's string order, as ``sorted`` ranks it.

    The ids stay Python strings: a numpy ``U`` array would drop trailing
    NULs and tie ``"a\\x00"`` with ``"a"``.
    """
    rank = {key: i for i, key in enumerate(sorted(set(ids)))}
    return np.fromiter(map(rank.__getitem__, ids), dtype=np.intp, count=len(ids))


def _record_batch(ratings: Iterable[Rating]) -> _Batch:
    """``Rating`` records as one batch, in iteration order.

    A ``Rating`` rejects non-finite fields when it is built, but any
    object with a ``Rating``'s attributes is read as one, so the times
    and values are checked here, whole: a bad record ingests nothing
    (and an infinite time would close epochs forever).
    """
    records = list(ratings)
    index: Dict[str, int] = {}
    codes = np.fromiter(
        (index.setdefault(str(r.product_id), len(index)) for r in records),
        dtype=np.intp,
        count=len(records),
    )
    times = np.array([r.time for r in records], dtype=float)
    values = np.array([r.value for r in records], dtype=float)
    if not np.isfinite(times).all():
        raise ValidationError("rating times must be finite")
    if not np.isfinite(values).all():
        raise ValidationError("rating values must be finite")
    return (
        tuple(index),
        codes,
        times,
        values,
        tuple(str(r.rater_id) for r in records),
        np.array([r.unfair for r in records], dtype=bool),
    )


def _dataset_batch(streams: Sequence[RatingStream]) -> _Batch:
    """Every row of ``streams`` as one batch, in ``Rating`` order.

    One stable ``np.lexsort`` over the columns reproduces ``sorted`` over
    the streams' ``Rating`` records, whose order is ``(time, rater_id,
    product_id, value)``: full ties keep the streams' order.  The rows
    are valid already (a ``RatingStream`` checks its columns), so nothing
    is re-checked.
    """
    if not streams:
        return _record_batch(())
    product_ids = tuple(stream.product_id for stream in streams)
    codes = np.repeat(np.arange(len(streams)), [len(s) for s in streams])
    rater_ids = tuple(chain.from_iterable(s.rater_ids for s in streams))
    times, values, unfair = (
        np.concatenate([getattr(s, column) for s in streams])
        for column in ("times", "values", "unfair")
    )
    order = np.lexsort(
        (values, _python_ranks(product_ids)[codes], _python_ranks(rater_ids), times)
    )
    return (
        product_ids,
        codes[order],
        times[order],
        values[order],
        _gather(rater_ids, order),
        unfair[order],
    )


def _tail_stream(product_id: str, chunks: List[_Chunk]) -> RatingStream:
    """One stream over a product's chunks, in ingestion order.

    The ingest checked every row, so a tail whose times are already in
    order is taken as it is; any other is sorted by ``RatingStream``.
    """
    times, values, rater_ids, unfair = zip(*chunks)
    columns = (
        np.concatenate(times),
        np.concatenate(values),
        tuple(chain.from_iterable(rater_ids)),
        np.concatenate(unfair),
    )
    if np.all(columns[0][1:] >= columns[0][:-1]):
        return RatingStream._sorted(product_id, *columns)
    return RatingStream(product_id, *columns)

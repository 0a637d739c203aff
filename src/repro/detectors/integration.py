"""Joint detection of suspicious ratings -- paper Section IV-F, Figure 1.

Single detectors false-alarm on natural variation (fair ratings drift in
mean and arrival rate), so the paper combines them along two parallel
paths:

**Path 1 (strong attacks).**  The MC curve shows a suspicious interval
(the U-shape bracketed by two peaks, or a trust-moderated suspicious
segment) *and* the H-ARC or L-ARC curve independently shows one too.
Where the two intervals overlap, the correspondingly high (``> a``)
or low (``< b``) ratings are marked suspicious.

**Path 2 (alarm-confirmed intervals).**  When an H-ARC (L-ARC) alarm is
raised -- the side-specific arrival rate is anomalous -- the ME (HC)
detector is consulted: ratings that are high (low) inside an
ME-suspicious (HC-suspicious) interval are marked.

Both paths always run; their marks are unioned (a product can be attacked
more than once, Section IV-F).

:meth:`JointDetector.analyze_batch` is the production path: it builds the
MC curve and the H-/L-ARC series of every stream of a dataset with the
batch builders of :mod:`repro.signal.curves`, one cross-stream pass
each, reads each stream's H-/L-ARC alarm off its series
(:meth:`~repro.detectors.arrival_rate.ArrivalRateDetector.alarm`), and
then builds the ME curves of the H-ARC-alarmed streams and the HC curves
of the L-ARC-alarmed ones, one pass each: Path 2 consults nothing else,
and with Path 2 disabled neither is built.  It then runs each
sub-detector over the batch and marks each stream.
:meth:`JointDetector.analyze` is a batch of one, so both calls run the
same code and give the same report.

The detector keeps the curve values of the last :data:`CURVE_CACHE_SIZE`
streams built, keyed by fingerprint, so a stream found there, or whose
merge base is, computes only the windows that changed (the copy rule of
:mod:`repro.signal.curves`).  An entry holds MC, plus HC and ME where
they were built; a stream that needs a kind its base lacks builds that
kind whole.  The ARC series are a day count and a prefix sum, and are
always built whole.

Every mark also records *provenance*: which path fired and which
sub-detectors contributed, as ``PROV_*`` bit flags per rating
(:mod:`repro.detectors.base`).  The mask travels on the
:class:`DetectionReport`, feeding per-decision attribution (the CLI's
``detect --explain``) without re-running detection.  Each sub-detector
that a batch needs (MC, H-ARC and L-ARC always; ME and HC where Path 2
consults them) runs over the batch under one ``detector.<kind>`` span
(nested under whatever stage span is open), which times it into the
active metrics registry; when a collecting registry is active, each
verdict is additionally joined against the stream's ground-truth unfair
labels into a :mod:`repro.obs.quality` scorecard, and the batch's
scorecards are folded in once (``quality.*`` counters: per-detector
confusion cells, detection latency, bias at detection).

Implementation note: the paper issues the Path 2 alarm only when the ARC
curve "does not have such a U-shape"; we raise it whenever the curve
exceeds the alarm threshold, because the ME/HC confirmation step already
suppresses false positives and this keeps Path 2 effective when Path 1
misses (e.g. an MC curve flattened by a high-variance attack).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.detectors.arrival_rate import (
    ArrivalRateDetector,
    ArrivalRateReport,
    arrival_series,
)
from repro.detectors.base import (
    PROV_H_ARC,
    PROV_HC,
    PROV_L_ARC,
    PROV_MC,
    PROV_ME,
    PROV_PATH1,
    PROV_PATH2,
    DetectionReport,
    DetectorConfig,
    TimeInterval,
)
from repro.detectors.columns import extract_columns
from repro.detectors.histogram import HistogramChangeDetector, HistogramChangeReport
from repro.detectors.mean_change import MeanChangeDetector, MeanChangeReport
from repro.detectors.model_error import ModelErrorDetector, ModelErrorReport
from repro.obs import get_logger
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.spans import span
from repro.signal.curves import (
    ArrivalSeries,
    Curve,
    histogram_change_curves,
    mean_change_curves_by_time,
    model_error_curves,
)
from repro.types import RatingDataset, RatingStream

__all__ = ["JointDetector", "CURVE_CACHE_SIZE"]

TrustLookup = Callable[[str], float]

#: What the batch pass builds per stream and kind: the MC curve, the
#: H-/L-ARC series, and the HC and ME curves where Path 2 consults them.
Curves = Union[Curve, ArrivalSeries]

#: Streams whose curve values (MC, and HC and ME where built) a detector
#: keeps (LRU).
CURVE_CACHE_SIZE = 64

_NO_ROWS = np.empty(0, dtype=np.intp)

logger = get_logger(__name__)


class JointDetector:
    """The complete suspicious-rating detection stage of the P-scheme.

    ``registry`` injects a metrics sink for this detector's telemetry;
    when ``None`` the globally active registry is used at call time.
    """

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else DetectorConfig()
        self._registry = registry
        self.mean_change = MeanChangeDetector(self.config)
        self.h_arc = ArrivalRateDetector("H-ARC", self.config)
        self.l_arc = ArrivalRateDetector("L-ARC", self.config)
        self.histogram = HistogramChangeDetector(self.config)
        self.model_error = ModelErrorDetector(self.config)
        # Fingerprint -> curve values by kind ("MC", and "HC" / "ME" where
        # built).  The config is fixed, so one cache per detector is sound.
        self._curve_cache: "OrderedDict[tuple, Dict[str, np.ndarray]]" = OrderedDict()

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics sink in effect (injected, else the global one)."""
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------ #

    @staticmethod
    def _report_intervals(report) -> List[TimeInterval]:
        """All suspicious intervals a sub-detector produced.

        For MC and ARC reports this unions the U-shape interval (when
        present) with the segment-based suspicious intervals.
        """
        intervals: List[TimeInterval] = list(report.suspicious_intervals)
        u_shape = getattr(report, "u_shape", None)
        if u_shape is not None:
            intervals.append(TimeInterval.from_u_shape(u_shape))
        return intervals

    @staticmethod
    def _mark(
        mask: np.ndarray,
        provenance: np.ndarray,
        stream: RatingStream,
        interval: TimeInterval,
        value_mask: np.ndarray,
        flags: int,
    ) -> None:
        """Mark ratings inside ``interval`` that satisfy ``value_mask``,
        recording ``flags`` as their provenance."""
        hit = interval.mask(stream.times) & value_mask
        mask |= hit
        provenance[hit] |= flags

    def _path1(
        self,
        stream: RatingStream,
        mc_report: MeanChangeReport,
        harc_report: ArrivalRateReport,
        larc_report: ArrivalRateReport,
        high_mask: np.ndarray,
        low_mask: np.ndarray,
        mask: np.ndarray,
        provenance: np.ndarray,
    ) -> List[TimeInterval]:
        """Path 1: MC interval overlapping an H/L-ARC interval.

        The MC detector *confirms* that the rating level moved; the ARC
        interval *delimits* the attack (arrival anomalies bracket exactly
        the injected ratings, while the strongest MC peak pair may span
        only a slice of a long attack).  So on overlap, the whole ARC
        interval is marked.
        """
        fired: List[TimeInterval] = []
        mc_intervals = self._report_intervals(mc_report)
        for arc_report, value_mask, arc_flag in (
            (harc_report, high_mask, PROV_H_ARC),
            (larc_report, low_mask, PROV_L_ARC),
        ):
            for arc_interval in self._report_intervals(arc_report):
                confirmed = any(
                    mc_interval.intersect(arc_interval) is not None
                    for mc_interval in mc_intervals
                )
                if not confirmed:
                    continue
                self._mark(
                    mask, provenance, stream, arc_interval, value_mask,
                    PROV_PATH1 | PROV_MC | arc_flag,
                )
                fired.append(arc_interval)
        return fired

    def _path2(
        self,
        stream: RatingStream,
        me_report: Optional[ModelErrorReport],
        hc_report: Optional[HistogramChangeReport],
        high_mask: np.ndarray,
        low_mask: np.ndarray,
        mask: np.ndarray,
        provenance: np.ndarray,
    ) -> List[TimeInterval]:
        """Path 2: ARC alarm confirmed by the ME or HC detector, which ran
        (a report, not ``None``) only on its side's alarm."""
        fired: List[TimeInterval] = []
        for report, value_mask, flags in (
            (me_report, high_mask, PROV_PATH2 | PROV_H_ARC | PROV_ME),
            (hc_report, low_mask, PROV_PATH2 | PROV_L_ARC | PROV_HC),
        ):
            if report is None:
                continue
            for interval in report.suspicious_intervals:
                self._mark(mask, provenance, stream, interval, value_mask, flags)
                fired.append(interval)
        return fired

    # ------------------------------------------------------------------ #

    def _run(self, kind: str, analyze: Callable, calls: Sequence[tuple]) -> list:
        """``analyze(*args)`` for each ``args`` of ``calls``, in order.

        One ``detector.<kind>`` span (nested under whatever stage is
        open) times the whole batch, and is what the sampling profiler
        attributes frames to; a kind with no calls opens none.
        """
        if not calls:
            return []
        with span(f"detector.{kind}", self.registry):
            return [analyze(*args) for args in calls]

    def _cached(self, stream: RatingStream):
        """``(curve values by kind, added rows)`` cached for ``stream``
        itself, else for its merge base, else ``None``.  A hit moves to
        the back."""
        cache = self._curve_cache
        for key, added in (
            (stream.fingerprint, _NO_ROWS),
            (stream.lineage or (None, None)),
        ):
            if key in cache:
                cache.move_to_end(key)
                return cache[key], added
        return None

    def _curves(
        self,
        streams: Sequence[RatingStream],
        times: np.ndarray,
        values: np.ndarray,
        bounds: Sequence[Tuple[int, int]],
    ) -> Tuple[List[Dict[str, Curves]], bool]:
        """The curves and series of a batch of streams, keyed by kind, one
        dict per stream, and whether the stacked ME solve fell back (see
        :func:`~repro.signal.curves.model_error_curves`).

        Stream ``j`` is rows ``bounds[j][0]:bounds[j][1]`` of ``times``
        and ``values``.  Every stream gets its MC curve and its H-/L-ARC
        series, the series built whole, every stream's in one pass.  With
        Path 2 enabled, a stream whose H-ARC (L-ARC) series raises its
        alarm also gets its ME (HC) curve, which Path 2 consults there.
        Each of the MC, HC and ME curves reuses the values of its kind that
        the curve cache holds for the stream or its merge base, and lands
        in the cache.
        """
        cfg = self.config
        found = [self._cached(stream) for stream in streams]

        def reuse(kind: str, rows: Sequence[int]) -> list:
            return [
                None
                if found[j] is None or kind not in found[j][0]
                else (found[j][0][kind], found[j][1])
                for j in rows
            ]

        arc = arrival_series((self.h_arc, self.l_arc), times, values, bounds)
        consult = cfg.enable_path2
        me_rows = [j for j, (h, _) in enumerate(arc) if consult and self.h_arc.alarm(h)]
        hc_rows = [j for j, (_, b) in enumerate(arc) if consult and self.l_arc.alarm(b)]
        mc = mean_change_curves_by_time(
            times, values, bounds, cfg.mc_window_days, reuse("MC", range(len(streams)))
        )
        hc = histogram_change_curves(
            times, values, [bounds[j] for j in hc_rows], cfg.hc_window_ratings,
            reuse("HC", hc_rows),
        )
        me, fell_back = model_error_curves(
            times, values, [bounds[j] for j in me_rows], cfg.me_window_ratings,
            cfg.ar_order, reuse("ME", me_rows),
        )
        curves: List[Dict[str, Curves]] = [{"MC": curve} for curve in mc]
        for kind, rows, built in (("HC", hc_rows, hc), ("ME", me_rows, me)):
            for j, curve in zip(rows, built):
                curves[j][kind] = curve
        cache = self._curve_cache
        for stream, stream_curves, (harc, larc) in zip(streams, curves, arc):
            cache.setdefault(stream.fingerprint, {}).update(
                (kind, curve.values) for kind, curve in stream_curves.items()
            )
            cache.move_to_end(stream.fingerprint)
            stream_curves.update({"H-ARC": harc, "L-ARC": larc})
        evicted = max(len(cache) - CURVE_CACHE_SIZE, 0)
        for _ in range(evicted):
            cache.popitem(last=False)
        hits = sum(hit is not None for hit in found)
        for name, count in (
            ("hits", hits), ("misses", len(found) - hits), ("evictions", evicted)
        ):
            if count:
                self.registry.inc(f"detector.curve_cache.{name}", count)
        return curves, fell_back

    def _report(
        self,
        stream: RatingStream,
        mc_report: MeanChangeReport,
        harc_report: ArrivalRateReport,
        larc_report: ArrivalRateReport,
        hc_report: Optional[HistogramChangeReport],
        me_report: Optional[ModelErrorReport],
    ) -> DetectionReport:
        """Mark one stream from its sub-detector reports (HC and ME
        ``None`` where Path 2 did not consult them)."""
        n = len(stream)
        mean_value = float(stream.values.mean())
        threshold_a = self.config.high_value_threshold(mean_value)
        threshold_b = self.config.low_value_threshold(mean_value)
        high_mask = stream.values > threshold_a
        low_mask = stream.values < threshold_b

        mask = np.zeros(n, dtype=bool)
        provenance = np.zeros(n, dtype=np.uint8)
        path1: List[TimeInterval] = []
        path2: List[TimeInterval] = []
        if self.config.enable_path1:
            path1 = self._path1(
                stream, mc_report, harc_report, larc_report,
                high_mask, low_mask, mask, provenance,
            )
        if self.config.enable_path2:
            path2 = self._path2(
                stream, me_report, hc_report, high_mask, low_mask, mask, provenance
            )
        ran = (
            ("MC", mc_report), ("H-ARC", harc_report), ("L-ARC", larc_report),
            ("HC", hc_report), ("ME", me_report),
        )
        if mask.any():
            logger.debug(
                "product=%s marked=%d path1_intervals=%d path2_intervals=%d",
                stream.product_id, int(mask.sum()), len(path1), len(path2),
            )
        return DetectionReport(
            product_id=stream.product_id,
            suspicious=mask,
            path1_intervals=tuple(path1),
            path2_intervals=tuple(path2),
            provenance=provenance,
            curves={kind: sub.curve for kind, sub in ran if sub is not None},
            alarms={"H-ARC": harc_report.alarm, "L-ARC": larc_report.alarm},
        )

    def analyze(
        self,
        stream: RatingStream,
        trust_lookup: Optional[TrustLookup] = None,
    ) -> DetectionReport:
        """Run both detection paths over one product stream.

        ``trust_lookup`` (rater id -> current trust) feeds the
        trust-moderated MC segment rule; omit it on the first pass, before
        any trust has been established.  The stream is analyzed as a batch
        of one (:meth:`analyze_batch`), so its report, curves and
        telemetry are what the batch path gives it.
        """
        return self.analyze_batch(RatingDataset([stream]), trust_lookup)[
            stream.product_id
        ]

    def analyze_batch(
        self,
        dataset: RatingDataset,
        trust_lookup: Optional[TrustLookup] = None,
    ) -> Dict[str, DetectionReport]:
        """Run detection over every product of a dataset, batched.

        The dataset is first flattened into contiguous columnar arrays
        (:func:`~repro.detectors.columns.extract_columns`).  Under the
        ``detector.batch`` span, the MC curves and the H-/L-ARC series of
        *all* eligible streams are then built with the batch builders of
        :mod:`repro.signal.curves`: one window-means pass for MC (exact
        prefix sums for half-star windows, the rest grouped by length
        across streams), and one day count and one prefix sum for both
        ARC kinds at both scales.  The series give each stream's H-/L-ARC
        alarms, and Path 2 consults ME only on an H-ARC alarm and HC only
        on an L-ARC alarm, so only those streams get those curves: one
        stacked LAPACK solve for the ME curves of the H-ARC-alarmed
        streams, one clustering pass for the HC curves of the
        L-ARC-alarmed ones (neither with Path 2 disabled).  Streams the
        curve cache knows, or whose merge base it knows, compute only the
        windows that changed, of each kind the cached entry holds.

        Each sub-detector then runs over the batch under one
        ``detector.<kind>`` span: MC, H-ARC and L-ARC on every eligible
        stream, HC on the L-ARC-alarmed streams and ME on the
        H-ARC-alarmed ones (no span for a kind no stream needs).  Each
        stream is marked from its reports, and with a collecting registry
        the batch's scorecards are folded in once
        (:func:`~repro.obs.quality.emit_scorecards`).  Every report
        (masks, provenance, curves, ``quality.*`` values) is bit-identical
        to analyzing each stream alone.

        Batch telemetry: ``detector.batch.streams`` / ``.ratings``
        counters (whole streams, reused windows included), the
        ``detector.batch`` span for the precompute wall time (its count
        is the number of calls), ``detector.batch.fallbacks`` when a
        singular window makes the stacked ME solve fall back to solving
        stream by stream, ``detector.curve_cache.{hits,misses,
        evictions}`` (one per stream, whichever kinds it reused),
        ``detector.short_streams`` and ``detector.joint.marked_ratings``.
        """
        registry = self.registry
        with span("detector.batch", registry):
            columns = extract_columns(dataset)
            offsets = columns.offsets.tolist()
            eligible = [
                i
                for i, length in enumerate(columns.lengths)
                if length >= self.config.min_ratings
            ]
            streams = [dataset[columns.product_ids[i]] for i in eligible]
            curves, fell_back = self._curves(
                streams,
                columns.times,
                columns.values,
                [(offsets[i], offsets[i + 1]) for i in eligible],
            )
            if fell_back:
                registry.inc("detector.batch.fallbacks")
        registry.inc("detector.batch.streams", columns.num_streams)
        registry.inc("detector.batch.ratings", columns.total_ratings)

        mc = self._run("MC", self.mean_change.analyze, [
            (stream, trust_lookup, c["MC"]) for stream, c in zip(streams, curves)
        ])
        harc = self._run("H-ARC", self.h_arc.analyze, [
            (stream, c["H-ARC"]) for stream, c in zip(streams, curves)
        ])
        larc = self._run("L-ARC", self.l_arc.analyze, [
            (stream, c["L-ARC"]) for stream, c in zip(streams, curves)
        ])
        # Path 2 consults HC on an L-ARC alarm and ME on an H-ARC alarm,
        # and the batch pass built those curves only.
        consult = self.config.enable_path2
        hc_rows = [j for j, sub in enumerate(larc) if consult and sub.alarm]
        me_rows = [j for j, sub in enumerate(harc) if consult and sub.alarm]
        hc = dict(zip(hc_rows, self._run("HC", self.histogram.report_from_curve, [
            (curves[j]["HC"],) for j in hc_rows
        ])))
        me = dict(zip(me_rows, self._run("ME", self.model_error.report_from_curve, [
            (curves[j]["ME"],) for j in me_rows
        ])))
        reports = [
            self._report(stream, mc[j], harc[j], larc[j], hc.get(j), me.get(j))
            for j, stream in enumerate(streams)
        ]

        if len(streams) < columns.num_streams:
            registry.inc("detector.short_streams", columns.num_streams - len(streams))
        marked = sum(report.num_suspicious for report in reports)
        if marked:
            registry.inc("detector.joint.marked_ratings", marked)
        if registry.enabled:
            # Join each verdict against its stream's ground-truth unfair
            # labels and fold the batch's scorecards into the registry, so
            # every detection pass contributes to the quality.* namespace.
            # (Imported here: repro.obs.quality needs the provenance flags
            # from this package, so a top-level import would be circular.)
            from repro.obs.quality import emit_scorecards, score_detection

            emit_scorecards(
                [score_detection(s, r) for s, r in zip(streams, reports)],
                registry,
            )
        by_product = {report.product_id: report for report in reports}
        return {
            product_id: by_product[product_id]
            if product_id in by_product
            else DetectionReport(
                product_id=product_id,
                suspicious=np.zeros(len(dataset[product_id]), dtype=bool),
            )
            for product_id in dataset
        }

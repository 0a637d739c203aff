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
MC, HC and ME curves of every stream of a dataset with the batch builders
of :mod:`repro.signal.curves`, one cross-stream pass each, then runs
:meth:`JointDetector.analyze` per stream on those curves.  A stream
analyzed alone gets its curves from the same builders over a batch of
one, so both calls run the same code and give the same report.

Both keep the curve values of the last :data:`CURVE_CACHE_SIZE` streams
built, keyed by fingerprint, so a stream found there, or whose merge
base is, computes only the windows that changed (the copy rule of
:mod:`repro.signal.curves`).

Every mark also records *provenance*: which path fired and which
sub-detectors contributed, as ``PROV_*`` bit flags per rating
(:mod:`repro.detectors.base`).  The mask travels on the
:class:`DetectionReport`, feeding per-decision attribution (the CLI's
``detect --explain``) without re-running detection.  Each sub-detector
runs under a ``detector.<kind>`` span (nested under whatever stage span
is open), which times it into the active metrics registry; when a
collecting registry is active, each verdict is additionally joined
against the stream's ground-truth unfair labels into a
:mod:`repro.obs.quality` scorecard (``quality.*`` counters:
per-detector confusion cells, detection latency, bias at detection).

Implementation note: the paper issues the Path 2 alarm only when the ARC
curve "does not have such a U-shape"; we raise it whenever the curve
exceeds the alarm threshold, because the ME/HC confirmation step already
suppresses false positives and this keeps Path 2 effective when Path 1
misses (e.g. an MC curve flattened by a high-variance attack).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.detectors.arrival_rate import ArrivalRateDetector, ArrivalRateReport
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
from repro.detectors.histogram import HistogramChangeDetector
from repro.detectors.mean_change import MeanChangeDetector, MeanChangeReport
from repro.detectors.model_error import ModelErrorDetector
from repro.obs import get_logger
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.spans import span
from repro.signal.curves import (
    Curve,
    histogram_change_curves,
    mean_change_curves_by_time,
    model_error_curves,
)
from repro.types import RatingStream

__all__ = ["JointDetector", "CURVE_CACHE_SIZE"]

TrustLookup = Callable[[str], float]

#: Streams whose MC, HC and ME curve values a detector keeps (LRU).
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
        # Fingerprint -> (MC, HC, ME) curve values.  The config is fixed,
        # so one cache per detector is sound.
        self._curve_cache: "OrderedDict[tuple, Tuple[np.ndarray, ...]]" = OrderedDict()

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
        harc_report: ArrivalRateReport,
        larc_report: ArrivalRateReport,
        me_intervals: List[TimeInterval],
        hc_intervals: List[TimeInterval],
        high_mask: np.ndarray,
        low_mask: np.ndarray,
        mask: np.ndarray,
        provenance: np.ndarray,
    ) -> List[TimeInterval]:
        """Path 2: ARC alarm confirmed by the ME or HC detector."""
        fired: List[TimeInterval] = []
        if harc_report.alarm:
            for interval in me_intervals:
                self._mark(
                    mask, provenance, stream, interval, high_mask,
                    PROV_PATH2 | PROV_H_ARC | PROV_ME,
                )
                fired.append(interval)
        if larc_report.alarm:
            for interval in hc_intervals:
                self._mark(
                    mask, provenance, stream, interval, low_mask,
                    PROV_PATH2 | PROV_L_ARC | PROV_HC,
                )
                fired.append(interval)
        return fired

    # ------------------------------------------------------------------ #

    def _timed(self, kind: str, analyze: Callable, *args):
        """Run one sub-detector under a span.

        The span (``detector.<kind>``, nested under whatever stage is
        open) counts and times the call, and is what the sampling
        profiler attributes frames to, so a profile breaks each
        sub-detector's cost down per frame.
        """
        with span(f"detector.{kind}", self.registry):
            return analyze(*args)

    def _cached(self, stream: RatingStream):
        """``(curve values, added rows)`` cached for ``stream`` itself, else
        for its merge base, else ``None``.  A hit moves to the back."""
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
    ) -> Tuple[List[Dict[str, Curve]], bool]:
        """The MC, HC and ME curves of a batch of streams, keyed by kind,
        one dict per stream, and whether the stacked ME solve fell back
        (see :func:`~repro.signal.curves.model_error_curves`).

        Stream ``j`` is rows ``bounds[j][0]:bounds[j][1]`` of ``times``
        and ``values``.  Its curves reuse what the curve cache holds for
        it or its merge base, and land in the cache.
        """
        cfg = self.config
        found = [self._cached(stream) for stream in streams]
        mc_reuse, hc_reuse, me_reuse = (
            [None if hit is None else (hit[0][kind], hit[1]) for hit in found]
            for kind in range(3)
        )
        mc = mean_change_curves_by_time(
            times, values, bounds, cfg.mc_window_days, mc_reuse
        )
        hc = histogram_change_curves(
            times, values, bounds, cfg.hc_window_ratings, hc_reuse
        )
        me, fell_back = model_error_curves(
            times, values, bounds, cfg.me_window_ratings, cfg.ar_order, me_reuse
        )
        cache = self._curve_cache
        curves = []
        for stream, triple in zip(streams, zip(mc, hc, me)):
            cache[stream.fingerprint] = tuple(curve.values for curve in triple)
            cache.move_to_end(stream.fingerprint)
            curves.append(dict(zip(("MC", "HC", "ME"), triple)))
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

    def analyze(
        self,
        stream: RatingStream,
        trust_lookup: Optional[TrustLookup] = None,
        curves: Optional[Dict[str, Curve]] = None,
    ) -> DetectionReport:
        """Run both detection paths over one product stream.

        ``trust_lookup`` (rater id -> current trust) feeds the
        trust-moderated MC segment rule; omit it on the first pass, before
        any trust has been established.

        ``curves`` holds the stream's MC, HC and ME curves, keyed by kind,
        when :meth:`analyze_batch` built them in its cross-stream pass.
        Without it they are built here, by the same builders over a batch
        of one, through the same curve cache.  The H-/L-ARC detectors
        build their own curves.
        """
        n = len(stream)
        if n < self.config.min_ratings:
            self.registry.inc("detector.short_streams")
            return DetectionReport(
                product_id=stream.product_id,
                suspicious=np.zeros(n, dtype=bool),
            )
        if curves is None:
            (curves,), _ = self._curves(
                [stream], stream.times, stream.values, [(0, n)]
            )
        mean_value = float(stream.values.mean())
        threshold_a = self.config.high_value_threshold(mean_value)
        threshold_b = self.config.low_value_threshold(mean_value)
        high_mask = stream.values > threshold_a
        low_mask = stream.values < threshold_b

        mc_report = self._timed(
            "MC", self.mean_change.analyze, stream, trust_lookup, curves["MC"]
        )
        harc_report = self._timed("H-ARC", self.h_arc.analyze, stream)
        larc_report = self._timed("L-ARC", self.l_arc.analyze, stream)
        hc_report = self._timed("HC", self.histogram.report_from_curve, curves["HC"])
        me_report = self._timed("ME", self.model_error.report_from_curve, curves["ME"])

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
                stream,
                harc_report,
                larc_report,
                list(me_report.suspicious_intervals),
                list(hc_report.suspicious_intervals),
                high_mask,
                low_mask,
                mask,
                provenance,
            )
        registry = self.registry
        if mask.any():
            registry.inc("detector.joint.marked_ratings", int(mask.sum()))
            logger.debug(
                "product=%s marked=%d path1_intervals=%d path2_intervals=%d",
                stream.product_id, int(mask.sum()), len(path1), len(path2),
            )
        report = DetectionReport(
            product_id=stream.product_id,
            suspicious=mask,
            path1_intervals=tuple(path1),
            path2_intervals=tuple(path2),
            provenance=provenance,
            curves={
                "MC": mc_report.curve,
                "H-ARC": harc_report.curve,
                "L-ARC": larc_report.curve,
                "HC": hc_report.curve,
                "ME": me_report.curve,
            },
            alarms={"H-ARC": harc_report.alarm, "L-ARC": larc_report.alarm},
        )
        if registry.enabled:
            # Join the verdict against the stream's ground-truth unfair
            # labels and fold the scorecard into the registry, so every
            # detection pass contributes to the quality.* namespace.
            # (Imported here: repro.obs.quality needs the provenance
            # flags from this package, so a top-level import would be
            # circular.)
            from repro.obs.quality import emit_scorecard, score_detection

            emit_scorecard(score_detection(stream, report), registry)
        return report

    def analyze_batch(
        self,
        dataset,
        trust_lookup: Optional[TrustLookup] = None,
    ) -> Dict[str, DetectionReport]:
        """Run detection over every product of a dataset, batched.

        The dataset is first flattened into contiguous columnar arrays
        (:func:`~repro.detectors.columns.extract_columns`).  Under the
        ``detector.batch`` span, the MC, HC and ME curves of *all*
        eligible streams are then built with the batch builders of
        :mod:`repro.signal.curves`: one window-means pass (windows grouped
        by length across streams) for MC, one clustering pass for HC and
        one stacked LAPACK solve for ME.  The per-stream :meth:`analyze`
        calls that follow take those curves and build the H-/L-ARC curves
        themselves (one prefix-sum pass per curve).  Every report (masks,
        provenance, curves, ``quality.*`` scorecards) is bit-identical to
        analyzing each stream alone, while the window-statistic work runs
        once per dataset instead of once per product.  Streams the curve
        cache knows, or whose merge base it knows, compute only the
        windows that changed.

        Batch telemetry: ``detector.batch.streams`` / ``.ratings``
        counters (whole streams, reused windows included), the
        ``detector.batch`` span for the precompute wall time (its count
        is the number of calls), ``detector.batch.fallbacks`` when a
        singular window makes the stacked ME solve fall back to solving
        stream by stream, and ``detector.curve_cache.{hits,misses,
        evictions}``.
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
            curves, fell_back = self._curves(
                [dataset[columns.product_ids[i]] for i in eligible],
                columns.times,
                columns.values,
                [(offsets[i], offsets[i + 1]) for i in eligible],
            )
            if fell_back:
                registry.inc("detector.batch.fallbacks")
            by_product = {
                columns.product_ids[i]: stream_curves
                for i, stream_curves in zip(eligible, curves)
            }
        registry.inc("detector.batch.streams", columns.num_streams)
        registry.inc("detector.batch.ratings", columns.total_ratings)
        return {
            product_id: self.analyze(
                dataset[product_id], trust_lookup, by_product.get(product_id)
            )
            for product_id in dataset
        }

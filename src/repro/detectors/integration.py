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
MC, HC and ME curves of every stream of a dataset in one cross-stream
pass each, then runs :meth:`JointDetector.analyze` per stream on those
curves.  A stream analyzed alone builds the same curves as a batch of one.

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

from typing import Callable, Dict, List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
from repro.detectors.columns import StreamColumns, extract_columns
from repro.detectors.histogram import HistogramChangeDetector
from repro.detectors.mean_change import MeanChangeDetector, MeanChangeReport
from repro.detectors.model_error import ModelErrorDetector
from repro.obs import get_logger
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.spans import span
from repro.signal.ar import (
    normalized_errors_from_operands,
    sliding_ar_normalized_errors,
    sliding_ar_operands,
)
from repro.signal.curves import (
    Curve,
    histogram_change_curve_from_stats,
    mean_change_curves_by_time,
    model_error_curve_from_errors,
)
from repro.signal.rolling import sliding_vars, two_cluster_balance
from repro.types import RatingStream

__all__ = ["JointDetector"]

TrustLookup = Callable[[str], float]

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
        """Run one sub-detector under a span, counting the call.

        The span (``detector.<kind>``, nested under whatever stage is
        open) times the call and is what the sampling profiler
        attributes frames to, so a profile breaks each sub-detector's
        cost down per frame.
        """
        registry = self.registry
        with span(f"detector.{kind}", registry):
            report = analyze(*args)
        registry.inc(f"detector.{kind}.calls")
        return report

    def analyze(
        self,
        stream: RatingStream,
        trust_lookup: Optional[TrustLookup] = None,
        precomputed: Optional[Dict[str, Curve]] = None,
    ) -> DetectionReport:
        """Run both detection paths over one product stream.

        ``trust_lookup`` (rater id -> current trust) feeds the
        trust-moderated MC segment rule; omit it on the first pass, before
        any trust has been established.

        ``precomputed`` optionally carries indicator curves (keyed by
        detector kind: MC, HC, ME) that :meth:`analyze_batch` already
        built in its cross-stream pass; the matching sub-detectors then
        take the curve instead of building it.  Detection output is
        bit-identical either way.
        """
        n = len(stream)
        if n < self.config.min_ratings:
            self.registry.inc("detector.short_streams")
            return DetectionReport(
                product_id=stream.product_id,
                suspicious=np.zeros(n, dtype=bool),
            )
        mean_value = float(stream.values.mean())
        threshold_a = self.config.high_value_threshold(mean_value)
        threshold_b = self.config.low_value_threshold(mean_value)
        high_mask = stream.values > threshold_a
        low_mask = stream.values < threshold_b

        precomputed = precomputed or {}
        mc_report = self._timed(
            "MC", self.mean_change.analyze, stream, trust_lookup,
            precomputed.get("MC"),
        )
        harc_report = self._timed("H-ARC", self.h_arc.analyze, stream)
        larc_report = self._timed("L-ARC", self.l_arc.analyze, stream)
        if "HC" in precomputed:
            hc_report = self._timed(
                "HC", self.histogram.report_from_curve, precomputed["HC"]
            )
        else:
            hc_report = self._timed("HC", self.histogram.analyze, stream)
        if "ME" in precomputed:
            me_report = self._timed(
                "ME", self.model_error.report_from_curve, precomputed["ME"]
            )
        else:
            me_report = self._timed("ME", self.model_error.analyze, stream)

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
        registry.inc("detector.joint.calls")
        if mask.any():
            registry.inc("detector.joint.marked_ratings", int(mask.sum()))
            logger.debug(
                "product=%s marked=%d path1_intervals=%d path2_intervals=%d",
                stream.product_id, int(mask.sum()), len(path1), len(path2),
            )
        curves = {
            "MC": mc_report.curve,
            "H-ARC": harc_report.curve,
            "L-ARC": larc_report.curve,
            "HC": hc_report.curve,
            "ME": me_report.curve,
        }
        report = DetectionReport(
            product_id=stream.product_id,
            suspicious=mask,
            path1_intervals=tuple(path1),
            path2_intervals=tuple(path2),
            provenance=provenance,
            curves=curves,
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

    # ------------------------------------------------------------------ #
    # Batched cross-stream fast path
    # ------------------------------------------------------------------ #

    def _batch_hc_curves(
        self, columns: StreamColumns, eligible: List[int]
    ) -> Dict[str, Curve]:
        """Precompute HC curves for every eligible stream in one pass.

        All streams' sliding windows are stacked into a single matrix and
        clustered with one :func:`two_cluster_balance` call -- each row is
        independent, so the stacked results match the per-stream ones
        bit-for-bit.
        """
        window = self.config.hc_window_ratings
        lengths = columns.lengths
        indices = [i for i in eligible if lengths[i] >= window]
        if not indices:
            return {}
        stacks = [
            sliding_window_view(columns.stream_values(i), window) for i in indices
        ]
        balances = two_cluster_balance(np.concatenate(stacks))
        curves: Dict[str, Curve] = {}
        cursor = 0
        for i, stack in zip(indices, stacks):
            count = stack.shape[0]
            curves[columns.product_ids[i]] = histogram_change_curve_from_stats(
                columns.stream_times(i), balances[cursor : cursor + count], window
            )
            cursor += count
        return curves

    def _batch_me_curves(
        self, columns: StreamColumns, eligible: List[int], registry: MetricsRegistry
    ) -> Dict[str, Curve]:
        """Precompute ME curves for every eligible stream in one pass.

        Every stream's AR design matrices and targets are concatenated and
        the covariance normal equations are solved as one stacked LAPACK
        batch.  A singular window anywhere in the batch falls back to the
        per-stream solver (which handles singularity with the
        pseudo-inverse), counted under ``detector.batch.fallbacks``.
        """
        window = self.config.me_window_ratings
        order = self.config.ar_order
        lengths = columns.lengths
        indices = [i for i in eligible if lengths[i] >= window]
        if not indices:
            return {}
        designs = []
        targets = []
        variances = []
        counts = []
        for i in indices:
            values = columns.stream_values(i)
            d, t = sliding_ar_operands(values, window, order)
            designs.append(d)
            targets.append(t)
            variances.append(sliding_vars(values, window))
            counts.append(d.shape[0])
        try:
            errors = normalized_errors_from_operands(
                np.concatenate(designs),
                np.concatenate(targets),
                np.concatenate(variances),
                order,
            )
            per_stream = np.split(errors, np.cumsum(counts)[:-1])
        except np.linalg.LinAlgError:
            registry.inc("detector.batch.fallbacks")
            per_stream = [
                sliding_ar_normalized_errors(columns.stream_values(i), window, order)
                for i in indices
            ]
        return {
            columns.product_ids[i]: model_error_curve_from_errors(
                columns.stream_times(i), stream_errors, window
            )
            for i, stream_errors in zip(indices, per_stream)
        }

    def analyze_batch(
        self,
        dataset,
        trust_lookup: Optional[TrustLookup] = None,
    ) -> Dict[str, DetectionReport]:
        """Run detection over every product of a dataset, batched.

        The dataset is first flattened into contiguous columnar arrays
        (:func:`~repro.detectors.columns.extract_columns`).  The MC, HC and
        ME indicator curves of *all* eligible streams are then built in
        single cross-stream passes under the ``detector.batch`` span: one
        window-means pass (windows grouped by length across streams) for
        MC, one clustering pass for HC and one stacked LAPACK solve for
        ME.  The per-stream :meth:`analyze` calls that follow consume the
        precomputed curves and build the H-/L-ARC curves themselves (one
        prefix-sum pass per curve), so every report (masks, provenance,
        curves, ``quality.*`` scorecards) is bit-identical to the
        per-stream path while the window-statistic work runs once per
        dataset instead of once per product.

        Batch telemetry: ``detector.batch.calls`` / ``.streams`` /
        ``.ratings`` counters, the ``detector.batch`` span for the
        precompute wall time, and ``detector.batch.fallbacks`` when a
        singular AR batch drops to the per-stream solver.
        """
        registry = self.registry
        with span("detector.batch", registry):
            columns = extract_columns(dataset)
            eligible = [
                i
                for i, length in enumerate(columns.lengths)
                if length >= self.config.min_ratings
            ]
            offsets = columns.offsets.tolist()
            mc_curves = mean_change_curves_by_time(
                columns.times,
                columns.values,
                [(offsets[i], offsets[i + 1]) for i in eligible],
                self.config.mc_window_days,
            )
            precomputed: Dict[str, Dict[str, Curve]] = {
                columns.product_ids[i]: {"MC": curve}
                for i, curve in zip(eligible, mc_curves)
            }
            for product_id, curve in self._batch_hc_curves(
                columns, eligible
            ).items():
                precomputed[product_id]["HC"] = curve
            for product_id, curve in self._batch_me_curves(
                columns, eligible, registry
            ).items():
                precomputed[product_id]["ME"] = curve
        registry.inc("detector.batch.calls")
        registry.inc("detector.batch.streams", columns.num_streams)
        registry.inc("detector.batch.ratings", columns.total_ratings)
        return {
            product_id: self.analyze(
                dataset[product_id], trust_lookup, precomputed.get(product_id)
            )
            for product_id in dataset
        }

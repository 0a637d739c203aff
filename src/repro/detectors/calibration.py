"""Automatic threshold calibration from fair-data samples.

The paper specifies the detector windows but not the detection thresholds;
those depend on the deployment's fair-traffic statistics (arrival volume,
weekly cycles, rating dispersion).  DESIGN.md §6 describes the calibration
this reproduction used; this module packages it as a reusable procedure:

1. run every indicator curve over a sample of (attack-free) rating
   streams,
2. collect the per-stream extreme statistic of each detector (maxima for
   MC/ARC/HC, minima for ME),
3. place each threshold at a chosen percentile of that null distribution,
   times a safety margin.

The result is a drop-in :class:`~repro.detectors.base.DetectorConfig` for
a new site, plus the measured null statistics for auditability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.detectors.arrival_rate import ArrivalRateDetector
from repro.detectors.base import DetectorConfig
from repro.detectors.histogram import HistogramChangeDetector
from repro.detectors.mean_change import MeanChangeDetector
from repro.detectors.model_error import ModelErrorDetector
from repro.errors import EmptyDataError, ValidationError
from repro.types import RatingDataset

__all__ = ["NullStatistics", "CalibrationResult", "calibrate_thresholds"]


@dataclass(frozen=True)
class NullStatistics:
    """Per-detector extreme statistics measured on fair streams."""

    mc_maxima: Tuple[float, ...]
    harc_maxima: Tuple[float, ...]
    larc_maxima: Tuple[float, ...]
    hc_maxima: Tuple[float, ...]
    me_minima: Tuple[float, ...]

    def summary(self) -> Dict[str, Tuple[float, float, float]]:
        """``{detector: (median, p90, max)}`` of each null distribution."""
        out = {}
        for name, values in (
            ("MC", self.mc_maxima),
            ("H-ARC", self.harc_maxima),
            ("L-ARC", self.larc_maxima),
            ("HC", self.hc_maxima),
            ("ME(min)", self.me_minima),
        ):
            arr = np.asarray(values)
            out[name] = (
                float(np.median(arr)),
                float(np.percentile(arr, 90)),
                float(arr.max()),
            )
        return out


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated config plus the evidence it was derived from."""

    config: DetectorConfig
    null_statistics: NullStatistics
    percentile: float
    margin: float


def _collect_null_statistics(
    datasets: Iterable[RatingDataset], base: DetectorConfig
) -> NullStatistics:
    mc = MeanChangeDetector(base)
    harc = ArrivalRateDetector("H-ARC", base)
    larc = ArrivalRateDetector("L-ARC", base)
    hc = HistogramChangeDetector(base)
    me = ModelErrorDetector(base)
    mc_max: List[float] = []
    harc_max: List[float] = []
    larc_max: List[float] = []
    hc_max: List[float] = []
    me_min: List[float] = []
    n_streams = 0
    for dataset in datasets:
        for product_id in dataset:
            stream = dataset[product_id]
            if len(stream) < base.min_ratings:
                continue
            n_streams += 1
            mc_max.append(mc.curve(stream).max_value())
            harc_max.append(max(c.max_value() for c in harc.series(stream).curves))
            larc_max.append(max(c.max_value() for c in larc.series(stream).curves))
            hc_max.append(hc.curve(stream).max_value())
            me_curve = me.curve(stream)
            me_min.append(
                float(me_curve.values.min()) if len(me_curve) else 1.0
            )
    if n_streams == 0:
        raise EmptyDataError("no usable fair streams to calibrate from")
    return NullStatistics(
        mc_maxima=tuple(mc_max),
        harc_maxima=tuple(harc_max),
        larc_maxima=tuple(larc_max),
        hc_maxima=tuple(hc_max),
        me_minima=tuple(me_min),
    )


def calibrate_thresholds(
    fair_datasets: Iterable[RatingDataset],
    percentile: float = 95.0,
    margin: float = 1.05,
    base: DetectorConfig = DetectorConfig(),
) -> CalibrationResult:
    """Derive detection thresholds from attack-free rating data.

    ``percentile`` selects the operating point on each null distribution
    (95 tolerates one fair stream in twenty having a peak); ``margin``
    scales the resulting thresholds up as a safety factor.  Alarm
    thresholds are placed 25% above the peak thresholds, mirroring the
    hand calibration; the HC threshold is capped just below 1 (an exactly
    balanced split must stay detectable); the ME threshold sits *below*
    the fair minima (low model error is the suspicious direction).
    """
    if not 50.0 <= percentile <= 100.0:
        raise ValidationError(
            f"percentile must be in [50, 100], got {percentile}"
        )
    if margin <= 0:
        raise ValidationError(f"margin must be > 0, got {margin}")
    stats = _collect_null_statistics(fair_datasets, base)

    def level(values: Tuple[float, ...]) -> float:
        return float(np.percentile(np.asarray(values), percentile))

    mc_peak = margin * level(stats.mc_maxima)
    harc_peak = margin * level(stats.harc_maxima)
    larc_peak = margin * level(stats.larc_maxima)
    hc_threshold = min(margin * level(stats.hc_maxima), 0.98)
    # ME: suspicious when *below*; take the mirrored percentile of minima
    # and step down by the margin.
    me_threshold = float(
        np.percentile(np.asarray(stats.me_minima), 100.0 - percentile)
    ) / margin
    config = replace(
        base,
        mc_peak_threshold=mc_peak,
        harc_peak_threshold=harc_peak,
        harc_alarm_threshold=1.25 * harc_peak,
        larc_peak_threshold=larc_peak,
        larc_alarm_threshold=1.25 * larc_peak,
        hc_suspicious_threshold=hc_threshold,
        me_suspicious_threshold=me_threshold,
    )
    return CalibrationResult(
        config=config,
        null_statistics=stats,
        percentile=percentile,
        margin=margin,
    )

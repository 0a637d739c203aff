"""Arrival rate change (ARC) detectors -- paper Section IV-C.

The base ARC detector applies the Poisson GLRT to the stream's daily
rating counts.  The H-ARC and L-ARC variants (Section IV-C.4) run the same
machinery over the counts of *high* ratings (``value > threshold_a``) and
*low* ratings (``value < threshold_b``) respectively -- collaborative
attacks inject ratings on one side of the fair mean, so the side-specific
arrival series shows the rate change much more sharply than the total.

Suspiciousness (Section IV-C.3): the daily-count series is segmented at
the ARC curve's peaks; a segment whose arrival rate *rose* relative to the
previous segment by more than a threshold is ARC-suspicious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.detectors.base import DetectorConfig, TimeInterval
from repro.errors import ValidationError
from repro.signal.curves import ArrivalSeries, Band, Curve, arrival_rate_curves
from repro.signal.peaks import Peak, UShape, find_peaks, u_shape_from_peaks
from repro.signal.segmentation import segment_bounds_from_peaks
from repro.types import RatingStream

__all__ = ["ArrivalRateReport", "ArrivalRateDetector", "arrival_series"]

_VALID_KINDS = ("ARC", "H-ARC", "L-ARC")


@dataclass(frozen=True)
class ArrivalRateReport:
    """ARC-family detector output for one stream."""

    kind: str
    curve: Curve
    peaks: Tuple[Peak, ...]
    u_shape: Optional[UShape]
    alarm: bool
    suspicious_intervals: Tuple[TimeInterval, ...]

    @property
    def has_u_shape(self) -> bool:
        """Whether the curve shows the two-peak U-shape configuration."""
        return self.u_shape is not None


class ArrivalRateDetector:
    """ARC / H-ARC / L-ARC detector.

    ``kind`` selects which daily-count series is analyzed:

    - ``"ARC"``: all ratings;
    - ``"H-ARC"``: ratings with ``value > threshold_a`` (``0.5 m``);
    - ``"L-ARC"``: ratings with ``value < threshold_b`` (``0.5 m + 0.5``),
      ``m`` being the stream's mean rating value.
    """

    def __init__(self, kind: str = "ARC", config: Optional[DetectorConfig] = None) -> None:
        if kind not in _VALID_KINDS:
            raise ValidationError(f"kind must be one of {_VALID_KINDS}, got {kind!r}")
        self.kind = kind
        self.config = config if config is not None else DetectorConfig()

    # ------------------------------------------------------------------ #

    def band(self, means: np.ndarray) -> Band:
        """This detector's value band for streams of mean ``means``:
        ``value > threshold_a`` (H-ARC), ``value < threshold_b`` (L-ARC),
        or every finite value (ARC)."""
        if self.kind == "H-ARC":
            return self.kind, self.config.high_value_threshold(means), np.inf
        if self.kind == "L-ARC":
            return self.kind, -np.inf, self.config.low_value_threshold(means)
        return self.kind, -np.inf, np.inf

    def series(self, stream: RatingStream) -> ArrivalSeries:
        """The daily-count series of this detector's ratings of ``stream``
        and its curves at every configured scale (short, long):
        :func:`arrival_series` over a batch of one."""
        ((series,),) = arrival_series(
            (self,), stream.times, stream.values, [(0, len(stream))]
        )
        return series

    @staticmethod
    def _merge_peaks(peak_lists: List[List[Peak]], min_separation: int) -> List[Peak]:
        """Union of per-scale peaks, suppressing near-duplicates by height."""
        merged: List[Peak] = []
        for peak in sorted(
            (p for peaks in peak_lists for p in peaks), key=lambda p: -p.height
        ):
            if all(abs(peak.index - q.index) >= min_separation for q in merged):
                merged.append(peak)
        merged.sort(key=lambda p: p.index)
        return merged

    def _is_rate_jump(self, low: float, high: float) -> bool:
        """Whether ``low -> high`` is a significant rate increase."""
        return (
            high > self.config.arc_segment_rate_ratio * low
            and high - low > self.config.arc_segment_min_increase
        )

    def _merge_similar_segments(self, bounds, rates):
        """Fuse adjacent segments whose rates are statistically similar.

        A long attack window often carries several indicator peaks from
        in-attack fluctuation; cutting at all of them fragments the
        elevated plateau into slices, and only the first slice would pass
        the previous-segment comparison.  Adjacent segments are therefore
        merged when neither direction of their rate difference qualifies
        as a significant jump.
        """
        merged_bounds = [list(bounds[0])]
        merged_counts = [rates[0] * (bounds[0][1] - bounds[0][0])]
        for (start, stop), rate in zip(bounds[1:], rates[1:]):
            current = merged_bounds[-1]
            current_rate = merged_counts[-1] / (current[1] - current[0])
            if self._is_rate_jump(current_rate, rate) or self._is_rate_jump(
                rate, current_rate
            ):
                merged_bounds.append([start, stop])
                merged_counts.append(rate * (stop - start))
            else:
                current[1] = stop
                merged_counts[-1] += rate * (stop - start)
        out_rates = [
            total / (stop - start)
            for (start, stop), total in zip(merged_bounds, merged_counts)
        ]
        return [tuple(b) for b in merged_bounds], out_rates

    def suspicious_segments(
        self, days: np.ndarray, counts: np.ndarray, peaks: List[Peak]
    ) -> List[TimeInterval]:
        """Section IV-C.3: segments whose arrival rate rose sharply.

        ``(days, counts)`` is the stream's :meth:`series`.  It
        is cut at the curve peaks, similar-rate neighbours are merged back
        together, and a (merged) segment whose per-day rate exceeds the
        previous segment's by both the configured ratio and the configured
        absolute increase is marked.
        """
        if counts.size == 0 or len(peaks) == 0:
            return []
        bounds = segment_bounds_from_peaks(counts.size, peaks)
        if len(bounds) < 2:
            return []
        rates = [float(counts[start:stop].mean()) for start, stop in bounds]
        bounds, rates = self._merge_similar_segments(bounds, rates)
        intervals: List[TimeInterval] = []
        for i in range(1, len(bounds)):
            if self._is_rate_jump(rates[i - 1], rates[i]):
                start_idx, stop_idx = bounds[i]
                intervals.append(
                    TimeInterval(float(days[start_idx]), float(days[stop_idx - 1]) + 1.0)
                )
        return intervals

    def alarm(self, series: ArrivalSeries) -> bool:
        """Whether any of ``series``' curves exceeds the alarm threshold:
        the alarm of :meth:`analyze`, which the joint detector also reads
        to decide which streams Path 2 consults ME or HC on."""
        threshold = self.config.alarm_threshold_for(self.kind)
        return any(
            curve.values.size and float(curve.values.max()) > threshold
            for curve in series.curves
        )

    # ------------------------------------------------------------------ #

    def analyze(
        self, stream: RatingStream, series: Optional[ArrivalSeries] = None
    ) -> ArrivalRateReport:
        """Full ARC-family analysis of one stream.

        ``series`` is the stream's :meth:`series` when the caller already
        built it (the joint detector does, for every stream of a batch,
        with :func:`arrival_series`); otherwise it is built here.  Its
        daily counts feed the segment rule.  Peaks, the U-shape, and the
        alarm are evaluated at every configured window scale (the short
        paper window plus the optional long window for slow rate changes)
        and merged; each scale's U-shape comes from the peaks already
        found on it.  The *alarm* (used by Path 2 of the joint detector)
        fires when any curve exceeds the alarm threshold -- evidence of a
        rate anomaly -- regardless of whether a clean U-shape exists.
        """
        if series is None:
            series = self.series(stream)
        days, counts, curves = series.days, series.counts, series.curves
        peak_threshold = self.config.peak_threshold_for(self.kind)
        separation = self.config.peak_min_separation
        per_scale_peaks = [
            find_peaks(curve, threshold=peak_threshold, min_separation=separation)
            for curve in curves
        ]
        peaks = self._merge_peaks(per_scale_peaks, separation)
        u_shape = None
        for curve, scale_peaks in zip(curves, per_scale_peaks):
            u_shape = u_shape_from_peaks(curve, scale_peaks)
            if u_shape is not None:
                break
        intervals = self.suspicious_segments(days, counts, peaks)
        return ArrivalRateReport(
            kind=self.kind,
            curve=curves[0],
            peaks=tuple(peaks),
            u_shape=u_shape,
            alarm=self.alarm(series),
            suspicious_intervals=tuple(intervals),
        )


def arrival_series(
    detectors: Sequence[ArrivalRateDetector],
    times: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
) -> List[Tuple[ArrivalSeries, ...]]:
    """Every stream's :class:`~repro.signal.curves.ArrivalSeries` for each
    of ``detectors`` (which share one config), from one
    :func:`~repro.signal.curves.arrival_rate_curves` call.

    Streams are laid out as for that builder.  Each stream's mean sets
    its H-/L-ARC thresholds (an empty stream selects nothing).  Returns
    one tuple per stream holding one series per detector.
    """
    config = detectors[0].config
    means = np.array(
        [
            values[start:stop].mean() if stop > start else np.nan
            for start, stop in bounds
        ]
    )
    half_widths = [max(config.arc_window_days // 2, 1)]
    if config.arc_long_window_days:
        half_widths.append(max(config.arc_long_window_days // 2, 1))
    return arrival_rate_curves(
        times,
        values,
        bounds,
        [detector.band(means) for detector in detectors],
        half_widths,
    )

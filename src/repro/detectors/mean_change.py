"""Mean change (MC) detector -- paper Section IV-B.

Three parts, matching the paper's subsection structure:

1. the windowed Gaussian mean-change GLRT
   (:func:`repro.signal.rolling.mean_change_stats`),
2. the MC indicator curve built with a sliding 30-day window
   (:func:`repro.signal.curves.mean_change_curve_by_time`),
3. MC suspiciousness: the stream is cut into segments at the curve's
   peaks; a segment ``j`` with mean ``B_j`` is suspicious when either

   - ``|B_j - B_avg| > threshold1`` (a very large mean change), or
   - ``|B_j - B_avg| > threshold2`` **and** the segment's raters are less
     trustworthy than average (``T_j / T_avg`` below a ratio threshold),

   with ``threshold2 < threshold1`` (Section IV-B.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.detectors.base import DetectorConfig, TimeInterval
from repro.signal.curves import Curve, mean_change_curve_by_time
from repro.signal.peaks import Peak, UShape, find_peaks, u_shape_from_peaks
from repro.signal.segmentation import segment_bounds_from_peaks
from repro.types import RatingStream

__all__ = ["MeanChangeReport", "MeanChangeDetector"]

TrustLookup = Callable[[str], float]


@dataclass(frozen=True)
class MeanChangeReport:
    """MC detector output for one stream."""

    curve: Curve
    peaks: Tuple[Peak, ...]
    u_shape: Optional[UShape]
    suspicious_intervals: Tuple[TimeInterval, ...]

    @property
    def has_u_shape(self) -> bool:
        """Whether the curve shows the two-peak U-shape configuration."""
        return self.u_shape is not None


class MeanChangeDetector:
    """Builds the MC curve and derives MC-suspicious segments."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config if config is not None else DetectorConfig()

    # ------------------------------------------------------------------ #

    def curve(self, stream: RatingStream) -> Curve:
        """The MC indicator curve for ``stream`` (30-day windows)."""
        return mean_change_curve_by_time(
            stream.times, stream.values, self.config.mc_window_days
        )

    def peaks(self, curve: Curve) -> List[Peak]:
        """Significant peaks on the MC curve."""
        return find_peaks(
            curve,
            threshold=self.config.mc_peak_threshold,
            min_separation=self.config.peak_min_separation,
        )

    def suspicious_segments(
        self,
        stream: RatingStream,
        peaks: List[Peak],
        trust_lookup: Optional[TrustLookup] = None,
    ) -> List[TimeInterval]:
        """Apply the Section IV-B.3 segment rules.

        With fewer than two peaks nothing can be bracketed and no segment
        is marked.  ``trust_lookup`` maps rater ids to current trust; when
        omitted, every rater is treated as having the initial trust 0.5,
        which disables the trust-moderated second condition (the ratio is
        then always 1).
        """
        n = len(stream)
        if n == 0 or len(peaks) < 2:
            return []
        cfg = self.config
        overall_mean = float(stream.values.mean())
        bounds = segment_bounds_from_peaks(n, peaks)
        if trust_lookup is None:
            segment_trust = [0.5] * len(bounds)
        else:
            # One trust lookup per distinct rater, expanded back to a
            # per-rating vector through the stream's rater codes (exact
            # ids: a numpy string array would tie "a" with "a\x00");
            # segments then reduce to slice means.
            raters, codes = stream.rater_codes
            per_rating = np.array(
                [trust_lookup(rater_id) for rater_id in raters], dtype=float
            )[codes]
            segment_trust = [
                float(per_rating[start:stop].mean()) for start, stop in bounds
            ]
        trust_avg = float(np.mean(segment_trust)) if segment_trust else 0.5
        intervals: List[TimeInterval] = []
        for (start, stop), t_j in zip(bounds, segment_trust):
            segment_mean = float(stream.values[start:stop].mean())
            shift = abs(segment_mean - overall_mean)
            condition1 = shift > cfg.mc_mean_threshold1
            trust_ratio = t_j / trust_avg if trust_avg > 0 else 1.0
            condition2 = (
                shift > cfg.mc_mean_threshold2
                and trust_ratio < cfg.mc_trust_ratio_threshold
            )
            if condition1 or condition2:
                intervals.append(
                    TimeInterval(
                        float(stream.times[start]), float(stream.times[stop - 1])
                    )
                )
        return intervals

    # ------------------------------------------------------------------ #

    def analyze(
        self,
        stream: RatingStream,
        trust_lookup: Optional[TrustLookup] = None,
        curve: Optional[Curve] = None,
    ) -> MeanChangeReport:
        """Full MC analysis of one stream.

        ``curve`` is the stream's MC curve when the caller already built
        it (the joint detector always does, with
        :func:`~repro.signal.curves.mean_change_curves_by_time`);
        otherwise it is built here.
        """
        if curve is None:
            curve = self.curve(stream)
        peaks = self.peaks(curve)
        intervals = self.suspicious_segments(stream, peaks, trust_lookup)
        return MeanChangeReport(
            curve=curve,
            peaks=tuple(peaks),
            u_shape=u_shape_from_peaks(curve, peaks),
            suspicious_intervals=tuple(intervals),
        )

"""Histogram change (HC) detector -- paper Section IV-D.

Within a sliding window of 40 ratings, the rating values are split into
two clusters by single-linkage clustering and the balance

    HC(k) = min(n1 / n2, n2 / n1)

is plotted against the window's centre time.  Fair ratings form one
dominant mode, so one cluster dwarfs the other and HC stays near 0; a
block of collaborative unfair ratings far from the fair mode grows the
second cluster and pushes HC toward 1.  Windows where HC exceeds the
configured threshold are HC-suspicious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.detectors.base import DetectorConfig, TimeInterval
from repro.signal.curves import Curve, histogram_change_curve
from repro.types import RatingStream

__all__ = ["HistogramChangeReport", "HistogramChangeDetector"]


@dataclass(frozen=True)
class HistogramChangeReport:
    """HC detector output for one stream."""

    curve: Curve
    suspicious_intervals: Tuple[TimeInterval, ...]

    @property
    def any_suspicious(self) -> bool:
        """Whether any window crossed the HC threshold."""
        return len(self.suspicious_intervals) > 0


def _mask_to_intervals(times: np.ndarray, mask: np.ndarray) -> List[TimeInterval]:
    """Contiguous True runs of ``mask`` converted to time intervals.

    Runs are read off the mask's edges in one vectorized pass: padded
    with ``False`` on both sides, the mask changes value exactly at each
    run's first index and one past its last.
    """
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return [
        TimeInterval(float(times[start]), float(times[stop - 1]))
        for start, stop in zip(edges[0::2], edges[1::2])
    ]


class HistogramChangeDetector:
    """Builds the HC curve and extracts HC-suspicious intervals."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config if config is not None else DetectorConfig()

    def curve(self, stream: RatingStream) -> Curve:
        """The HC indicator curve (40-rating windows by default)."""
        return histogram_change_curve(
            stream.times, stream.values, self.config.hc_window_ratings
        )

    def report_from_curve(self, curve: Curve) -> HistogramChangeReport:
        """Build the HC report from an already-computed curve.

        This is the thresholding/interval half of :meth:`analyze`; the
        joint detector builds its HC curves with
        :func:`~repro.signal.curves.histogram_change_curves` and feeds
        them through here.
        """
        if curve.is_empty:
            return HistogramChangeReport(curve=curve, suspicious_intervals=())
        mask = curve.values > self.config.hc_suspicious_threshold
        intervals = _mask_to_intervals(curve.times, mask)
        return HistogramChangeReport(
            curve=curve, suspicious_intervals=tuple(intervals)
        )

    def analyze(self, stream: RatingStream) -> HistogramChangeReport:
        """Full HC analysis of one stream."""
        return self.report_from_curve(self.curve(stream))

"""Shared detector configuration and result types.

The numeric defaults follow the paper where it gives values (Section V-A:
MC window 30 days, ARC window 30 days, HC window 40 ratings, ME window 40
ratings, ``threshold_a = 0.5 m``, ``threshold_b = 0.5 m + 0.5``, initial
trust 0.5).  Thresholds the paper leaves unspecified (peak heights, alarm
levels, the MC segment thresholds, HC/ME cutoffs) were calibrated on
synthetic fair-only data so the false-alarm rate stays low while the
smoke-test attacks of Section V are caught; see
``tests/integration/test_detector_calibration.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.signal.curves import Curve
from repro.signal.peaks import UShape

__all__ = [
    "TimeInterval",
    "DetectorConfig",
    "DetectionReport",
    "PROV_PATH1",
    "PROV_PATH2",
    "PROV_MC",
    "PROV_H_ARC",
    "PROV_L_ARC",
    "PROV_HC",
    "PROV_ME",
    "PROVENANCE_FLAGS",
    "provenance_labels",
]


# --------------------------------------------------------------------- #
# Detection provenance
#
# The joint detector records, per rating, *why* it was marked: which
# Figure 1 path fired and which sub-detectors contributed.  Flags are
# bit-ored into a uint8 mask aligned with the stream; a rating is
# suspicious iff its provenance is nonzero.
# --------------------------------------------------------------------- #

PROV_PATH1 = 0x01  #: marked by Path 1 (MC interval ∩ ARC interval)
PROV_PATH2 = 0x02  #: marked by Path 2 (ARC alarm confirmed by ME/HC)
PROV_MC = 0x04  #: the mean-change detector contributed
PROV_H_ARC = 0x08  #: the high-side arrival-rate detector contributed
PROV_L_ARC = 0x10  #: the low-side arrival-rate detector contributed
PROV_HC = 0x20  #: the histogram-change detector contributed
PROV_ME = 0x40  #: the model-error detector contributed

#: Label -> bit, in display order (paths first, then detectors).
PROVENANCE_FLAGS = {
    "path1": PROV_PATH1,
    "path2": PROV_PATH2,
    "MC": PROV_MC,
    "H-ARC": PROV_H_ARC,
    "L-ARC": PROV_L_ARC,
    "HC": PROV_HC,
    "ME": PROV_ME,
}


def provenance_labels(code: int) -> Tuple[str, ...]:
    """Human-readable names of the flags set in one provenance code."""
    return tuple(
        label for label, bit in PROVENANCE_FLAGS.items() if code & bit
    )


@dataclass(frozen=True)
class TimeInterval:
    """A closed time interval ``[start, stop]`` in days."""

    start: float
    stop: float

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValidationError(
                f"interval stop ({self.stop}) before start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Interval length in days."""
        return self.stop - self.start

    def contains(self, time: float) -> bool:
        """Whether ``time`` lies inside the interval (inclusive)."""
        return self.start <= time <= self.stop

    def intersect(self, other: "TimeInterval") -> Optional["TimeInterval"]:
        """Intersection with ``other``, or ``None`` when disjoint."""
        start = max(self.start, other.start)
        stop = min(self.stop, other.stop)
        if stop < start:
            return None
        return TimeInterval(start, stop)

    def mask(self, times: np.ndarray) -> np.ndarray:
        """Boolean mask of ``times`` falling inside the interval."""
        times = np.asarray(times, dtype=float)
        return (times >= self.start) & (times <= self.stop)

    @classmethod
    def from_u_shape(cls, u_shape: UShape) -> "TimeInterval":
        """The suspicious interval bracketed by a curve U-shape."""
        return cls(u_shape.start_time, u_shape.stop_time)


@dataclass(frozen=True)
class DetectorConfig:
    """All tunables of the P-scheme detection stage.

    Paper-specified values
    ----------------------
    mc_window_days, arc_window_days, hc_window_ratings, me_window_ratings:
        30 days, 30 days, 40 ratings, 40 ratings (Section V-A).
    high_value_factor / low_value_factor / low_value_offset:
        ``threshold_a = high_value_factor * m`` and
        ``threshold_b = low_value_factor * m + low_value_offset`` where
        ``m`` is the stream's mean rating value.

    Calibrated values
    -----------------
    mc_peak_threshold:
        Minimum MC statistic (energy units) for a peak to count.
    harc_peak_threshold / harc_alarm_threshold,
    larc_peak_threshold / larc_alarm_threshold:
        Minimum ARC statistic for a U-shape peak / for raising an alarm,
        per detector side.  The high side needs larger thresholds: almost
        every fair rating counts as "high" (``threshold_a ~= 2`` on a
        fair mean of 4), so the H-ARC series inherits the full natural
        arrival variation, while the low side is quiet unless attacked.
    arc_peak_threshold / arc_alarm_threshold:
        Thresholds for the plain (all-ratings) ARC detector, used when it
        is run standalone.
    hc_suspicious_threshold:
        HC values above this mark a balanced-bimodal (suspicious) window.
    me_suspicious_threshold:
        Normalized AR model errors below this mark a predictable
        (suspicious) window.
    mc_mean_threshold1 / mc_mean_threshold2 / mc_trust_ratio_threshold:
        The Section IV-B.3 segment rules: ``|B_j - B_avg| > threshold1``
        alone, or ``> threshold2`` with segment trust ratio
        ``T_j / T_avg`` below the trust ratio threshold.
    """

    # Paper-specified windows (Section V-A).
    mc_window_days: float = 30.0
    arc_window_days: int = 30
    # Second ARC scale: slow-but-sustained ("drip") rate changes are only
    # statistically significant over longer windows; the total-LLR curve
    # units make the same thresholds valid at both scales.  0 disables.
    arc_long_window_days: int = 60
    hc_window_ratings: int = 40
    me_window_ratings: int = 40
    ar_order: int = 4
    # Value thresholds for high/low rating classification.
    high_value_factor: float = 0.5
    low_value_factor: float = 0.5
    low_value_offset: float = 0.5
    # Calibrated detection thresholds (see the class docstring: set near
    # the 99th percentile of the fair-only statistic distributions).
    mc_peak_threshold: float = 8.0
    arc_peak_threshold: float = 4.0
    arc_alarm_threshold: float = 5.5
    harc_peak_threshold: float = 6.0
    harc_alarm_threshold: float = 8.4
    larc_peak_threshold: float = 4.2
    larc_alarm_threshold: float = 5.2
    hc_suspicious_threshold: float = 0.92
    me_suspicious_threshold: float = 0.40
    # Section IV-C.3 segment rule: a segment is ARC-suspicious when its
    # per-day rate exceeds the previous segment's by the given ratio AND
    # by the given absolute amount (both, so near-zero baselines do not
    # trivially satisfy the ratio).
    arc_segment_rate_ratio: float = 1.8
    arc_segment_min_increase: float = 0.3
    # MC segment suspiciousness (Section IV-B.3).
    mc_mean_threshold1: float = 1.0
    mc_mean_threshold2: float = 0.4
    mc_trust_ratio_threshold: float = 0.9
    # Peak bookkeeping.
    peak_min_separation: int = 5
    # Streams shorter than this are left undetected (not enough evidence).
    min_ratings: int = 10
    # Ablation switches: disable one of the Figure 1 detection paths to
    # measure its contribution (see the ablation bench).
    enable_path1: bool = True
    enable_path2: bool = True

    def __post_init__(self) -> None:
        if self.mc_window_days <= 0:
            raise ValidationError("mc_window_days must be > 0")
        if self.arc_window_days < 2:
            raise ValidationError("arc_window_days must be >= 2")
        if self.hc_window_ratings < 2:
            raise ValidationError("hc_window_ratings must be >= 2")
        if self.me_window_ratings < 2 * self.ar_order:
            raise ValidationError(
                "me_window_ratings must be >= 2 * ar_order for the "
                "covariance-method AR fit"
            )
        if self.mc_mean_threshold2 > self.mc_mean_threshold1:
            raise ValidationError(
                "mc_mean_threshold2 must not exceed mc_mean_threshold1 "
                "(the paper requires threshold2 < threshold1)"
            )

    # ------------------------------------------------------------------ #

    def peak_threshold_for(self, kind: str) -> float:
        """The ARC-family peak threshold for ``kind``."""
        return {
            "ARC": self.arc_peak_threshold,
            "H-ARC": self.harc_peak_threshold,
            "L-ARC": self.larc_peak_threshold,
        }[kind]

    def alarm_threshold_for(self, kind: str) -> float:
        """The ARC-family alarm threshold for ``kind``."""
        return {
            "ARC": self.arc_alarm_threshold,
            "H-ARC": self.harc_alarm_threshold,
            "L-ARC": self.larc_alarm_threshold,
        }[kind]

    def high_value_threshold(self, mean_value: float) -> float:
        """``threshold_a``: ratings above this count as "high"."""
        return self.high_value_factor * mean_value

    def low_value_threshold(self, mean_value: float) -> float:
        """``threshold_b``: ratings below this count as "low"."""
        return self.low_value_factor * mean_value + self.low_value_offset


@dataclass(frozen=True)
class DetectionReport:
    """Everything the joint detector concluded about one product stream.

    Attributes
    ----------
    product_id:
        The analyzed product.
    suspicious:
        Boolean mask aligned with the stream: ``True`` marks ratings the
        detector flagged.
    path1_intervals / path2_intervals:
        Suspicious time intervals discovered by each detection path of
        Figure 1.
    provenance:
        Per-rating uint8 bitmask of ``PROV_*`` flags recording which path
        and which detectors marked the rating.  Nonzero exactly where
        ``suspicious`` is ``True``; decode with :func:`provenance_labels`.
    curves:
        The indicator curves of the sub-detectors that ran, by kind, for
        introspection and plotting: ``"MC"``, ``"H-ARC"`` and ``"L-ARC"``
        always, plus ``"HC"`` when the L-ARC alarm fired and ``"ME"``
        when the H-ARC alarm fired (Path 2 consults them only then;
        neither with Path 2 disabled).  Empty for a stream too short to
        detect.  The standalone detectors' ``.curve(stream)`` builds
        any of them for plotting.
    alarms:
        Which ARC alarms fired (``{"H-ARC": bool, "L-ARC": bool}``).
    """

    product_id: str
    suspicious: np.ndarray
    path1_intervals: Tuple[TimeInterval, ...] = ()
    path2_intervals: Tuple[TimeInterval, ...] = ()
    provenance: Optional[np.ndarray] = None
    curves: Mapping[str, Curve] = field(default_factory=dict)
    alarms: Mapping[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.suspicious.setflags(write=False)
        if self.provenance is None:
            object.__setattr__(
                self, "provenance",
                np.zeros(self.suspicious.shape, dtype=np.uint8),
            )
        self.provenance.setflags(write=False)

    @property
    def num_suspicious(self) -> int:
        """Count of ratings marked suspicious."""
        return int(self.suspicious.sum())

    @property
    def any_detection(self) -> bool:
        """Whether anything at all was flagged."""
        return bool(self.suspicious.any())

    def intervals(self) -> List[TimeInterval]:
        """All suspicious intervals (both paths)."""
        return list(self.path1_intervals) + list(self.path2_intervals)

    def provenance_of(self, index: int) -> Tuple[str, ...]:
        """Decoded provenance labels for the rating at ``index``."""
        return provenance_labels(int(self.provenance[index]))

    @property
    def provenance_consistent(self) -> bool:
        """Whether provenance is nonzero exactly where suspicious."""
        return bool(np.array_equal(self.provenance != 0, self.suspicious))

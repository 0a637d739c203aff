"""Peak finding and U-shape detection on indicator curves.

The joint detector (paper Fig. 1) reasons about the *shape* of indicator
curves: an attack confined to a time interval produces a statistic peak at
the attack's start and another at its end -- the curve rises, falls back,
and rises again, bracketing the suspicious interval.  The paper calls this
configuration a "U-shape" (the valley between two significant peaks).

:func:`find_peaks` extracts significant local maxima;
:func:`u_shape_from_peaks` returns the interval bracketed by the two
strongest of them, if the curve has one.  The detectors find each curve's
peaks once and derive the U-shape from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.signal.curves import Curve
from repro.utils.validation import check_non_negative, check_positive_int

__all__ = ["Peak", "UShape", "find_peaks", "u_shape_from_peaks"]


@dataclass(frozen=True)
class Peak:
    """A significant local maximum on an indicator curve.

    ``position`` is the index *into the curve*; ``index`` is the
    corresponding index into the underlying series (rating index or day
    index); ``time`` is in days; ``height`` is the statistic value.
    """

    position: int
    index: int
    time: float
    height: float


@dataclass(frozen=True)
class UShape:
    """Two peaks bracketing a suspicious valley.

    ``left`` and ``right`` are the bracketing :class:`Peak` objects; the
    suspicious interval is ``[left.time, right.time]`` (inclusive on both
    ends -- the attack's first and last ratings sit *at* the peaks).
    """

    left: Peak
    right: Peak

    @property
    def start_time(self) -> float:
        """Start of the suspicious interval (days)."""
        return self.left.time

    @property
    def stop_time(self) -> float:
        """End of the suspicious interval (days)."""
        return self.right.time

    @property
    def duration(self) -> float:
        """Length of the suspicious interval (days)."""
        return self.right.time - self.left.time


def find_peaks(curve: Curve, threshold: float, min_separation: int = 1) -> List[Peak]:
    """Return significant local maxima of ``curve``.

    A point is a peak when its value is strictly greater than its smaller
    neighbour and at least equal to the other (plateau edges count once),
    exceeds ``threshold``, and is at least ``min_separation`` curve points
    away from any previously accepted higher peak (greedy by height).
    Curve endpoints can be peaks (an attack touching the stream boundary
    produces only one interior flank).

    Candidates come from vectorized neighbour comparisons (NaN compares
    false, so a NaN point is never a peak); only the greedy suppression
    loops, and only over the candidates.
    """
    check_non_negative(threshold, "threshold")
    min_separation = check_positive_int(min_separation, "min_separation")
    v = curve.values
    n = v.size
    if n == 0:
        return []
    # Each endpoint stands in for its missing neighbour, so that side is
    # "at least equal" but never "strictly greater"; a lone point is a
    # peak by itself.
    padded = np.concatenate((v[:1], v, v[-1:]))
    left, right = padded[:-2], padded[2:]
    strict = (v > left) | (v > right) | (n == 1)
    candidates = np.flatnonzero(
        (v >= left) & (v >= right) & strict & (v > threshold)
    )
    # Greedy non-maximum suppression by height, ties by position.
    ranked = candidates[np.argsort(-v[candidates], kind="stable")].tolist()
    accepted: List[int] = []
    for i in ranked:
        if all(abs(i - j) >= min_separation for j in accepted):
            accepted.append(i)
    accepted.sort()
    return [
        Peak(
            position=i,
            index=int(curve.indices[i]),
            time=float(curve.times[i]),
            height=float(v[i]),
        )
        for i in accepted
    ]


def u_shape_from_peaks(curve: Curve, peaks: Sequence[Peak]) -> Optional[UShape]:
    """The U-shape spanned by ``peaks`` of ``curve``, if any.

    ``peaks`` are the curve's significant peaks, as :func:`find_peaks`
    returns them (so already ``min_separation`` apart).  Returns the
    :class:`UShape` of the two *highest* peaks whose valley dips below
    half the lower peak (so two samples of one wide plateau do not
    qualify); ``None`` when no pair qualifies.
    """
    if len(peaks) < 2:
        return None
    ranked = sorted(peaks, key=lambda p: -p.height)
    for i in range(len(ranked)):
        for j in range(i + 1, len(ranked)):
            a, b = ranked[i], ranked[j]
            left, right = (a, b) if a.position < b.position else (b, a)
            between = curve.values[left.position + 1 : right.position]
            if between.size == 0:
                continue
            valley = float(between.min())
            lower_peak = min(left.height, right.height)
            if valley <= 0.5 * lower_peak:
                return UShape(left=left, right=right)
    return None

"""Splitting a rating stream into segments at indicator-curve peaks.

The MC-suspiciousness rule (paper Section IV-B.3) divides all ratings into
segments *separated by the peaks on the mean change indicator curve*, then
judges each segment by its mean shift and its raters' average trust.  The
ARC-suspiciousness rule (Section IV-C.3) does the same over arrival-rate
peaks.  This module provides the segmentation primitives shared by both.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ValidationError
from repro.signal.peaks import Peak

__all__ = ["segment_bounds_from_peaks"]


def segment_bounds_from_peaks(
    n: int, peaks: Sequence[Peak]
) -> List[Tuple[int, int]]:
    """Half-open index segments ``[start, stop)`` separated by peak indices.

    ``n`` is the length of the underlying series.  Peak indices become
    segment boundaries: for peaks at indices ``p1 < p2 < ...`` the segments
    are ``[0, p1), [p1, p2), ..., [pk, n)``.  Duplicate or out-of-range
    peak indices are dropped; with no usable peaks the single segment
    ``[0, n)`` is returned.  Empty segments are never produced.
    """
    if n < 0:
        raise ValidationError(f"series length must be >= 0, got {n}")
    if n == 0:
        return []
    cut_points = sorted({p.index for p in peaks if 0 < p.index < n})
    bounds: List[Tuple[int, int]] = []
    start = 0
    for cut in cut_points:
        if cut > start:
            bounds.append((start, cut))
            start = cut
    bounds.append((start, n))
    return bounds

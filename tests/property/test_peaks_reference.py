"""Exact-equality pinning of peak finding and run extraction.

:func:`repro.signal.peaks.find_peaks` finds its candidates with vectorized
neighbour comparisons, and :func:`repro.detectors.histogram._mask_to_intervals`
reads its runs off the mask's edges.  This module keeps the per-point
Python loops they replaced, and the U-shape search that re-ran them, verbatim,
and asserts equal ``Peak`` lists, U-shapes and intervals on randomized curves:
plateaus, ties, ``n`` in ``{0, 1, 2}``, NaN points and peaks at the curve
endpoints.
"""

from typing import List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.base import TimeInterval
from repro.detectors.histogram import _mask_to_intervals
from repro.signal.curves import Curve
from repro.signal.peaks import (
    Peak,
    UShape,
    detect_u_shape,
    find_peaks,
    u_shape_from_peaks,
)


# --------------------------------------------------------------------- #
# References: the per-point loops, kept verbatim.
# --------------------------------------------------------------------- #


def reference_find_peaks(
    curve: Curve, threshold: float, min_separation: int = 1
) -> List[Peak]:
    v = curve.values
    n = v.size
    if n == 0:
        return []
    candidates: List[int] = []
    for i in range(n):
        left_ok = i == 0 or v[i] >= v[i - 1]
        right_ok = i == n - 1 or v[i] >= v[i + 1]
        strict = (i > 0 and v[i] > v[i - 1]) or (i < n - 1 and v[i] > v[i + 1]) or n == 1
        if left_ok and right_ok and strict and v[i] > threshold:
            candidates.append(i)
    # Greedy non-maximum suppression by height.
    candidates.sort(key=lambda i: (-v[i], i))
    accepted: List[int] = []
    for i in candidates:
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


def reference_detect_u_shape(
    curve: Curve, threshold: float, min_separation: int = 2
) -> Optional[UShape]:
    peaks = reference_find_peaks(curve, threshold, min_separation)
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


def reference_mask_to_intervals(
    times: np.ndarray, mask: np.ndarray
) -> List[TimeInterval]:
    intervals: List[TimeInterval] = []
    start_idx: Optional[int] = None
    for i, flag in enumerate(mask):
        if flag and start_idx is None:
            start_idx = i
        elif not flag and start_idx is not None:
            intervals.append(TimeInterval(float(times[start_idx]), float(times[i - 1])))
            start_idx = None
    if start_idx is not None:
        intervals.append(TimeInterval(float(times[start_idx]), float(times[-1])))
    return intervals


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

# A few distinct levels make plateaus and ties common; NaN shows up too.
levels = st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.0, 5.0, 8.0, float("nan")])


@st.composite
def curves(draw, max_size=40):
    n = draw(st.integers(0, max_size))
    values = np.asarray(
        draw(st.lists(levels, min_size=n, max_size=n)), dtype=float
    )
    gaps = draw(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n)
    )
    times = np.cumsum(np.asarray(gaps, dtype=float))
    return Curve(
        kind="MC",
        times=times,
        indices=np.arange(n) * 3 + 1,
        values=values,
    )


thresholds = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])


def make_curve(values):
    values = np.asarray(values, dtype=float)
    n = values.size
    return Curve(
        kind="MC",
        times=np.arange(n, dtype=float),
        indices=np.arange(n),
        values=values,
    )


EDGE_CURVES = [
    [],
    [3.0],
    [0.0],
    [float("nan")],
    [3.0, 3.0],
    [3.0, 1.0],
    [1.0, 3.0],
    [float("nan"), 3.0],
    [5.0, 1.0, 5.0],
    [5.0, 5.0, 1.0, 5.0, 5.0],
    [1.0, 4.0, 4.0, 4.0, 1.0],
    [1.0, 4.0, float("nan"), 4.0, 1.0],
    [2.0, 2.0, 2.0, 2.0],
    [9.0, 0.0, 9.0, 0.0, 9.0, 0.0, 9.0],
]


class TestFindPeaksReference:
    @given(curves(), thresholds, st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, curve, threshold, min_separation):
        assert find_peaks(curve, threshold, min_separation) == (
            reference_find_peaks(curve, threshold, min_separation)
        )

    def test_edge_cases(self):
        for values in EDGE_CURVES:
            curve = make_curve(values)
            for threshold in (0.0, 1.0, 2.0):
                for separation in (1, 2, 5):
                    assert find_peaks(curve, threshold, separation) == (
                        reference_find_peaks(curve, threshold, separation)
                    ), (values, threshold, separation)

    def test_peak_fields_are_python_scalars(self):
        peaks = find_peaks(make_curve([0.0, 5.0, 0.0]), 1.0)
        assert peaks == [Peak(position=1, index=1, time=1.0, height=5.0)]
        peak = peaks[0]
        assert type(peak.position) is int and type(peak.index) is int
        assert type(peak.time) is float and type(peak.height) is float


class TestUShapeFromPeaks:
    @given(curves(), thresholds, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, curve, threshold, min_separation):
        # The detectors derive the U-shape from the peaks they already
        # found; that must equal the old detect_u_shape, which re-ran
        # the peak search itself.
        expected = reference_detect_u_shape(curve, threshold, min_separation)
        peaks = find_peaks(curve, threshold, min_separation)
        assert u_shape_from_peaks(curve, peaks) == expected
        assert detect_u_shape(curve, threshold, min_separation) == expected


masks = st.lists(st.booleans(), min_size=0, max_size=40)


class TestMaskToIntervalsReference:
    @given(masks, st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=40, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, flags, gaps):
        mask = np.asarray(flags, dtype=bool)
        times = np.cumsum(np.asarray(gaps[: mask.size], dtype=float))
        assert _mask_to_intervals(times, mask) == reference_mask_to_intervals(
            times, mask
        )

    def test_threshold_masks_with_nan(self):
        values = np.array([1.0, float("nan"), 5.0, 5.0, float("nan"), 5.0, 0.0, 5.0])
        times = np.arange(values.size, dtype=float)
        for mask in (values > 2.0, values < 2.0, ~(values > 2.0)):
            assert _mask_to_intervals(times, mask) == reference_mask_to_intervals(
                times, mask
            )

    def test_edge_cases(self):
        for flags in ([], [True], [False], [True, True], [True, False],
                      [False, True], [True, False, True]):
            mask = np.asarray(flags, dtype=bool)
            times = np.arange(mask.size, dtype=float) * 2.0
            assert _mask_to_intervals(times, mask) == reference_mask_to_intervals(
                times, mask
            )

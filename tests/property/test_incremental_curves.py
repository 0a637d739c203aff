"""Exact-equality pinning of the vectorized curve builders.

The fast-path builders in :mod:`repro.signal.curves` replaced per-window
Python loops with batched sliding-window kernels under a **bit-identical**
contract (the determinism and telemetry-parity suites depend on it).
This module retains the original naive implementations -- one scalar
statistic call per window centre, exactly as the pre-rewrite code did --
and asserts the production builders match them with ``np.array_equal``
(no tolerance) on randomized streams and on the structural edge cases:
empty streams, single ratings, all-same-day timestamps, constant values
(singular AR windows), and windows shorter than the AR order.

It also pins curve reuse: the joint detector's curves for a stream that
it (or its merge base) detected before, built from the changed windows
plus copies, equal the same builders run over the stream whole.  The
detector builds HC and ME curves only where Path 2 consults them, so the
HC and ME reuse is also pinned at the builders: given a base's values and
the rows its lineage added, they equal a whole build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.reference import (
    arrival_rate_curve,
    centered_windows,
    gaussian_mean_change_statistic,
    poisson_rate_change_statistic,
    two_cluster_split_1d,
)

from repro.aggregation import PScheme, PSchemeConfig, SimpleAveragingScheme
from repro.attacks.population import PopulationConfig, generate_population
from repro.detectors import DetectorConfig, JointDetector, extract_columns
from repro.detectors.arrival_rate import ArrivalRateDetector, arrival_series
from repro.detectors.integration import CURVE_CACHE_SIZE
from repro.errors import ValidationError
from repro.experiments.context import ExperimentContext
from repro.marketplace.challenge import RatingChallenge
from repro.obs import MetricsRegistry
from repro.online.system import OnlineRatingSystem
from repro.signal.ar import fit_ar_covariance
from repro.signal.curves import (
    arrival_rate_curves,
    histogram_change_curve,
    histogram_change_curves,
    mean_change_curve_by_time,
    mean_change_curves_by_time,
    model_error_curve,
    model_error_curves,
)
from repro.signal.rolling import EXACT_SUM_BOUND, _grid_sums, window_means
from repro.types import Rating, RatingDataset, RatingStream


# --------------------------------------------------------------------- #
# Naive references: the pre-rewrite per-window loops, kept verbatim.
# --------------------------------------------------------------------- #


def naive_mean_change_by_time(times, values, window_days):
    n = values.size
    half = window_days / 2.0
    stats = np.zeros(n, dtype=float)
    lo = 0
    hi = 0
    for k in range(n):
        t = times[k]
        while lo < n and times[lo] < t - half:
            lo += 1
        if hi < k:
            hi = k
        while hi < n and times[hi] < t + half:
            hi += 1
        first, second = values[lo:k], values[k:hi]
        if first.size and second.size:
            stats[k] = gaussian_mean_change_statistic(first, second)
    return times.copy(), np.arange(n), stats


def naive_arrival_rate(days, counts, half_width_days, total_llr):
    centers, stats = [], []
    for center, start, stop in centered_windows(counts.size, half_width_days):
        stats.append(
            poisson_rate_change_statistic(
                counts[start:center], counts[center:stop], total=total_llr
            )
        )
        centers.append(center)
    centers_arr = np.asarray(centers, dtype=int)
    return days[centers_arr], centers_arr, np.asarray(stats, dtype=float)


def naive_daily_counts(arc, stream):
    """``(days, counts)`` of an ARC detector's ratings of ``stream``, one
    ``np.histogram`` per stream, as the detector binned them before the
    batched builder."""
    if len(stream) == 0:
        return np.array([], dtype=int), np.array([], dtype=int)
    lo = float(np.floor(stream.times[0]))
    hi = float(np.ceil(stream.times[-1] + 1e-9))
    if hi <= lo:
        hi = lo + 1.0
    mean_value = float(stream.values.mean())
    if arc.kind == "H-ARC":
        selected = stream.times[
            stream.values > arc.config.high_value_threshold(mean_value)
        ]
    elif arc.kind == "L-ARC":
        selected = stream.times[
            stream.values < arc.config.low_value_threshold(mean_value)
        ]
    else:
        selected = stream.times
    days = np.arange(int(lo), int(hi), dtype=int)
    edges = np.arange(int(lo), int(hi) + 1, dtype=float)
    counts, _ = np.histogram(selected, bins=edges)
    return days, counts.astype(int)


def naive_histogram_change(times, values, window_ratings):
    n = values.size
    centers, stats = [], []
    for start in range(0, n - window_ratings + 1):
        stop = start + window_ratings
        labels = two_cluster_split_1d(values[start:stop])
        n1 = int(np.sum(labels == 0))
        n2 = int(np.sum(labels == 1))
        if n1 == 0 or n2 == 0:
            stats.append(0.0)
        else:
            stats.append(min(n1 / n2, n2 / n1))
        centers.append(start + window_ratings // 2)
    centers_arr = np.asarray(centers, dtype=int)
    return times[centers_arr], centers_arr, np.asarray(stats, dtype=float)


def naive_model_error(times, values, window_ratings, order):
    n = values.size
    centers, stats = [], []
    for start in range(0, n - window_ratings + 1):
        stop = start + window_ratings
        fit = fit_ar_covariance(values[start:stop], order)
        stats.append(fit.normalized_error)
        centers.append(start + window_ratings // 2)
    centers_arr = np.asarray(centers, dtype=int)
    return times[centers_arr], centers_arr, np.asarray(stats, dtype=float)


def assert_curve_equals(curve, reference):
    """Bitwise equality of a Curve against a naive (times, indices, values)."""
    ref_times, ref_indices, ref_values = reference
    assert np.array_equal(curve.times, ref_times)
    assert np.array_equal(curve.indices, ref_indices)
    assert np.array_equal(curve.values, ref_values)


# --------------------------------------------------------------------- #
# Randomized stream strategies
# --------------------------------------------------------------------- #

value_elements = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@st.composite
def rating_streams(draw, min_size=0, max_size=120):
    """(times, values) with non-decreasing times, possibly with ties."""
    n = draw(st.integers(min_size, max_size))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    values = draw(st.lists(value_elements, min_size=n, max_size=n))
    times = np.cumsum(np.asarray(gaps, dtype=float))
    return times, np.asarray(values, dtype=float)


@st.composite
def count_series(draw, max_size=90, max_count=30):
    n = draw(st.integers(0, max_size))
    counts = draw(
        st.lists(st.integers(0, max_count), min_size=n, max_size=n)
    )
    days = np.arange(n, dtype=float)
    return days, np.asarray(counts, dtype=float)


class TestMeanChangeByTimeExact:
    @given(rating_streams(), st.floats(min_value=0.5, max_value=40.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, stream, window_days):
        times, values = stream
        curve = mean_change_curve_by_time(times, values, window_days)
        if values.size < 2:
            assert curve.is_empty
            return
        assert_curve_equals(
            curve, naive_mean_change_by_time(times, values, window_days)
        )

    def test_all_same_day(self):
        # Every rating in one half-window: both halves non-empty for all
        # interior centres.
        times = np.zeros(30)
        values = np.linspace(0.0, 5.0, 30)
        curve = mean_change_curve_by_time(times, values, 30.0)
        assert_curve_equals(curve, naive_mean_change_by_time(times, values, 30.0))

    def test_sparse_times_empty_halves(self):
        # Gaps wider than the window leave empty halves -> statistic 0.
        times = np.array([0.0, 100.0, 200.0, 300.0])
        values = np.array([1.0, 5.0, 1.0, 5.0])
        curve = mean_change_curve_by_time(times, values, 10.0)
        assert_curve_equals(curve, naive_mean_change_by_time(times, values, 10.0))
        assert np.array_equal(curve.values, np.zeros(4))


class TestArrivalRateExact:
    @given(count_series(), st.integers(1, 20), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, series, half_width, total_llr):
        days, counts = series
        curve = arrival_rate_curve(
            days, counts, half_width, kind="H-ARC", total_llr=total_llr
        )
        if counts.size < 2:
            assert curve.is_empty
            return
        assert_curve_equals(
            curve, naive_arrival_rate(days, counts, half_width, total_llr)
        )

    @given(count_series(max_size=60, max_count=10**6), st.integers(1, 20),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_large_counts(self, series, half_width, total_llr):
        # Whole-number counts keep every half-window sum exact, however
        # large the counts are, so the prefix-sum means stay bit-equal.
        days, counts = series
        curve = arrival_rate_curve(
            days, counts, half_width, kind="L-ARC", total_llr=total_llr
        )
        if counts.size < 2:
            assert curve.is_empty
            return
        assert_curve_equals(
            curve, naive_arrival_rate(days, counts, half_width, total_llr)
        )

    def test_edge_cases(self):
        for n in (0, 1, 2, 3):
            days = np.arange(n, dtype=float)
            counts = np.zeros(n)
            curve = arrival_rate_curve(days, counts, 15)
            if n < 2:
                assert curve.is_empty
            else:
                assert_curve_equals(
                    curve, naive_arrival_rate(days, counts, 15, True)
                )

    def test_spikes_of_a_million(self):
        counts = np.zeros(80)
        counts[[0, 17, 18, 40, 79]] = 10**6
        counts[50:60] = 999_999
        days = np.arange(counts.size, dtype=float)
        for half_width in (1, 7, 15, 30):
            curve = arrival_rate_curve(days, counts, half_width)
            assert_curve_equals(
                curve, naive_arrival_rate(days, counts, half_width, True)
            )

    @pytest.mark.parametrize(
        "bad", [0.5, 2.25, float("nan"), float("inf"), 2.0**53]
    )
    def test_rejects_counts_that_are_not_exact_whole_numbers(self, bad):
        counts = np.array([1.0, 3.0, bad, 0.0, 2.0])
        days = np.arange(counts.size, dtype=float)
        with pytest.raises(ValidationError):
            arrival_rate_curve(days, counts, 2)


def bits(values):
    """The IEEE bits of a float array: equal bits, equal floats, and
    ``0.0`` differs from ``-0.0``."""
    return np.asarray(values, dtype=float).view(np.int64)


# --------------------------------------------------------------------- #
# window_means: exact prefix sums on the half-star grid
# --------------------------------------------------------------------- #

#: Rating values by family: the grid the exact path takes, and what it
#: must leave to the gather path.
WINDOW_VALUES = {
    "half stars": st.integers(0, 10).map(lambda k: k / 2),
    "whole stars": st.integers(0, 5).map(float),
    "negative half steps": st.integers(-10, 10).map(lambda k: k / 2),
    "continuous": value_elements,
    "mixed": st.one_of(
        st.integers(0, 10).map(lambda k: k / 2),
        value_elements,
        st.sampled_from([-0.0, 0.0]),
    ),
    "signed zeros": st.sampled_from([-0.0, 0.0, 0.5, -0.5]),
    "past the bound": st.integers(-4, 4).map(lambda k: k * 2.0**50 + 0.5),
}


def reference_window_means(values, starts, lengths):
    """One ``mean()`` per window slice."""
    return np.array(
        [values[s : s + l].mean() for s, l in zip(starts, lengths)], dtype=float
    )


class TestWindowMeansExact:
    @given(st.sampled_from(sorted(WINDOW_VALUES)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_slice_means(self, family, data):
        values = np.asarray(
            data.draw(st.lists(WINDOW_VALUES[family], min_size=1, max_size=80)),
            dtype=float,
        )
        n = values.size
        starts = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), max_size=40)), dtype=np.int64
        )
        lengths = np.asarray(
            [data.draw(st.integers(1, n - s)) for s in starts], dtype=np.int64
        )
        got = window_means(values, starts, lengths)
        assert np.array_equal(
            bits(got), bits(reference_window_means(values, starts, lengths))
        )

    def test_grid_windows_take_the_prefix_sum(self):
        values = np.array([4.0, 4.5, 3.5, 0.3, 5.0, 5.0, -1.5, 2.0])
        starts = np.array([0, 1, 2, 4, 5, 6])
        lengths = np.array([3, 2, 3, 2, 3, 2])
        exact, sums = _grid_sums(values, starts, starts + lengths)
        # Only the window holding 0.3 is off the grid.
        assert exact.tolist() == [True, True, False, True, True, True]
        assert np.array_equal(
            bits(sums / lengths[exact]),
            bits(reference_window_means(values, starts, lengths)[exact]),
        )

    def test_negative_zero_windows_are_gathered(self):
        # numpy reduces a window of -0.0 to 0.0; a prefix difference over
        # it would give -0.0, so such windows stay off the grid.
        values = np.array([1.0, -0.0, -0.0, -0.0, 0.5])
        starts = np.array([1, 1, 2, 0])
        lengths = np.array([3, 1, 2, 5])
        exact, _ = _grid_sums(values, starts, starts + lengths)
        assert not exact.any()
        got = window_means(values, starts, lengths)
        assert np.array_equal(bits(got[:3]), bits([0.0, 0.0, 0.0]))
        assert np.array_equal(
            bits(got), bits(reference_window_means(values, starts, lengths))
        )

    def test_sums_past_the_bound_are_gathered(self):
        # In half steps the first two values sum to 2**53: a prefix sum
        # would round 0.5 away, so no window takes it.
        values = np.array([EXACT_SUM_BOUND / 2, EXACT_SUM_BOUND / 2, 0.5, 1.0])
        starts = np.array([0, 2, 3, 1])
        lengths = np.array([2, 2, 1, 2])
        exact, _ = _grid_sums(values, starts, starts + lengths)
        assert not exact.any()
        assert np.array_equal(
            bits(window_means(values, starts, lengths)),
            bits(reference_window_means(values, starts, lengths)),
        )
        # Just below the bound, every window is exact again.
        values[0] = EXACT_SUM_BOUND / 2 - 2.0
        exact, _ = _grid_sums(values, starts, starts + lengths)
        assert exact.all()
        assert np.array_equal(
            bits(window_means(values, starts, lengths)),
            bits(reference_window_means(values, starts, lengths)),
        )


# --------------------------------------------------------------------- #
# The batched ARC builder against per-stream histograms
# --------------------------------------------------------------------- #

arc_times = st.one_of(
    st.integers(-200, 200).map(lambda k: k / 4),  # integer and quarter days
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


@st.composite
def arc_batches(draw):
    """Streams with negative, integer and fractional times, some on one
    day, some short or empty, held back to back as the builders take
    them."""
    streams = []
    for j in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 40))
        if draw(st.booleans()):
            day = draw(st.integers(-30, 30))
            times = draw(
                st.lists(
                    st.floats(min_value=day, max_value=day + 0.999),
                    min_size=n, max_size=n,
                )
            )
        else:
            times = draw(st.lists(arc_times, min_size=n, max_size=n))
        values = draw(
            st.lists(st.one_of(st.integers(0, 10).map(lambda k: k / 2), value_elements),
                     min_size=n, max_size=n)
        )
        streams.append(
            RatingStream(f"p{j}", times, values, [f"r{i}" for i in range(n)])
        )
    return streams


def columns_of(streams):
    times = np.concatenate([np.empty(0)] + [s.times for s in streams])
    values = np.concatenate([np.empty(0)] + [s.values for s in streams])
    offsets = np.cumsum([0] + [len(s) for s in streams])
    return times, values, list(zip(offsets[:-1], offsets[1:]))


def assert_series_equals_reference(series, arc, stream):
    """One stream's batched ARC series against ``np.histogram`` counts
    and :func:`arrival_rate_curve` over them, at every scale."""
    days, counts = naive_daily_counts(arc, stream)
    assert np.array_equal(series.days, days)
    assert np.array_equal(series.counts, counts)
    assert series.counts.dtype == counts.dtype
    config = arc.config
    half_widths = [max(config.arc_window_days // 2, 1)]
    if config.arc_long_window_days:
        half_widths.append(max(config.arc_long_window_days // 2, 1))
    assert len(series.curves) == len(half_widths)
    for curve, half_width in zip(series.curves, half_widths):
        reference = arrival_rate_curve(
            days.astype(float), counts.astype(float), half_width, kind=arc.kind
        )
        assert curve.kind == arc.kind
        assert np.array_equal(bits(curve.times), bits(reference.times))
        assert np.array_equal(curve.indices, reference.indices)
        assert np.array_equal(bits(curve.values), bits(reference.values))
        if counts.size >= 2:
            assert_curve_equals(
                curve,
                naive_arrival_rate(days.astype(float), counts.astype(float),
                                   half_width, True),
            )


def assert_reports_match(a, b):
    assert np.array_equal(bits(a.curve.values), bits(b.curve.values))
    assert a.peaks == b.peaks
    assert a.u_shape == b.u_shape
    assert a.alarm == b.alarm
    assert a.suspicious_intervals == b.suspicious_intervals


#: Short windows, so that short drawn streams have interior centres, and
#: the long scale switched on and off.
ARC_CONFIGS = (
    DetectorConfig(arc_window_days=6, arc_long_window_days=14),
    DetectorConfig(arc_window_days=3, arc_long_window_days=0),
    DetectorConfig(),
)


class TestArrivalRateBatchExact:
    @given(arc_batches(), st.sampled_from(ARC_CONFIGS))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_stream_histograms(self, streams, config):
        detectors = tuple(
            ArrivalRateDetector(kind, config) for kind in ("H-ARC", "L-ARC", "ARC")
        )
        times, values, bounds = columns_of(streams)
        batch = arrival_series(detectors, times, values, bounds)
        assert len(batch) == len(streams)
        for stream, per_detector in zip(streams, batch):
            assert len(per_detector) == len(detectors)
            for arc, series in zip(detectors, per_detector):
                assert_series_equals_reference(series, arc, stream)
                # A stream analyzed alone is a batch of one.
                alone = arc.series(stream)
                assert np.array_equal(alone.counts, series.counts)
                assert_reports_match(
                    arc.analyze(stream), arc.analyze(stream, series)
                )

    @given(arc_batches(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_value_bands(self, streams, data):
        times, values, bounds = columns_of(streams)
        cuts = st.sampled_from([-np.inf, 0.0, 1.5, 2.25, 4.0, np.inf])
        bands = [
            (
                f"B{k}",
                np.array([data.draw(cuts) for _ in streams]),
                np.array([data.draw(cuts) for _ in streams]),
            )
            for k in range(data.draw(st.integers(1, 3)))
        ]
        half_widths = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
        batch = arrival_rate_curves(times, values, bounds, bands, half_widths)
        for j, stream in enumerate(streams):
            for (kind, lower, upper), series in zip(bands, batch[j]):
                inside = (lower[j] < stream.values) & (stream.values < upper[j])
                if len(stream):
                    lo = np.floor(stream.times[0])
                    hi = max(np.ceil(stream.times[-1] + 1e-9), lo + 1.0)
                    edges = np.arange(int(lo), int(hi) + 1, dtype=float)
                    counts, _ = np.histogram(stream.times[inside], bins=edges)
                else:
                    counts = np.zeros(0, dtype=int)
                assert np.array_equal(series.counts, counts)
                for curve, half_width in zip(series.curves, half_widths):
                    reference = arrival_rate_curve(
                        series.days.astype(float), counts.astype(float),
                        half_width, kind=kind,
                    )
                    assert np.array_equal(bits(curve.values), bits(reference.values))
                    assert np.array_equal(bits(curve.times), bits(reference.times))

    def test_empty_batch(self):
        detector = ArrivalRateDetector("L-ARC")
        assert arrival_series((detector,), np.empty(0), np.empty(0), []) == []

    def test_batch_of_one_with_one_day(self):
        stream = RatingStream("p", [3.0, 3.2, 3.9], [4.0, 1.0, 1.0], list("abc"))
        for kind in ("H-ARC", "L-ARC"):
            arc = ArrivalRateDetector(kind)
            series = arc.series(stream)
            assert series.days.tolist() == [3]
            assert_series_equals_reference(series, arc, stream)
            assert all(curve.is_empty for curve in series.curves)
            assert_reports_match(arc.analyze(stream), arc.analyze(stream, series))

    def test_rejects_counts_past_the_exact_bound(self, monkeypatch):
        # The builder keeps the whole-number and 2**53 check on the counts
        # it sums: a count past the bound must raise, not round.
        import repro.signal.curves as curves_module

        real = curves_module.day_counts

        def huge(*args):
            counts = real(*args).astype(float)
            counts[0] = 2.0**53
            return counts

        monkeypatch.setattr(curves_module, "day_counts", huge)
        stream = RatingStream("p", [0.0, 1.0, 2.0], [4.0] * 3, list("abc"))
        with pytest.raises(ValidationError):
            ArrivalRateDetector("ARC").series(stream)


class TestHistogramChangeExact:
    @given(rating_streams(max_size=100), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, stream, window):
        times, values = stream
        curve = histogram_change_curve(times, values, window)
        if values.size < window:
            assert curve.is_empty
            return
        assert_curve_equals(curve, naive_histogram_change(times, values, window))

    def test_edge_cases(self):
        rng = np.random.default_rng(7)
        for values in [
            np.array([]),
            np.array([4.0]),                                    # single rating
            np.full(50, 4.0),                                   # one cluster
            np.concatenate([np.full(25, 1.0), np.full(25, 5.0)]),  # two clusters
            rng.uniform(0, 5, 60),
        ]:
            times = np.zeros(values.size)                       # all same day
            curve = histogram_change_curve(times, values, 40)
            if values.size < 40:
                assert curve.is_empty
            else:
                assert_curve_equals(
                    curve, naive_histogram_change(times, values, 40)
                )


class TestModelErrorExact:
    @given(rating_streams(max_size=100), st.integers(8, 50), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, stream, window, order):
        times, values = stream
        if window < 2 * order:
            with pytest.raises(ValidationError):
                model_error_curve(times, values, window, order=order)
            return
        curve = model_error_curve(times, values, window, order=order)
        if values.size < window:
            assert curve.is_empty
            return
        assert_curve_equals(
            curve, naive_model_error(times, values, window, order)
        )

    def test_window_shorter_than_order_raises(self):
        times = np.arange(40.0)
        values = np.linspace(0, 5, 40)
        with pytest.raises(ValidationError):
            model_error_curve(times, values, 7, order=4)

    def test_constant_window_singular_fallback(self):
        # Constant values make the AR normal equations singular; the
        # batched solver must fall back to the pinv path and still match
        # the naive per-window fit exactly.
        values = np.concatenate([np.full(45, 4.0), np.linspace(0, 5, 30)])
        times = np.arange(values.size, dtype=float)
        curve = model_error_curve(times, values, 40, order=4)
        assert_curve_equals(curve, naive_model_error(times, values, 40, 4))
        # The all-constant windows report normalized error 1.0.
        assert curve.values[0] == 1.0

    def test_subnormal_window_falls_back_to_a_finite_error(self):
        # A subnormal value makes one window's LU solve overflow; the
        # batched solver must fall back and match the naive fit, and no
        # window may come out NaN (a NaN error is never flagged).
        values = np.array([0, 0, 1, 2.2e-313, 0, 0, 0, 0, 0.3, 1.2, 4.0, 2.5])
        times = np.arange(values.size, dtype=float)
        curve = model_error_curve(times, values, 8, order=4)
        assert_curve_equals(curve, naive_model_error(times, values, 8, 4))
        assert np.isfinite(curve.values).all()
        assert curve.values[0] == 0.0


def span_count(registry, kind):
    """How many ``detector.<kind>`` spans ``registry`` recorded."""
    hist = registry.histograms.get(f"span.detector.{kind}.seconds")
    return hist.count if hist is not None else 0


def _alarmed_stream(rng, product_id):
    """Fair-looking ratings plus a burst of zeros and a burst of fives,
    which raise the L-ARC and the H-ARC alarm: Path 2 consults HC and ME.
    Each burst is constant, so some of its ME windows are singular."""
    n = 300
    stream = RatingStream(
        product_id, np.sort(rng.uniform(0.0, 90.0, n)),
        rng.choice([3.5, 4.0, 4.5, 5.0], n), [f"r{i}" for i in range(n)],
    )
    for level, start, size in ((0.0, 20.0, 60), (5.0, 60.0, 80)):
        stream = stream.merge(
            RatingStream(
                product_id, np.linspace(start, start + 1.0, size),
                np.full(size, level), [f"x{level}"] * size, [True] * size,
            )
        )
    return stream


def _random_dataset(rng, num_products=6):
    streams = []
    for i in range(num_products):
        n = int(rng.integers(0, 200))
        times = np.sort(rng.uniform(0.0, 90.0, n))
        values = rng.uniform(0.0, 5.0, n)
        raters = [f"r{int(rng.integers(0, 40))}" for _ in range(n)]
        unfair = rng.random(n) < 0.2
        streams.append(RatingStream(f"p{i}", times, values, raters, unfair))
    return RatingDataset(streams)


class TestAnalyzeBatchEquivalence:
    """analyze_batch must reproduce per-stream analyze bit-for-bit."""

    def test_reports_and_metrics_match(self):
        rng = np.random.default_rng(2008)
        dataset = RatingDataset(
            list(_random_dataset(rng).streams()) + [_alarmed_stream(rng, "both")]
        )
        serial_registry = MetricsRegistry()
        batch_registry = MetricsRegistry()
        serial = JointDetector(registry=serial_registry)
        batched = JointDetector(registry=batch_registry)
        expected = {
            pid: serial.analyze(dataset[pid]) for pid in dataset
        }
        got = batched.analyze_batch(dataset)
        assert list(got) == list(expected)
        for pid in dataset:
            a, b = expected[pid], got[pid]
            assert np.array_equal(a.suspicious, b.suspicious)
            assert np.array_equal(a.provenance, b.provenance)
            assert a.path1_intervals == b.path1_intervals
            assert a.path2_intervals == b.path2_intervals
            assert a.alarms == b.alarms
            assert set(a.curves) == set(b.curves)
            for kind in a.curves:
                assert np.array_equal(a.curves[kind].times, b.curves[kind].times)
                assert np.array_equal(
                    a.curves[kind].indices, b.curves[kind].indices
                )
                assert np.array_equal(
                    a.curves[kind].values, b.curves[kind].values
                )
        # Both paths score every stream: MC and both ARC kinds run on
        # every detected stream, HC on each L-ARC alarm and ME on each
        # H-ARC alarm, which the reports' curves pin.  Each
        # analyze_batch call (a lone analyze is a batch of one) records
        # one detector.<kind> span per kind that ran on it.
        assert batch_registry.counter_value(
            "quality.scorecards"
        ) == serial_registry.counter_value("quality.scorecards")
        alarms = [report.alarms for report in got.values() if report.alarms]
        consulted = {
            "MC": len(alarms),
            "H-ARC": len(alarms),
            "L-ARC": len(alarms),
            "HC": sum(a["L-ARC"] for a in alarms),
            "ME": sum(a["H-ARC"] for a in alarms),
        }
        assert 0 < consulted["HC"] < len(alarms)
        assert 0 < consulted["ME"] < len(alarms)
        for kind, count in consulted.items():
            assert sum(kind in report.curves for report in got.values()) == count
            assert span_count(serial_registry, kind) == count, kind
            assert span_count(batch_registry, kind) == 1, kind

    def test_short_streams_counted(self):
        config = DetectorConfig()
        streams = [
            RatingStream("tiny", [1.0], [4.0], ["r1"]),
            RatingStream("empty", [], [], []),
        ]
        registry = MetricsRegistry()
        detector = JointDetector(config, registry=registry)
        reports = detector.analyze_batch(RatingDataset(streams))
        assert all(not r.suspicious.any() for r in reports.values())
        assert registry.counter_value("detector.short_streams") == 2

    def test_columns_roundtrip(self):
        rng = np.random.default_rng(11)
        dataset = _random_dataset(rng, num_products=4)
        columns = extract_columns(dataset)
        assert columns.product_ids == tuple(dataset)
        assert columns.total_ratings == dataset.total_ratings()
        for i, pid in enumerate(columns.product_ids):
            stream = dataset[pid]
            rows = slice(columns.offsets[i], columns.offsets[i + 1])
            assert np.array_equal(columns.times[rows], stream.times)
            assert np.array_equal(columns.values[rows], stream.values)


def _assert_stream_curves_match_naive(detector, report, stream):
    """MC, H-/L-ARC curves of one stream's batched report, and its HC (ME)
    curve, which it holds exactly when its L-ARC (H-ARC) alarm fired,
    against the naive references run on that stream alone (default
    config: both ARC scales)."""
    config = detector.config
    if len(stream) < config.min_ratings:
        assert report.curves == {}
        return
    assert_curve_equals(
        report.curves["MC"],
        naive_mean_change_by_time(stream.times, stream.values, config.mc_window_days),
    )
    consulted = {"HC": report.alarms["L-ARC"], "ME": report.alarms["H-ARC"]}
    assert {kind for kind in ("HC", "ME") if kind in report.curves} == {
        kind for kind, alarm in consulted.items() if alarm
    }
    if "HC" in report.curves:
        assert_curve_equals(
            report.curves["HC"],
            naive_histogram_change(
                stream.times, stream.values, config.hc_window_ratings
            ),
        )
    if "ME" in report.curves:
        assert_curve_equals(
            report.curves["ME"],
            naive_model_error(
                stream.times, stream.values, config.me_window_ratings,
                config.ar_order,
            ),
        )
    half_widths = (config.arc_window_days // 2, config.arc_long_window_days // 2)
    for arc in (detector.h_arc, detector.l_arc):
        days, counts = (a.astype(float) for a in naive_daily_counts(arc, stream))
        naive = [naive_arrival_rate(days, counts, h, True) for h in half_widths]
        assert_curve_equals(report.curves[arc.kind], naive[0])
        curves = arc.series(stream).curves
        assert len(curves) == len(naive)
        for curve, reference in zip(curves, naive):
            assert_curve_equals(curve, reference)


def _assert_window_builders_match_naive(config, dataset):
    """The HC and ME builders over *every* stream of ``dataset`` at once
    (the detector builds them only for alarmed streams) against the naive
    per-stream references; returns whether the stacked ME solve fell
    back."""
    columns = extract_columns(dataset)
    offsets = columns.offsets.tolist()
    bounds = list(zip(offsets[:-1], offsets[1:]))
    hc = histogram_change_curves(
        columns.times, columns.values, bounds, config.hc_window_ratings
    )
    me, fell_back = model_error_curves(
        columns.times, columns.values, bounds, config.me_window_ratings,
        config.ar_order,
    )
    for pid, hc_curve, me_curve in zip(columns.product_ids, hc, me):
        stream = dataset[pid]
        assert_curve_equals(
            hc_curve,
            naive_histogram_change(
                stream.times, stream.values, config.hc_window_ratings
            ),
        )
        assert_curve_equals(
            me_curve,
            naive_model_error(
                stream.times, stream.values, config.me_window_ratings,
                config.ar_order,
            ),
        )
    return fell_back


class TestBatchCurvesPerStream:
    """Every stream's batched curves equal the naive per-stream
    references: grouping windows by length (MC), stacking windows (HC)
    or stacking AR solves (ME) across streams must never mix one
    stream's ratings into another's windows."""

    def test_mixed_batch(self):
        rng = np.random.default_rng(17)
        streams = [
            RatingStream("empty", [], [], []),
            RatingStream("one", [4.0], [3.0], ["r0"]),
            RatingStream(
                "short", np.arange(9.0), rng.uniform(0, 5, 9),
                [f"r{i}" for i in range(9)],
            ),
            RatingStream(
                "same-day", np.full(25, 12.0), rng.uniform(0, 5, 25),
                [f"r{i}" for i in range(25)],
            ),
            RatingStream(
                "sparse", np.arange(12) * 40.0, rng.uniform(0, 5, 12),
                [f"r{i}" for i in range(12)],
            ),
            RatingStream(
                "constant", np.sort(rng.uniform(0, 60, 50)), np.full(50, 4.0),
                [f"r{i}" for i in range(50)],
            ),
        ]
        for i in range(4):
            n = int(rng.integers(10, 300))
            times = np.sort(rng.uniform(0.0, 120.0, n))
            values = np.clip(rng.normal(3.5, 1.0, n), 0.0, 5.0)
            streams.append(
                RatingStream(f"p{i}", times, values, [f"u{j}" for j in range(n)])
            )
        streams.append(_alarmed_stream(rng, "alarmed"))
        dataset = RatingDataset(streams)
        registry = MetricsRegistry()
        detector = JointDetector(registry=registry)
        reports = detector.analyze_batch(dataset)
        assert list(reports) == list(dataset)
        for pid in dataset:
            _assert_stream_curves_match_naive(detector, reports[pid], dataset[pid])
        assert "HC" in reports["p1"].curves and "ME" in reports["alarmed"].curves
        # Over every stream at once, the constant stream's windows make
        # the stacked AR solve singular, so it falls back to per-stream
        # solves.  The detector builds ME for the H-ARC-alarmed stream
        # only, whose constant bursts make its solve singular too: the
        # batch falls back once.  Analyzing the stream alone is no batch
        # and counts nothing.
        assert _assert_window_builders_match_naive(detector.config, dataset)
        assert "ME" not in reports["constant"].curves
        assert registry.counter_value("detector.batch.fallbacks") == 1
        detector.analyze(dataset["alarmed"])
        assert registry.counter_value("detector.batch.fallbacks") == 1

    @pytest.mark.parametrize("seed", [2008, 7])
    def test_attacked_datasets(self, seed):
        challenge = RatingChallenge(seed=seed)
        population = generate_population(
            challenge, PopulationConfig(size=4), seed=seed + 1
        )
        detector = JointDetector(registry=MetricsRegistry())
        consulted = 0
        for submission in population:
            dataset = challenge.attacked_dataset(submission)
            reports = detector.analyze_batch(dataset)
            for pid in dataset:
                _assert_stream_curves_match_naive(
                    detector, reports[pid], dataset[pid]
                )
                consulted += len(reports[pid].curves) > 3
            assert not _assert_window_builders_match_naive(detector.config, dataset)
        assert consulted > 0


# --------------------------------------------------------------------- #
# Curve reuse: changed windows computed, the rest copied
# --------------------------------------------------------------------- #


def whole_curves(config, stream):
    """The reference: one stream's MC, HC and ME curves built whole, as
    before curve reuse (the builders over a batch of one, nothing
    reused)."""
    times, values, bounds = stream.times, stream.values, [(0, len(stream))]
    (mc,) = mean_change_curves_by_time(times, values, bounds, config.mc_window_days)
    (hc,) = histogram_change_curves(times, values, bounds, config.hc_window_ratings)
    (me,), _ = model_error_curves(
        times, values, bounds, config.me_window_ratings, config.ar_order
    )
    return {"MC": mc, "HC": hc, "ME": me}


def assert_same_curve(curve, reference, label):
    assert np.array_equal(curve.times, reference.times), label
    assert np.array_equal(curve.indices, reference.indices), label
    assert np.array_equal(curve.values, reference.values), label


def assert_built_whole(detector, reports, dataset):
    """Every eligible stream's report holds its MC curve, and its HC (ME)
    curve exactly when its L-ARC (H-ARC) alarm fired, each equal to the
    whole-curve reference bit for bit."""
    for pid in dataset:
        stream = dataset[pid]
        if len(stream) < detector.config.min_ratings:
            continue
        report = reports[pid]
        held = {"MC"}
        held |= {"HC"} if report.alarms["L-ARC"] else set()
        held |= {"ME"} if report.alarms["H-ARC"] else set()
        assert {"MC", "HC", "ME"} & set(report.curves) == held, pid
        whole = whole_curves(detector.config, stream)
        for kind in held:
            assert_same_curve(report.curves[kind], whole[kind], (pid, kind))


def assert_reuse_builds_whole(config, base, stream):
    """``stream``'s HC and ME curves, built by the batch builders from
    ``base``'s whole curves and the rows ``stream.lineage`` says were
    added, equal ``stream``'s whole curves bit for bit.  Returns whether
    the ME solve fell back."""
    base_fingerprint, added = stream.lineage
    assert base_fingerprint == base.fingerprint
    prior = whole_curves(config, base)
    times, values, bounds = stream.times, stream.values, [(0, len(stream))]
    (hc,) = histogram_change_curves(
        times, values, bounds, config.hc_window_ratings,
        [(prior["HC"].values, added)],
    )
    (me,), fell_back = model_error_curves(
        times, values, bounds, config.me_window_ratings, config.ar_order,
        [(prior["ME"].values, added)],
    )
    whole = whole_curves(config, stream)
    assert_same_curve(hc, whole["HC"], "HC")
    assert_same_curve(me, whole["ME"], "ME")
    return fell_back


def assert_reports_equal(a, b):
    assert np.array_equal(a.suspicious, b.suspicious)
    assert np.array_equal(a.provenance, b.provenance)
    assert a.path1_intervals == b.path1_intervals
    assert a.path2_intervals == b.path2_intervals
    for kind in a.curves:
        assert np.array_equal(a.curves[kind].values, b.curves[kind].values)


#: Small windows, so that short drawn streams have several of each.
SMALL = DetectorConfig(
    mc_window_days=6.0, hc_window_ratings=8, me_window_ratings=8, ar_order=2,
    min_ratings=2,
)

half_days = st.integers(0, 80).map(lambda v: v / 2.0)


@st.composite
def grown_streams(draw):
    """A base stream and rows to merge into it.

    Times sit on a half-day grid, so inserted rows tie with base rows;
    inserted times reach before the base's first and after its last.
    Values repeat ``4.0`` often, so some windows are constant (singular
    AR fits).  The base may be empty or shorter than every window.
    """
    values = st.one_of(st.just(4.0), value_elements)
    n = draw(st.integers(0, 60))
    base_times = sorted(draw(st.lists(half_days, min_size=n, max_size=n)))
    base_values = draw(st.lists(values, min_size=n, max_size=n))
    m = draw(st.integers(0, 25))
    added_times = draw(
        st.lists(st.integers(-10, 100).map(lambda v: v / 2.0), min_size=m, max_size=m)
    )
    added_values = draw(st.lists(values, min_size=m, max_size=m))
    base = RatingStream("p", base_times, base_values, [f"r{i}" for i in range(n)])
    extra = RatingStream(
        "p", added_times, added_values, [f"a{i}" for i in range(m)], [True] * m
    )
    return base, extra


class TestCurveReuse:
    """A detector that saw a stream, or its merge base, before computes
    only the changed windows; its curves equal curves built whole."""

    @pytest.mark.parametrize("seed", [2008, 7])
    def test_population_in_headline_order(self, seed):
        # As manipulation_power detects them: the fair world, then the
        # attacked dataset (its streams merged from the fair ones).
        context = ExperimentContext(seed=seed, population_size=8)
        challenge = context.challenge
        registry = MetricsRegistry()
        detector = JointDetector(registry=registry)
        fair = challenge.fair_dataset
        for submission in context.population:
            attacked = challenge.attacked_dataset(submission)
            for dataset in (fair, attacked):
                assert_built_whole(detector, detector.analyze_batch(dataset), dataset)
            for pid in attacked:
                if attacked[pid].lineage is not None:
                    assert_reuse_builds_whole(detector.config, fair[pid], attacked[pid])
        # Only the fair world is built whole, once.  Every attacked
        # stream finds itself (an untargeted product) or its fair base.
        assert registry.counter_value("detector.curve_cache.misses") == 9
        assert registry.counter_value("detector.curve_cache.hits") == 8 * 18 - 9
        assert registry.counter_value("detector.batch.fallbacks") == 0

    @given(grown_streams())
    @settings(max_examples=120, deadline=None)
    def test_insertions(self, parts):
        base, extra = parts
        merged = base.merge(extra)
        grown = merged.merge(extra.rows(0, len(extra) // 2))
        registry = MetricsRegistry()
        detector = JointDetector(SMALL, registry=registry)
        for stream in (base, merged, grown):
            dataset = RatingDataset([stream])
            assert_built_whole(detector, detector.analyze_batch(dataset), dataset)
        assert_reuse_builds_whole(SMALL, base, merged)
        assert_reuse_builds_whole(SMALL, merged, grown)
        # Each stream long enough to detect finds its base in the cache.
        detected = [len(s) >= SMALL.min_ratings for s in (base, merged, grown)]
        hits = sum(a and b for a, b in zip(detected, detected[1:]))
        assert registry.counter_value("detector.curve_cache.hits") == hits
        assert registry.counter_value("detector.curve_cache.misses") == (
            sum(detected) - hits
        )

    def test_online_snapshots_across_epoch_closes(self):
        rng = np.random.default_rng(24)
        products = ("p", "q", "r")

        def rating(time, product, i):
            return Rating(time, f"u{i}", product, float(rng.uniform(0.0, 5.0)))

        history = RatingDataset(
            RatingStream(
                product,
                np.sort(rng.uniform(-30.0, 0.0, 50)),
                rng.uniform(0.0, 5.0, 50),
                [f"h{i}" for i in range(50)],
            )
            for product in products[:2]
        )
        system = OnlineRatingSystem(
            SimpleAveragingScheme(), period_days=20.0, history=history,
            monitor_drift=False,
        )
        ingested = {
            pid: [list(zip(s.times, s.values, s.rater_ids, s.unfair))]
            for pid, s in ((pid, history[pid]) for pid in history)
        }
        registry = MetricsRegistry()
        detector = JointDetector(registry=registry)
        previous = {}
        grown = 0
        times = np.sort(rng.uniform(0.0, 100.0, 300))
        for step, chunk in enumerate(np.array_split(np.arange(times.size), 6)):
            batch = [
                rating(float(times[i]), products[i % 3], i) for i in chunk
            ]
            if step >= 2:
                # Late ratings, timestamped inside published epochs,
                # and one tied in time with an earlier rating.
                batch += [
                    rating(float(rng.uniform(0.0, times[chunk[0]] - 25.0)), "p", -step),
                    rating(float(times[chunk[0] - 3]), "q", -10 * step),
                ]
            for r in batch:
                system.submit(r)
                ingested.setdefault(r.product_id, [[]])[0].append(
                    (r.time, r.value, r.rater_id, r.unfair)
                )
            snapshot = system.dataset()
            for pid in snapshot:
                reference = RatingStream(pid, *zip(*ingested[pid][0]))
                stream = snapshot[pid]
                assert np.array_equal(stream.times, reference.times)
                assert np.array_equal(stream.values, reference.values)
                assert np.array_equal(stream.unfair, reference.unfair)
                assert stream.rater_ids == reference.rater_ids
                assert stream.fingerprint == reference.fingerprint
            assert_built_whole(detector, detector.analyze_batch(snapshot), snapshot)
            # A stream grown from the last snapshot this loop took (not
            # from one an epoch close took in between) reuses its curves.
            for pid in snapshot:
                stream = snapshot[pid]
                base = previous.get(pid)
                if base is not None and stream.lineage is not None:
                    if stream.lineage[0] == base.fingerprint:
                        assert_reuse_builds_whole(detector.config, base, stream)
                        grown += 1
                previous[pid] = stream
        assert grown >= 3
        assert len(system.reports) >= 3
        assert sum(system.late_ratings_by_epoch().values()) >= 4
        assert registry.counter_value("detector.curve_cache.hits") > 0
        # A product that took no new rows keeps its snapshot stream.
        again = system.dataset()
        assert all(again[pid] is snapshot[pid] for pid in snapshot)

    def _singular_base(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 5.0, 160)
        values[40:80] = 4.0  # exactly one constant ME window: [40, 80)
        times = np.arange(160) * 0.5
        return RatingStream("p", times, values, [f"r{i}" for i in range(160)])

    @pytest.mark.parametrize(
        "added, fallbacks",
        [
            # After the end: the constant window is copied, never re-solved.
            ((200.0, 1.0), 0),
            # Inside the run, with its value: the touched windows are
            # recomputed, two of them constant, so the solve falls back.
            ((30.0, 4.0), 1),
        ],
    )
    def test_singular_window_copied_or_touched(self, added, fallbacks):
        base = self._singular_base()
        config = DetectorConfig()
        (_,), fell_back = model_error_curves(
            base.times, base.values, [(0, len(base))],
            config.me_window_ratings, config.ar_order,
        )
        assert fell_back
        merged = base.merge(RatingStream("p", [added[0]], [added[1]], ["x"], [True]))
        assert assert_reuse_builds_whole(config, base, merged) == bool(fallbacks)
        # The detector: the merged stream finds its base in the cache.
        registry = MetricsRegistry()
        detector = JointDetector(config, registry=registry)
        for stream in (base, merged):
            dataset = RatingDataset([stream])
            assert_built_whole(detector, detector.analyze_batch(dataset), dataset)
        assert registry.counter_value("detector.curve_cache.hits") == 1

    def test_evictions_past_the_cache_size(self):
        rng = np.random.default_rng(64)
        streams = [
            RatingStream(
                f"p{i}", np.sort(rng.uniform(0.0, 90.0, 60)),
                rng.uniform(0.0, 5.0, 60), [f"r{j}" for j in range(60)],
            )
            for i in range(CURVE_CACHE_SIZE + 6)
        ]
        registry = MetricsRegistry()
        detector = JointDetector(registry=registry)
        first = RatingDataset(streams)
        assert_built_whole(detector, detector.analyze_batch(first), first)
        assert registry.counter_value("detector.curve_cache.evictions") == 6
        # The six oldest were evicted: growing one of them misses and is
        # built whole; the newest are still there.
        grown = RatingDataset(
            [
                streams[0].merge(RatingStream("p0", [45.0], [1.0], ["x"])),
                streams[-1].merge(RatingStream(streams[-1].product_id, [45.0], [1.0], ["x"])),
            ]
        )
        reports = detector.analyze_batch(grown)
        assert_built_whole(detector, reports, grown)
        for base, stream in zip((streams[0], streams[-1]), grown.streams()):
            assert_reuse_builds_whole(detector.config, base, stream)
        assert registry.counter_value("detector.curve_cache.misses") == 71
        assert registry.counter_value("detector.curve_cache.hits") == 1
        assert registry.counter_value("detector.curve_cache.evictions") == 8
        for pid in grown:
            fresh = JointDetector(registry=MetricsRegistry()).analyze(grown[pid])
            assert_reports_equal(reports[pid], fresh)

    def test_two_pass_trust_pass_copies_every_curve(self):
        context = ExperimentContext(seed=2008, population_size=20)
        submission = context.population[0]
        registry = MetricsRegistry()
        scheme = PScheme(PSchemeConfig(two_pass=True), registry=registry)
        total = context.challenge.evaluate(submission, scheme, validate=False).total
        # The MP before curve reuse, pinned.
        assert total.hex() == "0x1.47950ee9ace80p-3"
        # First passes: the fair world (9 streams) is built whole; the
        # attacked world, scored after it, detects only its 4 attacked
        # streams (the report cache has the other 5), each from its fair
        # base.  Each trust pass re-detects all 9 streams of its world
        # from the cache.
        assert registry.counter_value("detector.curve_cache.misses") == 9
        assert registry.counter_value("detector.curve_cache.hits") == 4 + 9 + 9

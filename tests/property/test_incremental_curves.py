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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.population import PopulationConfig, generate_population
from repro.detectors import DetectorConfig, JointDetector, extract_columns
from repro.errors import ValidationError
from repro.marketplace.challenge import RatingChallenge
from repro.obs import MetricsRegistry
from repro.signal.ar import fit_ar_covariance
from repro.signal.clustering import two_cluster_split_1d
from repro.signal.curves import (
    arrival_rate_curve,
    histogram_change_curve,
    mean_change_curve_by_time,
    model_error_curve,
)
from repro.signal.glrt import gaussian_mean_change_statistic
from repro.signal.poisson import poisson_rate_change_statistic
from repro.types import RatingDataset, RatingStream
from repro.utils.windows import centered_windows


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
        dataset = _random_dataset(rng)
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
        # The batch path runs every sub-detector and scores every
        # stream as often as the per-stream path does.
        assert batch_registry.counter_value(
            "quality.scorecards"
        ) == serial_registry.counter_value("quality.scorecards")
        for kind in ("MC", "H-ARC", "L-ARC", "HC", "ME"):
            name = f"span.detector.{kind}.seconds"
            assert (
                batch_registry.histograms[name].count
                == serial_registry.histograms[name].count
            ), name

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
    """MC, H-/L-ARC, HC and ME curves of one stream's batched report
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
    assert_curve_equals(
        report.curves["HC"],
        naive_histogram_change(
            stream.times, stream.values, config.hc_window_ratings
        ),
    )
    assert_curve_equals(
        report.curves["ME"],
        naive_model_error(
            stream.times, stream.values, config.me_window_ratings,
            config.ar_order,
        ),
    )
    half_widths = (config.arc_window_days // 2, config.arc_long_window_days // 2)
    for arc in (detector.h_arc, detector.l_arc):
        days, counts = (a.astype(float) for a in arc.daily_counts(stream))
        naive = [naive_arrival_rate(days, counts, h, True) for h in half_widths]
        assert_curve_equals(report.curves[arc.kind], naive[0])
        curves = arc.curves(stream)
        assert len(curves) == len(naive)
        for curve, reference in zip(curves, naive):
            assert_curve_equals(curve, reference)


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
        dataset = RatingDataset(streams)
        registry = MetricsRegistry()
        detector = JointDetector(registry=registry)
        reports = detector.analyze_batch(dataset)
        assert list(reports) == list(dataset)
        for pid in dataset:
            _assert_stream_curves_match_naive(detector, reports[pid], dataset[pid])
        # The constant stream's windows make the stacked AR solve
        # singular, so the batch falls back once, to per-stream solves.
        # Analyzing that stream alone is no batch and counts nothing.
        assert registry.counter_value("detector.batch.fallbacks") == 1
        detector.analyze(dataset["constant"])
        assert registry.counter_value("detector.batch.fallbacks") == 1

    @pytest.mark.parametrize("seed", [2008, 7])
    def test_attacked_datasets(self, seed):
        challenge = RatingChallenge(seed=seed)
        population = generate_population(
            challenge, PopulationConfig(size=4), seed=seed + 1
        )
        detector = JointDetector(registry=MetricsRegistry())
        for submission in population:
            dataset = challenge.attacked_dataset(submission)
            reports = detector.analyze_batch(dataset)
            for pid in dataset:
                _assert_stream_curves_match_naive(
                    detector, reports[pid], dataset[pid]
                )

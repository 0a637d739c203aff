"""Unit tests for indicator-curve construction."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.signal.curves import (
    arrival_rate_curve,
    histogram_change_curve,
    mean_change_curve_by_time,
    model_error_curve,
)


def step_series(n=100, change_at=50, low=4.0, high=1.0):
    """Times 0..n-1, values stepping from low to high at change_at."""
    times = np.arange(n, dtype=float)
    values = np.where(times < change_at, low, high)
    return times, values


class TestMeanChangeCurveByTime:
    def test_peak_near_change_point(self):
        times, values = step_series(200, change_at=100)
        curve = mean_change_curve_by_time(times, values, window_days=40.0)
        peak_time = curve.times[int(np.argmax(curve.values))]
        assert 95 <= peak_time <= 105

    def test_zero_where_half_empty(self):
        # The first rating has no earlier ratings in its window half.
        times, values = step_series(50)
        curve = mean_change_curve_by_time(times, values, 10.0)
        assert curve.values[0] == 0.0

    def test_statistic_magnitude_balanced(self):
        # Step of 3.0 with ~20 ratings per half: stat ~ 2*(10)*(9) = 180.
        times, values = step_series(200, change_at=100, low=4.0, high=1.0)
        curve = mean_change_curve_by_time(times, values, 40.0)
        assert curve.max_value() == pytest.approx(2 * 10 * 9.0, rel=0.1)

    def test_empty_and_single(self):
        assert mean_change_curve_by_time(np.array([]), np.array([]), 5.0).is_empty
        assert mean_change_curve_by_time(np.array([1.0]), np.array([4.0]), 5.0).is_empty


class TestArrivalRateCurve:
    def test_peak_at_rate_change(self):
        counts = np.concatenate([np.full(40, 2.0), np.full(40, 10.0)])
        days = np.arange(80, dtype=float)
        curve = arrival_rate_curve(days, counts, 15)
        peak_day = curve.times[int(np.argmax(curve.values))]
        assert 38 <= peak_day <= 42

    def test_constant_rate_near_zero(self):
        days = np.arange(60, dtype=float)
        curve = arrival_rate_curve(days, np.full(60, 5.0), 15)
        np.testing.assert_allclose(curve.values, 0.0, atol=1e-9)

    def test_total_llr_vs_per_day(self):
        counts = np.concatenate([np.full(30, 2.0), np.full(30, 8.0)])
        days = np.arange(60, dtype=float)
        total = arrival_rate_curve(days, counts, 15, total_llr=True)
        per_day = arrival_rate_curve(days, counts, 15, total_llr=False)
        # At the exact centre, windows are full (30 days): ratio 30.
        c = 30
        i = int(np.where(total.indices == c)[0][0])
        assert total.values[i] == pytest.approx(30 * per_day.values[i])

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValidationError):
            arrival_rate_curve(np.arange(5.0), np.ones(4), 2)

    def test_kind_label(self):
        days = np.arange(10, dtype=float)
        curve = arrival_rate_curve(days, np.ones(10), 3, kind="L-ARC")
        assert curve.kind == "L-ARC"


class TestHistogramChangeCurve:
    def test_balanced_bimodal_high(self):
        times = np.arange(40, dtype=float)
        values = np.array([4.5, 0.5] * 20)
        curve = histogram_change_curve(times, values, 40)
        assert curve.values[0] == pytest.approx(1.0)

    def test_unimodal_low(self):
        rng = np.random.default_rng(3)
        times = np.arange(60, dtype=float)
        values = np.clip(rng.normal(4.0, 0.3, 60), 0, 5)
        curve = histogram_change_curve(times, values, 40)
        assert curve.max_value() < 0.8

    def test_window_too_large_empty(self):
        curve = histogram_change_curve(np.arange(5.0), np.ones(5), 40)
        assert curve.is_empty

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(4)
        times = np.arange(100, dtype=float)
        values = rng.uniform(0, 5, 100)
        curve = histogram_change_curve(times, values, 20)
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)


class TestModelErrorCurve:
    def test_noise_window_high_error(self):
        rng = np.random.default_rng(5)
        times = np.arange(120, dtype=float)
        values = rng.normal(4, 0.5, 120)
        curve = model_error_curve(times, values, 40, order=4)
        assert float(np.median(curve.values)) > 0.5

    def test_deterministic_signal_low_error(self):
        times = np.arange(120, dtype=float)
        values = 3.0 + np.sin(0.4 * times)
        curve = model_error_curve(times, values, 40, order=4)
        assert curve.values.min() < 1e-8

    def test_window_smaller_than_order_rejected(self):
        with pytest.raises(ValidationError):
            model_error_curve(np.arange(50.0), np.ones(50), 6, order=4)

    def test_short_series_empty(self):
        curve = model_error_curve(np.arange(10.0), np.ones(10), 40, order=4)
        assert curve.is_empty


class TestCurveHelpers:
    def test_above_below(self):
        times, values = step_series(60, 30)
        curve = mean_change_curve_by_time(times, values, 20.0)
        assert curve.above(curve.max_value() - 1e-9).sum() >= 1
        assert curve.below(0.0).sum() == 0

    def test_misaligned_curve_arrays_rejected(self):
        from repro.signal.curves import Curve

        with pytest.raises(ValidationError):
            Curve(
                kind="MC",
                times=np.array([1.0, 2.0]),
                indices=np.array([1]),
                values=np.array([0.5, 0.7]),
            )

"""Unit tests for the Gaussian and Poisson GLRT statistics."""

import numpy as np
import pytest
from tests.reference import (
    gaussian_mean_change_statistic,
    poisson_rate_change_statistic,
)

from repro.errors import EmptyDataError


class TestGaussianMeanChange:
    def test_zero_for_identical_means(self):
        x = np.full(10, 4.0)
        assert gaussian_mean_change_statistic(x, x) == 0.0

    def test_matches_paper_form_for_balanced_halves(self):
        # Balanced case: statistic must equal W * (A1 - A2)^2.
        w = 7
        x1 = np.full(w, 4.0)
        x2 = np.full(w, 3.0)
        assert gaussian_mean_change_statistic(x1, x2) == pytest.approx(w * 1.0)

    def test_unbalanced_halves(self):
        x1 = np.full(4, 2.0)
        x2 = np.full(12, 5.0)
        expected = 2.0 * (4 * 12) / 16 * 9.0
        assert gaussian_mean_change_statistic(x1, x2) == pytest.approx(expected)

    def test_symmetric_in_halves(self):
        rng = np.random.default_rng(0)
        x1, x2 = rng.normal(4, 1, 9), rng.normal(3, 1, 13)
        assert gaussian_mean_change_statistic(x1, x2) == pytest.approx(
            gaussian_mean_change_statistic(x2, x1)
        )

    def test_empty_half_raises(self):
        with pytest.raises(EmptyDataError):
            gaussian_mean_change_statistic(np.array([]), np.array([1.0]))

    def test_grows_with_mean_gap(self):
        x1 = np.full(10, 4.0)
        small = gaussian_mean_change_statistic(x1, np.full(10, 3.5))
        large = gaussian_mean_change_statistic(x1, np.full(10, 1.0))
        assert large > small


class TestPoissonRateChange:
    def test_zero_for_equal_rates(self):
        y = np.full(10, 3.0)
        assert poisson_rate_change_statistic(y, y) == 0.0

    def test_positive_for_rate_change(self):
        y1 = np.full(10, 1.0)
        y2 = np.full(10, 5.0)
        assert poisson_rate_change_statistic(y1, y2) > 0.0

    def test_handles_zero_counts(self):
        y1 = np.zeros(10)
        y2 = np.full(10, 3.0)
        stat = poisson_rate_change_statistic(y1, y2)
        assert np.isfinite(stat) and stat > 0

    def test_both_zero_is_zero(self):
        assert poisson_rate_change_statistic(np.zeros(5), np.zeros(5)) == 0.0

    def test_total_flag_scales_by_window(self):
        y1 = np.full(6, 1.0)
        y2 = np.full(6, 4.0)
        per_day = poisson_rate_change_statistic(y1, y2)
        total = poisson_rate_change_statistic(y1, y2, total=True)
        assert total == pytest.approx(12 * per_day)

    def test_manual_value(self):
        # a = b = 1, y1 = [1], y2 = [e]: statistic = 0.5*0 + 0.5*e - pooled
        y1, y2 = np.array([1.0]), np.array([np.e])
        pooled = (1 + np.e) / 2
        expected = 0.5 * 0.0 + 0.5 * np.e - pooled * np.log(pooled)
        assert poisson_rate_change_statistic(y1, y2) == pytest.approx(expected)

    def test_empty_half_raises(self):
        with pytest.raises(EmptyDataError):
            poisson_rate_change_statistic(np.array([]), np.ones(3))

    def test_negative_counts_rejected(self):
        with pytest.raises(EmptyDataError):
            poisson_rate_change_statistic(np.array([-1.0]), np.ones(3))

    def test_symmetry(self):
        y1 = np.full(8, 2.0)
        y2 = np.full(8, 7.0)
        assert poisson_rate_change_statistic(y1, y2) == pytest.approx(
            poisson_rate_change_statistic(y2, y1)
        )

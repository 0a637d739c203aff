"""Unit tests for AR fitting (covariance method) and single-linkage clustering."""

import numpy as np
import pytest
from tests.reference import single_linkage_two_clusters, two_cluster_split_1d

from repro.errors import EmptyDataError, ValidationError
from repro.signal.ar import fit_ar_covariance, model_error


class TestARCovariance:
    def test_recovers_known_ar1(self):
        # x[n] = 0.8 x[n-1] + tiny noise: coefficient a_1 ~= -0.8 in the
        # convention x[n] + a_1 x[n-1] = e[n].
        rng = np.random.default_rng(0)
        x = np.zeros(500)
        for i in range(1, 500):
            x[i] = 0.8 * x[i - 1] + rng.normal(0, 0.01)
        fit = fit_ar_covariance(x, 1)
        assert fit.coefficients[0] == pytest.approx(-0.8, abs=0.02)

    def test_white_noise_has_high_normalized_error(self):
        rng = np.random.default_rng(1)
        error = model_error(rng.normal(0, 1, 400), order=4)
        assert 0.8 < error < 1.2

    def test_sinusoid_has_near_zero_error(self):
        x = np.sin(0.3 * np.arange(200))
        assert model_error(x, order=4) < 1e-10

    def test_constant_window_defined_as_noise(self):
        assert model_error(np.full(50, 4.0), order=4) == 1.0

    def test_subnormal_value_gives_finite_error(self):
        # The LU solve divides by a subnormal pivot and overflows; the
        # pseudo-inverse solve then fits the all-zero targets exactly.
        fit = fit_ar_covariance(np.array([0, 0, 1, 2.2e-313, 0, 0, 0, 0]), 4)
        assert fit.normalized_error == 0.0
        assert np.isfinite(fit.coefficients).all()

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValidationError):
            fit_ar_covariance(np.array([1.0, np.nan, 2.0, 3.0]), 1)

    def test_exact_ar2_signal(self):
        # Deterministic AR(2) process has zero prediction error.
        x = np.zeros(100)
        x[0], x[1] = 1.0, 0.5
        for i in range(2, 100):
            x[i] = 1.2 * x[i - 1] - 0.5 * x[i - 2]
        fit = fit_ar_covariance(x, 2)
        assert fit.error_power == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(fit.coefficients, [-1.2, 0.5], atol=1e-6)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            fit_ar_covariance(np.ones(7), 4)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            fit_ar_covariance(np.array([]), 1)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValidationError):
            fit_ar_covariance(np.ones(10), 0)

    def test_coefficients_frozen(self):
        fit = fit_ar_covariance(np.sin(0.5 * np.arange(50)), 2)
        with pytest.raises(ValueError):
            fit.coefficients[0] = 0.0


class TestTwoClusterSplit1D:
    def test_obvious_two_clusters(self):
        values = np.array([0.1, 0.2, 4.8, 4.9, 5.0])
        labels = two_cluster_split_1d(values)
        np.testing.assert_array_equal(labels, [0, 0, 1, 1, 1])

    def test_cluster_zero_holds_smallest(self):
        values = np.array([5.0, 0.0, 4.9])
        labels = two_cluster_split_1d(values)
        assert labels[1] == 0

    def test_single_point(self):
        np.testing.assert_array_equal(two_cluster_split_1d(np.array([3.0])), [0])

    def test_all_equal_single_cluster(self):
        labels = two_cluster_split_1d(np.full(6, 4.0))
        assert set(labels) == {0}

    def test_unsorted_input(self):
        values = np.array([5.0, 0.1, 4.9, 0.2])
        labels = two_cluster_split_1d(values)
        assert labels[0] == labels[2] == 1
        assert labels[1] == labels[3] == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyDataError):
            two_cluster_split_1d(np.array([]))

    def test_tie_breaks_at_last_maximal_gap(self):
        # Gaps of 1 between every pair: Kruskal leaves the last gap uncut.
        labels = two_cluster_split_1d(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(labels, [0, 0, 1])


class TestGeneralSingleLinkage:
    def test_matches_fast_path_on_examples(self):
        cases = [
            np.array([0.1, 0.2, 4.8, 4.9, 5.0]),
            np.array([1.0, 1.1, 1.2, 3.0, 3.1]),
            np.array([0.0, 1.0, 2.0, 3.0]),
            np.array([2.0, 2.0, 2.0]),
            np.array([5.0]),
        ]
        for values in cases:
            np.testing.assert_array_equal(
                single_linkage_two_clusters(values),
                two_cluster_split_1d(values),
                err_msg=f"disagreement on {values}",
            )

    def test_empty_raises(self):
        with pytest.raises(EmptyDataError):
            single_linkage_two_clusters(np.array([]))

    def test_two_points(self):
        labels = single_linkage_two_clusters(np.array([1.0, 9.0]))
        np.testing.assert_array_equal(labels, [0, 1])

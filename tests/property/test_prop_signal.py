"""Property-based tests for the signal substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from tests.reference import (
    gaussian_mean_change_statistic,
    poisson_rate_change_statistic,
    single_linkage_two_clusters,
    two_cluster_split_1d,
)

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
sample = arrays(np.float64, st.integers(1, 40), elements=finite_floats)
counts = arrays(
    np.float64,
    st.integers(1, 40),
    elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


class TestGaussianStatisticProperties:
    @given(sample, sample)
    def test_non_negative(self, x1, x2):
        assert gaussian_mean_change_statistic(x1, x2) >= 0.0

    @given(sample, sample)
    def test_symmetric(self, x1, x2):
        a = gaussian_mean_change_statistic(x1, x2)
        b = gaussian_mean_change_statistic(x2, x1)
        assert np.isclose(a, b, rtol=1e-9, atol=1e-9)

    @given(sample)
    def test_zero_against_itself(self, x):
        assert gaussian_mean_change_statistic(x, x) == 0.0

    @given(sample, finite_floats)
    def test_shift_invariance(self, x, shift):
        """Adding the same constant to both halves changes nothing."""
        a = gaussian_mean_change_statistic(x, x + 1.0)
        b = gaussian_mean_change_statistic(x + shift, x + 1.0 + shift)
        assert np.isclose(a, b, rtol=1e-6, atol=1e-6)

    @given(sample, st.floats(min_value=0.01, max_value=10.0))
    def test_quadratic_in_gap(self, x, gap):
        """Statistic scales with the square of the mean gap."""
        one = gaussian_mean_change_statistic(x, x + gap)
        two = gaussian_mean_change_statistic(x, x + 2.0 * gap)
        assert np.isclose(two, 4.0 * one, rtol=1e-6, atol=1e-9)


class TestPoissonStatisticProperties:
    @given(counts, counts)
    def test_non_negative(self, y1, y2):
        assert poisson_rate_change_statistic(y1, y2) >= 0.0

    @given(counts, counts)
    def test_symmetric(self, y1, y2):
        a = poisson_rate_change_statistic(y1, y2)
        b = poisson_rate_change_statistic(y2, y1)
        assert np.isclose(a, b, rtol=1e-9, atol=1e-12)

    @given(counts)
    def test_zero_against_itself(self, y):
        assert np.isclose(
            poisson_rate_change_statistic(y, y), 0.0, atol=1e-12
        )

    @given(counts, counts)
    def test_total_equals_per_day_times_window(self, y1, y2):
        per_day = poisson_rate_change_statistic(y1, y2)
        total = poisson_rate_change_statistic(y1, y2, total=True)
        assert np.isclose(total, per_day * (y1.size + y2.size), rtol=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.integers(2, 30),
    )
    def test_constant_halves_depend_only_on_rates(self, r1, r2, n):
        """For constant counts the statistic reduces to the rate KL form."""
        y1 = np.full(n, r1)
        y2 = np.full(n, r2)
        stat = poisson_rate_change_statistic(y1, y2)
        if abs(r1 - r2) < 1e-6:
            assert stat < 1e-5
        else:
            assert stat > 0.0


class TestClusteringProperties:
    @given(arrays(np.float64, st.integers(1, 25), elements=finite_floats))
    @settings(max_examples=150)
    def test_fast_and_general_agree(self, values):
        np.testing.assert_array_equal(
            two_cluster_split_1d(values), single_linkage_two_clusters(values)
        )

    @given(arrays(np.float64, st.integers(2, 40), elements=finite_floats))
    def test_labels_are_binary_and_ordered(self, values):
        labels = two_cluster_split_1d(values)
        assert set(labels).issubset({0, 1})
        # Cluster 0 contains the minimum.
        assert labels[int(np.argmin(values))] == 0
        # Clusters are separated: max of cluster 0 < min of cluster 1.
        if (labels == 1).any():
            assert values[labels == 0].max() < values[labels == 1].min()

    @given(arrays(np.float64, st.integers(2, 30), elements=finite_floats))
    def test_split_at_largest_gap(self, values):
        labels = two_cluster_split_1d(values)
        if not (labels == 1).any():
            return  # one cluster: all values equal
        sorted_vals = np.sort(values)
        gaps = np.diff(sorted_vals)
        boundary_gap = values[labels == 1].min() - values[labels == 0].max()
        assert np.isclose(boundary_gap, gaps.max())

    @given(arrays(np.float64, st.integers(1, 30), elements=finite_floats))
    def test_permutation_invariance(self, values):
        rng = np.random.default_rng(0)
        perm = rng.permutation(values.size)
        base = two_cluster_split_1d(values)
        permuted = two_cluster_split_1d(values[perm])
        np.testing.assert_array_equal(base[perm], permuted)

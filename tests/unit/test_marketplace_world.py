"""Unit tests for products, raters, and the fair-rating generator."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.marketplace.fair_ratings import FairRatingConfig, FairRatingGenerator
from repro.marketplace.product import Product, default_tv_lineup
from repro.marketplace.rater import activity_weights, build_rater_pool


class TestProduct:
    def test_default_lineup_has_nine_tvs(self):
        lineup = default_tv_lineup()
        assert len(lineup) == 9
        assert len({p.product_id for p in lineup}) == 9

    def test_lineup_qualities_cluster_around_four(self):
        qualities = [p.true_quality for p in default_tv_lineup()]
        assert 3.5 < np.mean(qualities) < 4.5
        assert all(3.0 < q < 5.0 for q in qualities)

    def test_quality_outside_scale_rejected(self):
        with pytest.raises(ValidationError):
            Product("x", "X", true_quality=6.0)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValidationError):
            Product("x", "X", 4.0, opinion_std=0.0)

    def test_nonpositive_popularity_rejected(self):
        with pytest.raises(ValidationError):
            Product("x", "X", 4.0, popularity=-1.0)


class TestRaterPool:
    def test_pool_size_and_unique_ids(self):
        pool = build_rater_pool(100, seed=0)
        assert len(pool) == 100
        assert len({r.rater_id for r in pool}) == 100

    def test_deterministic_from_seed(self):
        a = build_rater_pool(10, seed=5)
        b = build_rater_pool(10, seed=5)
        assert [r.leniency for r in a] == [r.leniency for r in b]

    def test_activity_weights_normalized(self):
        pool = build_rater_pool(50, seed=1)
        weights = activity_weights(pool)
        assert weights.shape == (50,)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights > 0)

    def test_invalid_size(self):
        with pytest.raises(ValidationError):
            build_rater_pool(0)


class TestFairRatingConfig:
    def test_defaults_match_paper_setting(self):
        config = FairRatingConfig()
        assert config.duration_days == pytest.approx(82.0)
        assert config.history_days > 0
        assert config.end_day == pytest.approx(82.0)
        assert config.history_start_day == pytest.approx(-config.history_days)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_days": 0},
            {"base_arrivals_per_day": 0},
            {"weekly_amplitude": 1.0},
            {"trend_amplitude": -0.1},
            {"value_step": 0.0},
            {"rater_pool_size": 0},
            {"history_days": -1.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FairRatingConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["start_day", "duration_days", "history_days", "base_arrivals_per_day"],
    )
    def test_non_finite_sizes_rejected(self, field, value):
        # NaN passes every plain comparison: a NaN window sampled no
        # ratings, and an infinite one never stopped sampling.
        with pytest.raises(ValidationError, match=field):
            FairRatingConfig(**{field: value})


class TestFairRatingGenerator:
    @pytest.fixture(scope="class")
    def dataset(self):
        return FairRatingGenerator(seed=123).generate()

    def test_all_products_present(self, dataset):
        assert len(dataset) == 9

    def test_values_on_scale(self, dataset):
        for stream in dataset.streams():
            assert stream.values.min() >= 0.0
            assert stream.values.max() <= 5.0

    def test_values_quantized_to_half_stars(self, dataset):
        for stream in dataset.streams():
            remainder = np.mod(stream.values * 2.0, 1.0)
            np.testing.assert_allclose(remainder, 0.0, atol=1e-9)

    def test_mean_near_four(self, dataset):
        means = [s.mean_value() for s in dataset.streams()]
        assert 3.4 < np.mean(means) < 4.6

    def test_no_unfair_ratings(self, dataset):
        for stream in dataset.streams():
            assert not stream.unfair.any()

    def test_covers_history_and_challenge(self, dataset):
        config = FairRatingConfig()
        for stream in dataset.streams():
            first, last = stream.time_span()
            assert first < config.start_day  # history exists
            assert last < config.end_day

    def test_deterministic_from_seed(self):
        a = FairRatingGenerator(seed=9).generate()
        b = FairRatingGenerator(seed=9).generate()
        for pid in a:
            np.testing.assert_array_equal(a[pid].times, b[pid].times)
            np.testing.assert_array_equal(a[pid].values, b[pid].values)
            assert a[pid].rater_ids == b[pid].rater_ids

    def test_different_seeds_differ(self):
        a = FairRatingGenerator(seed=1).generate()
        b = FairRatingGenerator(seed=2).generate()
        assert any(len(a[p]) != len(b[p]) for p in a) or any(
            not np.array_equal(a[p].times, b[p].times) for p in a
        )

    def test_popularity_scales_volume(self, dataset):
        lineup = {p.product_id: p for p in default_tv_lineup()}
        most = max(lineup.values(), key=lambda p: p.popularity)
        least = min(lineup.values(), key=lambda p: p.popularity)
        assert len(dataset[most.product_id]) > len(dataset[least.product_id])

    def test_arrival_rate_roughly_matches_config(self, dataset):
        config = FairRatingConfig()
        total_days = config.history_days + config.duration_days
        counts = [len(s) / total_days for s in dataset.streams()]
        assert config.base_arrivals_per_day * 0.5 < np.mean(counts) < (
            config.base_arrivals_per_day * 1.5
        )

    def test_continuous_values_without_step(self):
        config = FairRatingConfig(value_step=None)
        ds = FairRatingGenerator(config=config, seed=3).generate()
        values = ds[ds.product_ids[0]].values
        remainder = np.mod(values * 2.0, 1.0)
        assert np.any(remainder > 1e-6)

    def test_requires_products(self):
        with pytest.raises(ValidationError):
            FairRatingGenerator(products=[], seed=0)

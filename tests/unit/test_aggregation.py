"""Unit tests for the aggregation schemes (SA, Eq. 7, BF, P)."""

import numpy as np
import pytest

from repro.aggregation.base import dataset_fingerprint, month_windows
from repro.aggregation.beta_filter import BetaFilterConfig, BetaFilterScheme
from repro.aggregation.pscheme import PScheme, PSchemeConfig
from repro.aggregation.simple import SimpleAveragingScheme
from repro.aggregation.weighted import trust_weighted_average
from repro.errors import EmptyDataError, ValidationError
from repro.experiments.context import ExperimentContext
from repro.types import RatingDataset, RatingStream


def constant_dataset(value=4.0, n_per_day=2, days=90):
    times = np.repeat(np.arange(days, dtype=float), n_per_day) + 0.5
    values = np.full(times.size, value)
    raters = [f"u{i}" for i in range(times.size)]
    return RatingDataset([RatingStream("p", times, values, raters)])


class TestMonthWindows:
    def test_windows_cover_span(self):
        windows = month_windows(0.0, 90.0)
        assert windows == [(0.0, 30.0), (30.0, 60.0), (60.0, 90.0)]

    def test_partial_final_window(self):
        windows = month_windows(0.0, 82.0)
        assert len(windows) == 3
        assert windows[-1] == (60.0, 90.0)


class TestTrustWeightedAverage:
    def test_equal_trust_is_plain_mean(self):
        assert trust_weighted_average([1.0, 3.0], [0.8, 0.8]) == pytest.approx(2.0)

    def test_neutral_raters_excluded(self):
        # Rater at 0.5 has zero weight.
        assert trust_weighted_average([0.0, 4.0], [0.5, 0.9]) == pytest.approx(4.0)

    def test_below_neutral_excluded(self):
        assert trust_weighted_average([0.0, 4.0], [0.1, 0.9]) == pytest.approx(4.0)

    def test_all_neutral_falls_back_to_mean(self):
        assert trust_weighted_average([1.0, 3.0], [0.5, 0.5]) == pytest.approx(2.0)

    def test_weighting_formula(self):
        # weights: max(0.9-0.5,0)=0.4 and max(0.6-0.5,0)=0.1
        expected = (5.0 * 0.4 + 0.0 * 0.1) / 0.5
        assert trust_weighted_average([5.0, 0.0], [0.9, 0.6]) == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            trust_weighted_average([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            trust_weighted_average([1.0], [0.5, 0.5])

    def test_invalid_trust_rejected(self):
        with pytest.raises(ValidationError):
            trust_weighted_average([1.0], [1.5])


class TestSimpleAveraging:
    def test_monthly_means(self):
        ds = constant_dataset(4.0)
        scores = SimpleAveragingScheme().monthly_scores(ds, 30.0, 0.0, 90.0)
        np.testing.assert_allclose(scores["p"], 4.0)

    def test_empty_month_is_nan(self):
        times = np.linspace(0.0, 25.0, 20)
        ds = RatingDataset(
            [RatingStream("p", times, np.full(20, 3.0), [f"u{i}" for i in range(20)])]
        )
        scores = SimpleAveragingScheme().monthly_scores(ds, 30.0, 0.0, 90.0)
        assert scores["p"][0] == pytest.approx(3.0)
        assert np.isnan(scores["p"][1]) and np.isnan(scores["p"][2])

    def test_final_scores_helper(self):
        ds = constant_dataset(4.0)
        finals = SimpleAveragingScheme().final_scores(ds, 30.0, 0.0, 90.0)
        assert finals["p"] == pytest.approx(4.0)


class TestBetaFilterScheme:
    def test_extreme_minority_filtered(self):
        # 40 honest ratings at 4.0 plus 4 zeros: zeros are incompatible.
        values = np.concatenate([np.full(40, 4.0), np.zeros(4)])
        keep = BetaFilterScheme().filter_window(values)
        assert keep[:40].all()
        assert not keep[40:].any()

    def test_moderate_values_survive(self):
        # Value 2.0 on a 4.0 majority is within a single rating's beta CI.
        values = np.concatenate([np.full(40, 4.0), np.full(5, 2.0)])
        keep = BetaFilterScheme().filter_window(values)
        assert keep.all()

    def test_large_colluding_block_shields_itself(self):
        # Half the window at 0 drags the mean majority down far enough
        # that the filter passes them: the paper's majority-rule failure.
        values = np.concatenate([np.full(30, 4.0), np.zeros(30)])
        keep = BetaFilterScheme().filter_window(values)
        assert keep[30:].all()

    def test_single_rating_never_filtered(self):
        assert BetaFilterScheme().filter_window(np.array([0.0])).all()

    def test_monthly_scores_filter_attack(self):
        ds = constant_dataset(4.0)
        n = 10
        attack = RatingStream(
            "p", np.linspace(35.0, 55.0, n), np.zeros(n),
            [f"atk{i}" for i in range(n)], unfair=np.ones(n, bool),
        )
        attacked = ds.merge({"p": attack})
        bf = BetaFilterScheme()
        scores = bf.monthly_scores(attacked, 30.0, 0.0, 90.0)
        sa = SimpleAveragingScheme().monthly_scores(attacked, 30.0, 0.0, 90.0)
        # BF's month-2 score is closer to the fair 4.0 than SA's.
        assert abs(scores["p"][1] - 4.0) < abs(sa["p"][1] - 4.0)

    def test_repeatedly_filtered_rater_excluded(self):
        config = BetaFilterConfig(exclude_trust_threshold=0.45)
        bf = BetaFilterScheme(config)
        # "eve" gets filtered in months 1 and 2 (extreme zero each time);
        # by month 3 her trust (1/4 after two filtered-only months) is
        # below the exclusion threshold.
        streams = []
        times, values, raters = [], [], []
        for month in range(3):
            base = 30.0 * month
            for i in range(30):
                times.append(base + 1.0 + i * 0.5)
                values.append(4.0)
                raters.append(f"u{month}_{i}")
            times.append(base + 20.0)
            values.append(0.0)
            raters.append("eve")
        streams.append(RatingStream("p", times, values, raters))
        ds = RatingDataset(streams)
        scores = bf.monthly_scores(ds, 30.0, 0.0, 90.0)
        assert np.all(np.isfinite(scores["p"]))

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            BetaFilterConfig(quantile=0.0)
        with pytest.raises(ValidationError):
            BetaFilterConfig(max_iterations=0)
        with pytest.raises(ValidationError):
            BetaFilterConfig(exclude_trust_threshold=1.5)


class TestPScheme:
    def test_fair_data_scores_match_simple_mean(self):
        # With no attack and no detections, Eq. 7 reduces to a weighted
        # mean over uniformly-trusted raters ~= plain mean.
        ds = constant_dataset(4.0)
        p_scores = PScheme().monthly_scores(ds, 30.0, 0.0, 90.0)
        np.testing.assert_allclose(p_scores["p"], 4.0)

    def test_cache_returns_equal_results(self):
        ds = constant_dataset(4.0)
        scheme = PScheme()
        first = scheme.monthly_scores(ds, 30.0, 0.0, 90.0)
        second = scheme.monthly_scores(ds, 30.0, 0.0, 90.0)
        np.testing.assert_array_equal(first["p"], second["p"])

    def test_cache_disabled(self):
        scheme = PScheme(PSchemeConfig(cache_size=0))
        ds = constant_dataset(4.0)
        scores = scheme.monthly_scores(ds, 30.0, 0.0, 90.0)
        assert np.isfinite(scores["p"]).all()

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            PSchemeConfig(initial_trust=1.0)
        with pytest.raises(ValidationError):
            PSchemeConfig(filter_trust_threshold=-0.1)
        with pytest.raises(ValidationError):
            PSchemeConfig(cache_size=-1)

    def test_two_pass_changes_mp(self):
        # Condition 2 of the MC segment rule (Section IV-B.3: a moderate
        # mean shift by less-trusted raters) needs trust, so only the
        # two_pass feedback pass can fire it.  On this submission it cuts
        # the MP from about 0.537 to about 0.111.
        context = ExperimentContext(seed=7, population_size=251)
        (submission,) = [
            s for s in context.population if s.submission_id == "sub_040"
        ]
        default = context.challenge.evaluate(
            submission, PScheme(), validate=False
        ).total
        two_pass = context.challenge.evaluate(
            submission, PScheme(PSchemeConfig(two_pass=True)), validate=False
        ).total
        assert abs(default - two_pass) > 0.1

    def test_name(self):
        assert PScheme().name == "P"
        assert SimpleAveragingScheme().name == "SA"
        assert BetaFilterScheme().name == "BF"


class TestDatasetFingerprint:
    def test_identical_data_same_fingerprint(self):
        assert dataset_fingerprint(constant_dataset()) == dataset_fingerprint(
            constant_dataset()
        )

    def test_value_change_changes_fingerprint(self):
        assert dataset_fingerprint(constant_dataset(4.0)) != dataset_fingerprint(
            constant_dataset(3.9)
        )

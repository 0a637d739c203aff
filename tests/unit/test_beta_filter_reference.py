"""BF and SA against plain references, and BF's beta CDF against scipy.

The references are the per-window implementations the batched schemes
replaced, kept verbatim: BF cut each window with ``RatingStream.between``,
bounded it with scipy's ``beta.ppf`` and accumulated one ``BetaEvidence``
per rater; SA averaged each ``between`` window.  The batched schemes must
return byte-identical series.  scipy is a test-only dependency, so the
oracle tests skip without it; the closed-form CDF checks always run, and
so does the check that the batched filter's one CDF call per distinct
(window, value) pair decides exactly as one call per rating did.
"""

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.reference import BetaEvidence

from repro.aggregation.base import month_windows
from repro.aggregation.beta_filter import (
    BetaFilterConfig,
    BetaFilterScheme,
    evidence_cdf,
)
from repro.aggregation.simple import SimpleAveragingScheme
from repro.experiments.context import ExperimentContext
from repro.types import RatingDataset, RatingStream

CONFIGS = (
    BetaFilterConfig(),
    BetaFilterConfig(max_iterations=3),
    BetaFilterConfig(quantile=0.3, exclude_trust_threshold=0.45),
)


@pytest.fixture(scope="module")
def scipy_special():
    return pytest.importorskip("scipy.special")


@pytest.fixture(scope="module")
def beta_dist():
    return pytest.importorskip("scipy.stats").beta


# --------------------------------------------------------------------- #
# The references
# --------------------------------------------------------------------- #


def reference_filter_window(config, beta_dist, values):
    scale = config.scale
    x = (np.asarray(values, dtype=float) - scale.minimum) / scale.width
    n = x.size
    keep = np.ones(n, dtype=bool)
    if n <= 1:
        return keep
    q = config.quantile
    alpha = 1.0 + x
    beta_param = 2.0 - x
    lower = beta_dist.ppf(q, alpha, beta_param)
    upper = beta_dist.ppf(1.0 - q, alpha, beta_param)
    for _ in range(config.max_iterations):
        included = x[keep]
        if included.size == 0:
            break
        majority = float(included.mean())
        incompatible = keep & ((majority < lower) | (majority > upper))
        if not incompatible.any():
            break
        # Never remove the last rating: a majority of zero is undefined.
        if int(keep.sum()) - int(incompatible.sum()) < 1:
            break
        keep &= ~incompatible
    return keep


def reference_bf_scores(
    config, beta_dist, dataset, period_days=30.0, start_day=0.0, end_day=90.0
):
    windows = month_windows(start_day, end_day, period_days)
    evidence: Dict[str, BetaEvidence] = {}
    per_window_masks: Dict[str, List[np.ndarray]] = {}
    window_streams: Dict[str, List[RatingStream]] = {}
    for product_id in dataset:
        stream = dataset[product_id]
        window_streams[product_id] = [stream.between(lo, hi) for lo, hi in windows]
        per_window_masks[product_id] = []
    scores: Dict[str, np.ndarray] = {
        product_id: np.full(len(windows), np.nan) for product_id in dataset
    }
    for w_index in range(len(windows)):
        for product_id in dataset:
            window = window_streams[product_id][w_index]
            if len(window) == 0:
                per_window_masks[product_id].append(np.zeros(0, dtype=bool))
                continue
            keep = reference_filter_window(config, beta_dist, window.values)
            per_window_masks[product_id].append(keep)
            for rater_id, kept in zip(window.rater_ids, keep):
                acc = evidence.setdefault(rater_id, BetaEvidence())
                acc.record(good=1.0 if kept else 0.0, bad=0.0 if kept else 1.0)
        threshold = config.exclude_trust_threshold
        for product_id in dataset:
            window = window_streams[product_id][w_index]
            keep = per_window_masks[product_id][w_index]
            if len(window) == 0 or not keep.any():
                continue
            trusted = np.asarray(
                [
                    evidence.get(rater_id, BetaEvidence()).trust >= threshold
                    for rater_id in window.rater_ids
                ]
            )
            usable = keep & trusted
            if not usable.any():
                continue
            scores[product_id][w_index] = float(window.values[usable].mean())
    return scores


def reference_sa_scores(dataset, period_days=30.0, start_day=0.0, end_day=90.0):
    windows = month_windows(start_day, end_day, period_days)
    scores: Dict[str, np.ndarray] = {}
    for product_id in dataset:
        stream = dataset[product_id]
        series = np.full(len(windows), np.nan)
        for i, (lo, hi) in enumerate(windows):
            window = stream.between(lo, hi)
            if len(window):
                series[i] = window.values.mean()
        scores[product_id] = series
    return scores


# --------------------------------------------------------------------- #
# Datasets
# --------------------------------------------------------------------- #


def challenge_datasets(seed, size):
    """The fair world plus ``size`` attacked datasets of the seed's population."""
    context = ExperimentContext(seed=seed, population_size=size, workers=0)
    challenge = context.challenge
    window = (challenge.config.period_days, challenge.start_day, challenge.end_day)
    datasets = [challenge.fair_dataset]
    datasets += [challenge.attacked_dataset(s) for s in context.population]
    return [(dataset, window) for dataset in datasets]


def sparse_dataset():
    """A product with an empty middle month, single-rating windows, a
    window of two, an empty product, and one extreme rater in the three
    large windows."""
    rng = np.random.default_rng(5)
    streams = []
    for product_id, counts in (("a", (40, 0, 25)), ("b", (1, 30, 2)), ("c", (0, 0, 0))):
        times, values, raters = [], [], []
        for month, count in enumerate(counts):
            times += list(30.0 * month + np.sort(rng.uniform(0.0, 30.0, count)))
            values += list(np.round(rng.normal(4.0, 0.8, count).clip(0, 5) * 2) / 2)
            raters += [f"{product_id}{month}_{i}" for i in range(count)]
            if count > 2:
                times.append(30.0 * month + 15.0)
                values.append(0.0)
                raters.append("eve")
        streams.append(RatingStream(product_id, times, values, raters))
    return [(RatingDataset(streams), (30.0, 0.0, 90.0))]


@pytest.fixture(scope="module")
def datasets():
    return (
        challenge_datasets(2008, 3)
        + challenge_datasets(7, 3)
        + sparse_dataset()
        + [(RatingDataset([]), (30.0, 0.0, 90.0))]
    )


def assert_same_series(got, expected):
    assert list(got) == list(expected)
    for product_id, series in expected.items():
        assert got[product_id].tobytes() == series.tobytes(), product_id


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #


class TestAgainstReference:
    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "iter3", "q0.3"])
    def test_bf_monthly_scores_match(self, config, beta_dist, datasets):
        scheme = BetaFilterScheme(config)
        for dataset, window in datasets:
            assert_same_series(
                scheme.monthly_scores(dataset, *window),
                reference_bf_scores(config, beta_dist, dataset, *window),
            )

    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "iter3", "q0.3"])
    def test_bf_filter_window_matches(self, config, beta_dist):
        rng = np.random.default_rng(11)
        scheme = BetaFilterScheme(config)
        filtered = 0
        for n in (1, 2, 3, 10, 60):
            for _ in range(20):
                honest = np.round(rng.normal(4.0, 0.7, n).clip(0.0, 5.0) * 2) / 2
                values = np.where(rng.random(n) < 0.2, 0.0, honest)
                expected = reference_filter_window(config, beta_dist, values)
                np.testing.assert_array_equal(scheme.filter_window(values), expected)
                filtered += int((~expected).sum())
        assert filtered > 0

    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "iter3", "q0.3"])
    def test_bf_filter_window_matches_off_the_scale(self, config, beta_dist):
        # Ratings off the scale reach BF through unvalidated CLI input.
        rng = np.random.default_rng(12)
        scheme = BetaFilterScheme(config)
        for n in (2, 3, 10, 40):
            for _ in range(50):
                on_scale = np.round(rng.uniform(0.0, 5.0, n) * 2) / 2
                values = np.where(rng.random(n) < 0.5, rng.uniform(-8, 13, n), on_scale)
                with np.errstate(all="raise"):
                    keep = scheme.filter_window(values)
                expected = reference_filter_window(config, beta_dist, values)
                np.testing.assert_array_equal(keep, expected)

    def test_sa_monthly_scores_match(self, datasets):
        scheme = SimpleAveragingScheme()
        for dataset, window in datasets:
            assert_same_series(
                scheme.monthly_scores(dataset, *window),
                reference_sa_scores(dataset, *window),
            )


class TestEvidenceCdf:
    def test_matches_scipy_on_random_points(self, scipy_special):
        rng = np.random.default_rng(3)
        m, x = rng.random(200_000), rng.random(200_000)
        expected = scipy_special.betainc(1.0 + x, 2.0 - x, m)
        np.testing.assert_allclose(evidence_cdf(m, x), expected, rtol=0, atol=1e-13)

    def test_matches_scipy_on_rating_grid(self, scipy_special):
        # Both ends of both axes are on the grid: x, m in {0, 1}.
        m, x = np.meshgrid(np.linspace(0.0, 1.0, 1001), np.arange(11) / 10.0)
        expected = scipy_special.betainc(1.0 + x, 2.0 - x, m)
        np.testing.assert_allclose(evidence_cdf(m, x), expected, rtol=0, atol=1e-13)

    def test_closed_forms(self):
        m = np.linspace(0.0, 1.0, 2001)
        np.testing.assert_allclose(
            evidence_cdf(m, 0.0), 1.0 - (1.0 - m) ** 2, rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(evidence_cdf(m, 1.0), m**2, rtol=0, atol=1e-14)

    def test_outside_the_support(self):
        x = np.linspace(-0.99, 1.99, 31)
        np.testing.assert_array_equal(evidence_cdf(-0.5, x), 0.0)
        np.testing.assert_array_equal(evidence_cdf(1.5, x), 1.0)
        assert np.isnan(evidence_cdf(0.5, [-1.0, -3.0, 2.0, 7.0])).all()

    def test_monotone_in_majority(self):
        m = np.linspace(0.0, 1.0, 2001)
        for x in np.linspace(0.0, 1.0, 41):
            cdf = evidence_cdf(m, x)
            assert np.all(np.diff(cdf) > 0), x
            assert cdf[0] == 0.0 and cdf[-1] == 1.0


# --------------------------------------------------------------------- #
# One CDF call per distinct (window, value) pair
# --------------------------------------------------------------------- #


def per_rating_filter(config, x, bounds):
    """``BetaFilterScheme._filter`` before the pairs: one ``evidence_cdf``
    evaluation per rating of every active window."""
    sizes = np.diff(bounds)
    window_of = np.repeat(np.arange(sizes.size), sizes)
    keep = np.ones(x.size, dtype=bool)
    active = sizes > 1
    q = config.quantile
    for _ in range(config.max_iterations):
        if not active.any():
            break
        majority = np.zeros(sizes.size)
        for k in np.flatnonzero(active):
            window = slice(bounds[k], bounds[k + 1])
            majority[k] = x[window][keep[window]].mean()
        rows = np.flatnonzero(active[window_of])
        cdf = evidence_cdf(majority[window_of[rows]], x[rows])
        incompatible = np.zeros(x.size, dtype=bool)
        incompatible[rows] = keep[rows] & ((cdf < q) | (cdf > 1.0 - q))
        n_out = np.bincount(window_of, incompatible, sizes.size)
        n_kept = np.bincount(window_of, keep, sizes.size)
        active &= (n_out > 0) & (n_kept > n_out)
        keep &= ~(incompatible & active[window_of])
    return keep


#: Ratings that repeat (half stars), continuous ones, signed zeros and
#: values off the 0..5 scale (where the CDF is NaN or saturates).
filter_values = st.one_of(
    st.integers(0, 10).map(lambda k: k / 2),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.sampled_from([-0.0, -8.0, 13.0, 5.5]),
    st.floats(min_value=-12.0, max_value=16.0, allow_nan=False),
)


class TestFilterOneCdfPerPair:
    @given(
        st.lists(st.lists(filter_values, max_size=25), max_size=8),
        st.sampled_from([0.05, 0.15, 0.3, 0.45]),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_one_cdf_per_rating(self, windows, quantile, iterations):
        config = BetaFilterConfig(quantile=quantile, max_iterations=iterations)
        scheme = BetaFilterScheme(config)
        x = scheme._normalize(np.concatenate([np.empty(0)] + windows))
        bounds = np.cumsum([0] + [len(w) for w in windows])
        np.testing.assert_array_equal(
            scheme._filter(x, bounds), per_rating_filter(config, x, bounds)
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "iter3", "q0.3"])
    def test_dataset_windows_filter_and_match(self, config):
        # Month windows of a challenge population, laid out as
        # ``_scores`` lays them out: many repeats per window, and some
        # ratings filtered, so the pairs' results really are spread back.
        scheme = BetaFilterScheme(config)
        filtered = 0
        for dataset, _window in challenge_datasets(2008, 3):
            streams = [dataset[pid] for pid in dataset]
            windows = [
                s.values[(s.times >= lo) & (s.times < lo + 30.0)]
                for lo in (0.0, 30.0, 60.0)
                for s in streams
            ]
            x = scheme._normalize(np.concatenate(windows))
            bounds = np.cumsum([0] + [w.size for w in windows])
            keep = scheme._filter(x, bounds)
            np.testing.assert_array_equal(keep, per_rating_filter(config, x, bounds))
            filtered += int((~keep).sum())
        assert filtered > 0

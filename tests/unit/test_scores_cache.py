"""The scores cache that P, SA and BF share (``AggregationScheme.cached_scores``).

Each scheme keys its ``monthly_scores`` results by dataset content and
window, so an equal dataset hits even as a new object: the MP metric
scores the same fair world on every evaluation.  Work is counted through
the cache counters, never timed.
"""

import numpy as np
import pytest

from repro.aggregation.base import SCORES_CACHE_SIZE
from repro.aggregation.beta_filter import BetaFilterConfig, BetaFilterScheme
from repro.aggregation.pscheme import PScheme
from repro.aggregation.simple import SimpleAveragingScheme
from repro.obs.registry import MetricsRegistry, use_registry
from repro.types import RatingDataset, RatingStream

SCHEMES = {
    "P": (PScheme, "pscheme"),
    "SA": (SimpleAveragingScheme, "sa"),
    "BF": (BetaFilterScheme, "bf"),
}


def dataset(shift=0.0):
    """Three products over 90 days; ``a`` takes a block of zeros in month 2."""
    rng = np.random.default_rng(4)
    streams = []
    for product_id in ("a", "b", "c"):
        times = list(np.sort(rng.uniform(0.0, 90.0, 150)))
        values = list(np.round(rng.normal(4.0, 0.7, 150).clip(0, 5) * 2) / 2)
        raters = [f"u{i % 60}" for i in range(150)]
        if product_id == "a":
            times += list(np.linspace(35.0, 45.0, 40))
            values += [0.0] * 40
            raters += [f"x{i}" for i in range(40)]
        values = [min(v + shift, 5.0) for v in values]
        streams.append(RatingStream(product_id, times, values, raters))
    return RatingDataset(streams)


def counts(registry, prefix):
    return tuple(
        registry.counter_value(f"{prefix}.scores_cache.{event}")
        for event in ("hits", "misses", "evictions")
    )


def assert_same_scores(got, expected):
    assert list(got) == list(expected)
    for product_id, series in expected.items():
        assert got[product_id].tobytes() == series.tobytes(), product_id


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestSharedScoresCache:
    def test_equal_dataset_hits(self, name):
        factory, prefix = SCHEMES[name]
        scheme = factory()
        registry = MetricsRegistry()
        with use_registry(registry):
            first = scheme.monthly_scores(dataset())
            second = scheme.monthly_scores(dataset())
        assert counts(registry, prefix) == (1, 1, 0)
        assert_same_scores(second, first)

    def test_returned_arrays_are_copies(self, name):
        scheme = SCHEMES[name][0]()
        first = scheme.monthly_scores(dataset())
        expected = {pid: series.copy() for pid, series in first.items()}
        first["a"][:] = -1.0
        second = scheme.monthly_scores(dataset())
        assert_same_scores(second, expected)
        second["a"][:] = -2.0
        assert_same_scores(scheme.monthly_scores(dataset()), expected)

    def test_other_content_and_window_miss(self, name):
        factory, prefix = SCHEMES[name]
        scheme = factory()
        registry = MetricsRegistry()
        with use_registry(registry):
            scheme.monthly_scores(dataset())
            scheme.monthly_scores(dataset(shift=0.5))
            scheme.monthly_scores(dataset(), 30.0, 0.0, 60.0)
        assert counts(registry, prefix) == (0, 3, 0)

    def test_first_in_first_out(self, name):
        if name == "P":
            pytest.skip("the P-scheme's size is PSchemeConfig.cache_size")
        factory, prefix = SCHEMES[name]
        scheme = factory()
        registry = MetricsRegistry()
        with use_registry(registry):
            for i in range(SCORES_CACHE_SIZE + 1):
                scheme.monthly_scores(dataset(), 30.0, float(i), 90.0 + i)
            scheme.monthly_scores(dataset(), 30.0, 0.0, 90.0)
        assert counts(registry, prefix) == (0, SCORES_CACHE_SIZE + 2, 2)


def test_instances_never_share_entries():
    strict = BetaFilterScheme(BetaFilterConfig(quantile=0.45))
    default = BetaFilterScheme()
    registry = MetricsRegistry()
    with use_registry(registry):
        filtered = strict.monthly_scores(dataset())
        scores = default.monthly_scores(dataset())
    assert counts(registry, "bf") == (0, 2, 0)
    assert_same_scores(scores, BetaFilterScheme().monthly_scores(dataset()))
    assert filtered["a"].tobytes() != scores["a"].tobytes()

"""End-to-end integration tests: challenge + attacks + all three schemes."""

import pytest

from repro.aggregation import BetaFilterScheme, PScheme, SimpleAveragingScheme
from repro.attacks import AttackGenerator, AttackSpec, ProductTarget, UniformWindow
from repro.attacks.strategies import bad_mouthing, ballot_stuffing
from repro.marketplace import RatingChallenge
from repro.obs import MetricsRegistry, set_registry


@pytest.fixture(scope="module")
def challenge():
    return RatingChallenge(seed=2024)


@pytest.fixture(scope="module")
def generator(challenge):
    return AttackGenerator(
        challenge.fair_dataset, challenge.config.biased_rater_ids(), seed=11
    )


def four_targets(challenge):
    pids = challenge.fair_dataset.product_ids
    return [
        ProductTarget(pids[0], -1),
        ProductTarget(pids[1], -1),
        ProductTarget(pids[2], +1),
        ProductTarget(pids[3], +1),
    ]


class TestCrossSchemePipeline:
    def test_strong_attack_mp_ordering(self, challenge, generator):
        """P-scheme suppresses a strong low-variance attack that SA lets
        straight through and BF only partially removes."""
        spec = AttackSpec(3.0, 0.2, 50, UniformWindow(25.0, 30.0))
        submission = generator.generate(four_targets(challenge), spec)
        mp_sa = challenge.evaluate(submission, SimpleAveragingScheme()).total
        mp_p = challenge.evaluate(submission, PScheme()).total
        assert mp_sa > 0.5
        assert mp_p < 0.5 * mp_sa

    def test_bad_mouthing_filtered_by_bf(self, challenge):
        submission = bad_mouthing(
            challenge.fair_dataset,
            four_targets(challenge)[:2],
            challenge.config.biased_rater_ids(),
            n_ratings=50,
            time_model=UniformWindow(25.0, 30.0),
            seed=1,
        )
        mp_sa = challenge.evaluate(submission, SimpleAveragingScheme()).total
        mp_bf = challenge.evaluate(submission, BetaFilterScheme()).total
        assert mp_bf < 0.8 * mp_sa

    def test_high_variance_attack_evades_pscheme(self, challenge, generator):
        """The paper's R3 finding: medium bias + large variance beats the
        signal-based detection (relative to what low variance achieves)."""
        low_var = AttackSpec(2.0, 0.1, 50, UniformWindow(25.0, 30.0))
        high_var = AttackSpec(2.0, 1.2, 50, UniformWindow(25.0, 30.0))
        scheme = PScheme()
        mp_low = max(
            challenge.evaluate(
                generator.generate(four_targets(challenge), low_var), scheme
            ).total
            for _ in range(3)
        )
        mp_high = max(
            challenge.evaluate(
                generator.generate(four_targets(challenge), high_var), scheme
            ).total
            for _ in range(3)
        )
        assert mp_high > mp_low * 0.9

    def test_boost_weaker_than_downgrade(self, challenge, generator):
        """Fair means sit near 4 on a 0..5 scale: little headroom to boost
        (Section V-B)."""
        pids = challenge.fair_dataset.product_ids
        scheme = SimpleAveragingScheme()
        down = generator.generate(
            [ProductTarget(pids[0], -1)], AttackSpec(3.5, 0.2, 50, UniformWindow(25, 30))
        )
        up = generator.generate(
            [ProductTarget(pids[0], +1)], AttackSpec(3.5, 0.2, 50, UniformWindow(25, 30))
        )
        assert (
            challenge.evaluate(down, scheme).total
            > challenge.evaluate(up, scheme).total
        )

    def test_ballot_stuffing_limited_by_ceiling(self, challenge):
        submission = ballot_stuffing(
            challenge.fair_dataset,
            [ProductTarget(challenge.fair_dataset.product_ids[0], +1)],
            challenge.config.biased_rater_ids(),
            n_ratings=50,
            time_model=UniformWindow(25.0, 30.0),
            seed=2,
        )
        mp = challenge.evaluate(submission, SimpleAveragingScheme()).total
        assert 0.0 < mp < 1.5

    def test_pscheme_cache_speeds_repeat_evaluation(self, challenge, generator):
        """The repeat evaluation is served from the scores cache and runs
        no detector at all.  Work is counted, not timed, so the check
        holds at any machine speed."""
        spec = AttackSpec(2.5, 0.5, 40, UniformWindow(20.0, 40.0))
        submission = generator.generate(four_targets(challenge), spec)
        scheme = PScheme()

        def evaluate():
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                return challenge.evaluate(submission, scheme).total, registry
            finally:
                set_registry(previous)

        def batch_calls(registry):
            # The detector.batch span counts every analyze_batch call,
            # under whatever stage spans it nests in.
            return sum(
                histogram.count
                for name, histogram in registry.histograms.items()
                if name.startswith("span.")
                and name.endswith("detector.batch.seconds")
            )

        first, cold = evaluate()
        second, warm = evaluate()
        assert first == pytest.approx(second)
        assert cold.counter_value("pscheme.scores_cache.misses") == 2
        assert batch_calls(cold) == 2
        assert cold.counter_value("quality.scorecards") == 13
        assert warm.counter_value("pscheme.scores_cache.hits") == 2
        assert warm.counter_value("pscheme.scores_cache.misses") == 0
        assert batch_calls(warm) == 0
        assert warm.counter_value("quality.scorecards") == 0

    def test_unattacked_products_mostly_unmoved(self, challenge, generator):
        spec = AttackSpec(3.0, 0.2, 50, UniformWindow(25.0, 30.0))
        submission = generator.generate(four_targets(challenge), spec)
        result = challenge.evaluate(submission, SimpleAveragingScheme())
        attacked = set(submission.product_ids)
        for pid, mp in result.per_product.items():
            if pid not in attacked:
                assert mp == pytest.approx(0.0, abs=1e-9)

    def test_mp_deterministic_given_submission(self, challenge, generator):
        spec = AttackSpec(2.0, 0.4, 30, UniformWindow(15.0, 40.0))
        submission = generator.generate(four_targets(challenge), spec)
        a = challenge.evaluate(submission, SimpleAveragingScheme()).total
        b = challenge.evaluate(submission, SimpleAveragingScheme()).total
        assert a == b

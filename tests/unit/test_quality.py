"""Unit tests for ground-truth detection scorecards (repro.obs.quality)."""

import numpy as np
import pytest

from repro.detectors.base import (
    PROV_MC,
    PROV_PATH1,
    PROVENANCE_FLAGS,
    DetectionReport,
)
from repro.errors import ValidationError
from repro.obs import MetricsRegistry
from repro.obs.quality import (
    DETECTOR_ORDER,
    EPOCH_DAYS,
    ConfusionCounts,
    aggregate_confusions,
    emit_scorecards,
    roc_auc,
    score_detection,
)
from repro.types import RatingStream


def make_stream(n=10, n_unfair=0, product="p"):
    times = np.arange(n, dtype=float)
    values = np.full(n, 4.0)
    unfair = np.zeros(n, bool)
    if n_unfair:
        unfair[-n_unfair:] = True
        values[-n_unfair:] = 1.0
    raters = [f"atk{i}" if unfair[i] else f"u{i}" for i in range(n)]
    return RatingStream(product, times, values, raters, unfair=unfair)


def make_report(stream, suspicious, provenance=None):
    suspicious = np.asarray(suspicious, dtype=bool)
    if provenance is None:
        provenance = np.where(suspicious, PROV_PATH1, 0).astype(np.uint8)
    return DetectionReport(
        product_id=stream.product_id,
        suspicious=suspicious,
        provenance=np.asarray(provenance, dtype=np.uint8),
    )


class TestConfusionCounts:
    def test_totals_and_rates(self):
        counts = ConfusionCounts(tp=3, fp=1, fn=2, tn=4)
        assert counts.total == 10
        assert counts.precision == pytest.approx(3 / 4)
        assert counts.recall == pytest.approx(3 / 5)
        assert counts.false_alarm_rate == pytest.approx(1 / 5)

    def test_empty_denominators_are_nan(self):
        empty = ConfusionCounts()
        assert np.isnan(empty.precision)
        assert np.isnan(empty.recall)
        assert np.isnan(empty.false_alarm_rate)

    def test_add(self):
        total = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(10, 20, 30, 40)
        assert total.as_dict() == {"tp": 11, "fp": 22, "fn": 33, "tn": 44}

    def test_from_masks(self):
        counts = ConfusionCounts.from_masks(
            [True, True, False, False], [True, False, True, False]
        )
        assert counts.as_dict() == {"tp": 1, "fp": 1, "fn": 1, "tn": 1}

    def test_from_masks_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ConfusionCounts.from_masks([True], [True, False])


class TestScoreDetection:
    def test_joint_counts_partition_the_stream(self):
        stream = make_stream(n=10, n_unfair=4)
        suspicious = np.zeros(10, bool)
        suspicious[[0, 6, 7]] = True  # one fair + two unfair flagged
        card = score_detection(stream, make_report(stream, suspicious))
        assert card.joint.as_dict() == {"tp": 2, "fp": 1, "fn": 2, "tn": 5}
        assert card.joint.total == len(stream)
        assert card.detected and card.attacked

    def test_per_detector_attribution_follows_provenance_bits(self):
        stream = make_stream(n=6, n_unfair=2)
        suspicious = np.array([False, False, False, False, True, True])
        provenance = np.zeros(6, np.uint8)
        provenance[4] = PROV_PATH1 | PROV_MC
        provenance[5] = PROV_PATH1
        card = score_detection(
            stream, make_report(stream, suspicious, provenance)
        )
        assert card.per_detector["path1"].tp == 2
        assert card.per_detector["MC"].tp == 1
        assert card.per_detector["MC"].fn == 1
        assert card.per_detector["path2"].tp == 0
        # Every provenance flag gets a row.
        assert set(card.per_detector) == set(PROVENANCE_FLAGS)

    def test_latency_and_epochs(self):
        stream = make_stream(n=10, n_unfair=4)  # first unfair at t=6
        suspicious = np.zeros(10, bool)
        suspicious[8] = True  # first flag at t=8
        card = score_detection(stream, make_report(stream, suspicious))
        assert card.detection_latency_days == pytest.approx(2.0)
        assert card.detection_latency_epochs == pytest.approx(2.0 / EPOCH_DAYS)

    def test_flags_before_the_attack_do_not_count_as_latency(self):
        stream = make_stream(n=10, n_unfair=2)  # first unfair at t=8
        suspicious = np.zeros(10, bool)
        suspicious[[0, 9]] = True
        card = score_detection(stream, make_report(stream, suspicious))
        assert card.detection_latency_days == pytest.approx(1.0)

    def test_undetected_attack_has_no_latency(self):
        stream = make_stream(n=10, n_unfair=3)
        card = score_detection(
            stream, make_report(stream, np.zeros(10, bool))
        )
        assert card.detection_latency_days is None
        assert card.bias_at_detection is None
        assert not card.detected and card.attacked

    def test_bias_at_detection_measures_published_damage(self):
        # Fair mean 4.0, unfair values 1.0: with two unfair ratings seen
        # by the first flag, the published mean already moved down.
        stream = make_stream(n=10, n_unfair=4)
        suspicious = np.zeros(10, bool)
        suspicious[7] = True  # two unfair ratings in by t=7
        card = score_detection(stream, make_report(stream, suspicious))
        upto_mean = (6 * 4.0 + 2 * 1.0) / 8
        assert card.bias_at_detection == pytest.approx(upto_mean - 4.0)

    def test_attacker_id_join_supplements_lost_flags(self):
        stream = make_stream(n=8)  # no unfair flags at all
        suspicious = np.zeros(8, bool)
        suspicious[3] = True
        card = score_detection(
            stream, make_report(stream, suspicious), attacker_ids=["u3", "u4"]
        )
        assert card.joint.as_dict() == {"tp": 1, "fp": 0, "fn": 1, "tn": 6}

    def test_attacker_ids_never_leak_into_fair_counts(self):
        stream = make_stream(n=8)
        card = score_detection(
            stream,
            make_report(stream, np.zeros(8, bool)),
            attacker_ids=["nobody_here"],
        )
        assert card.joint.as_dict() == {"tp": 0, "fp": 0, "fn": 0, "tn": 8}

    def test_shape_mismatch_rejected(self):
        stream = make_stream(n=8)
        short = make_report(make_stream(n=5), np.zeros(5, bool))
        with pytest.raises(ValidationError):
            score_detection(stream, short)


class TestChallengeRoundTrip:
    """The provenance -> scorecard join on a real seeded challenge world."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.attacks.population import (
            PopulationConfig,
            generate_population,
        )
        from repro.detectors import JointDetector
        from repro.marketplace.challenge import RatingChallenge

        challenge = RatingChallenge(seed=11)
        population = generate_population(
            challenge, PopulationConfig(size=3), seed=12
        )
        detector = JointDetector()
        cases = []
        for submission in population:
            attacked = challenge.attacked_dataset(submission)
            for pid in submission.product_ids:
                stream = attacked[pid]
                cases.append((stream, detector.analyze(stream)))
        return cases

    def test_joint_counts_match_masks_exactly(self, world):
        for stream, report in world:
            card = score_detection(stream, report)
            truth = stream.unfair
            suspicious = report.suspicious
            assert card.joint.tp == int((suspicious & truth).sum())
            assert card.joint.fp == int((suspicious & ~truth).sum())
            assert card.joint.fn == int((~suspicious & truth).sum())
            assert card.joint.tn == int((~suspicious & ~truth).sum())

    def test_every_flag_is_attributable_to_a_detector(self, world):
        for stream, report in world:
            card = score_detection(stream, report)
            flagged = card.joint.tp + card.joint.fp
            attributed = np.zeros(len(stream), bool)
            for name, bit in PROVENANCE_FLAGS.items():
                attributed |= (report.provenance & bit) != 0
            assert int(attributed.sum()) == flagged
            # No single detector can claim more than the joint verdict.
            for name in PROVENANCE_FLAGS:
                assert card.per_detector[name].tp <= card.joint.tp
                assert card.per_detector[name].fp <= card.joint.fp

    def test_latency_never_negative(self, world):
        for stream, report in world:
            card = score_detection(stream, report)
            if card.detection_latency_days is not None:
                assert card.detection_latency_days >= 0.0


class TestAggregateAndEmit:
    def test_aggregate_sums_rows_in_order(self):
        stream = make_stream(n=6, n_unfair=2)
        suspicious = np.array([False] * 4 + [True, True])
        card = score_detection(stream, make_report(stream, suspicious))
        totals = aggregate_confusions([card, card])
        assert list(totals) == list(DETECTOR_ORDER)
        assert totals["joint"].tp == 2 * card.joint.tp
        assert totals["path1"].tp == 2 * card.per_detector["path1"].tp

    def test_emit_scorecard_counters_and_histograms(self):
        registry = MetricsRegistry()
        stream = make_stream(n=10, n_unfair=4)
        suspicious = np.zeros(10, bool)
        suspicious[7] = True
        card = score_detection(stream, make_report(stream, suspicious))
        emit_scorecards([card], registry)
        assert registry.counter_value("quality.scorecards") == 1
        assert registry.counter_value("quality.detected_streams") == 1
        assert registry.counter_value("quality.joint.tp") == card.joint.tp
        assert registry.counter_value("quality.joint.tn") == card.joint.tn
        assert registry.counter_value("quality.path1.tp") == (
            card.per_detector["path1"].tp
        )
        hist = registry.histograms["quality.detection_latency_days"]
        assert hist.count == 1
        assert registry.histograms["quality.bias_at_detection"].count == 1

    def test_emit_on_disabled_registry_is_a_noop(self):
        from repro.obs import NULL_REGISTRY

        stream = make_stream(n=6, n_unfair=2)
        card = score_detection(
            stream, make_report(stream, np.zeros(6, bool))
        )
        emit_scorecards([card], NULL_REGISTRY)  # must not raise

    def test_a_batch_folds_like_its_cards_one_by_one(self):
        cards = []
        for n_unfair, flagged in ((4, [7]), (0, []), (3, [8, 9]), (2, [])):
            stream = make_stream(n=10, n_unfair=n_unfair)
            suspicious = np.zeros(10, bool)
            suspicious[flagged] = True
            cards.append(score_detection(stream, make_report(stream, suspicious)))
        batched, one_by_one = MetricsRegistry(), MetricsRegistry()
        emit_scorecards(cards, batched)
        for card in cards:
            emit_scorecards([card], one_by_one)
        assert batched.snapshot() == one_by_one.snapshot()
        assert batched.counter_value("quality.scorecards") == 4
        assert batched.counter_value("quality.detected_streams") == 2
        assert batched.histograms["quality.detection_latency_days"].count == 2

    def test_an_empty_batch_records_nothing(self):
        registry = MetricsRegistry()
        emit_scorecards([], registry)
        assert registry.snapshot() == MetricsRegistry().snapshot()


class TestRocAuc:
    def test_perfect_detector(self):
        assert roc_auc([(0.0, 1.0)]) == pytest.approx(1.0)

    def test_chance_diagonal(self):
        assert roc_auc([(0.5, 0.5)]) == pytest.approx(0.5)

    def test_anchors_added(self):
        # A single mid-curve point integrates against the (0,0)/(1,1)
        # corners, not just itself.
        assert roc_auc([(0.2, 0.8)]) == pytest.approx(
            0.5 * 0.2 * 0.8 + 0.8 * 0.8 + 0.5 * 0.8 * 0.2
        )

    def test_nan_points_dropped(self):
        assert roc_auc(
            [(0.0, 1.0), (float("nan"), 0.5)]
        ) == pytest.approx(1.0)

    def test_all_nan_is_nan(self):
        assert np.isnan(roc_auc([(float("nan"), float("nan"))]))
        assert np.isnan(roc_auc([]))

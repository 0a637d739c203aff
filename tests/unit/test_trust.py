"""Unit tests for beta trust and the Procedure 1 trust manager."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.trust.beta import BetaEvidence, beta_trust_value
from repro.trust.manager import TrustManager
from repro.types import RatingDataset, RatingStream


class TestBetaTrustValue:
    def test_no_evidence_is_half(self):
        assert beta_trust_value(0, 0) == 0.5

    def test_paper_formula(self):
        assert beta_trust_value(3, 1) == pytest.approx(4.0 / 6.0)

    def test_bounds(self):
        assert 0.0 < beta_trust_value(0, 1000) < beta_trust_value(1000, 0) < 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            beta_trust_value(-1, 0)


class TestBetaEvidence:
    def test_record_accumulates(self):
        evidence = BetaEvidence()
        evidence.record(good=3, bad=1)
        assert evidence.successes == 3
        assert evidence.failures == 1
        assert evidence.trust == pytest.approx(4.0 / 6.0)
        assert evidence.total == 4

    def test_negative_increment_rejected(self):
        with pytest.raises(ValidationError):
            BetaEvidence().record(good=-1, bad=0)

    def test_negative_init_rejected(self):
        with pytest.raises(ValidationError):
            BetaEvidence(successes=-1)

    def test_copy_is_independent(self):
        a = BetaEvidence(1, 1)
        b = a.copy()
        b.record(5, 0)
        assert a.successes == 1


def two_product_dataset():
    s1 = RatingStream(
        "p1", [1.0, 5.0, 35.0], [4.0, 4.0, 4.0], ["alice", "bob", "alice"]
    )
    s2 = RatingStream("p2", [2.0, 40.0], [4.0, 1.0], ["bob", "mallory"])
    return RatingDataset([s1, s2])


class TestTrustManager:
    def test_initial_trust(self):
        manager = TrustManager()
        assert manager.trust_of("unknown") == 0.5

    def test_custom_initial_trust(self):
        assert TrustManager(initial_trust=0.3).trust_of("x") == 0.3

    def test_invalid_initial_trust(self):
        with pytest.raises(ValidationError):
            TrustManager(initial_trust=0.0)

    def test_clean_epoch_raises_trust(self):
        manager = TrustManager()
        manager.record_epoch({"alice": (2, 0)})
        assert manager.trust_of("alice") == pytest.approx(3.0 / 4.0)

    def test_suspicious_epoch_lowers_trust(self):
        manager = TrustManager()
        manager.record_epoch({"eve": (2, 2)})
        # S = 0, F = 2: trust = (0 + 1) / (0 + 2 + 2) = 1/4.
        assert manager.trust_of("eve") == pytest.approx(0.25)

    def test_suspicious_exceeding_count_rejected(self):
        with pytest.raises(ValidationError):
            TrustManager().record_epoch({"x": (1, 2)})

    def test_run_over_dataset_cross_product(self):
        dataset = two_product_dataset()
        marks = {
            "p1": np.array([False, False, False]),
            "p2": np.array([False, True]),
        }
        manager = TrustManager()
        snapshots = manager.run(dataset, marks, epoch_times=[30.0, 60.0])
        # Epoch 1 (t < 30): alice 1 clean on p1, bob clean on p1+p2.
        assert snapshots[0].value("alice") == pytest.approx(2.0 / 3.0)
        assert snapshots[0].value("bob") == pytest.approx(3.0 / 4.0)
        assert snapshots[0].value("mallory") == 0.5  # not seen yet
        # Epoch 2: alice one more clean; mallory marked suspicious.
        assert snapshots[1].value("alice") == pytest.approx(3.0 / 4.0)
        assert snapshots[1].value("mallory") == pytest.approx(1.0 / 3.0)

    def test_run_requires_increasing_epochs(self):
        dataset = two_product_dataset()
        with pytest.raises(ValidationError):
            TrustManager().run(dataset, {}, epoch_times=[30.0, 30.0])

    @pytest.mark.parametrize(
        "epochs",
        [[30.0, float("nan")], [float("nan"), 30.0], [30.0, float("inf")]],
        ids=["nan-last", "nan-first", "inf"],
    )
    def test_run_rejects_non_finite_epochs(self, epochs):
        # NaN passes the increasing-order check; counted nothing before.
        with pytest.raises(ValidationError, match="finite"):
            TrustManager().run(two_product_dataset(), {}, epoch_times=epochs)

    def test_run_checks_mark_lengths(self):
        dataset = two_product_dataset()
        with pytest.raises(ValidationError):
            TrustManager().run(
                dataset, {"p1": np.array([True])}, epoch_times=[50.0]
            )

    def test_missing_marks_default_clean(self):
        dataset = two_product_dataset()
        snapshots = TrustManager().run(dataset, {}, epoch_times=[100.0])
        assert snapshots[0].value("mallory") == pytest.approx(2.0 / 3.0)

    def test_reset(self):
        manager = TrustManager()
        manager.record_epoch({"a": (5, 0)})
        manager.reset()
        assert manager.trust_of("a") == 0.5

    def test_snapshot_is_frozen_copy(self):
        manager = TrustManager()
        manager.record_epoch({"a": (1, 0)})
        snap = manager.snapshot(10.0)
        manager.record_epoch({"a": (1, 1)})
        assert snap.value("a") == pytest.approx(2.0 / 3.0)


class TestForgettingFactor:
    def test_default_never_forgets(self):
        manager = TrustManager()
        manager.record_epoch({"a": (4, 0)})
        manager.record_epoch({})
        assert manager.trust_of("a") == pytest.approx(5.0 / 6.0)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValidationError):
            TrustManager(forgetting_factor=0.0)
        with pytest.raises(ValidationError):
            TrustManager(forgetting_factor=1.5)

    def test_fading_decays_toward_initial_trust(self):
        manager = TrustManager(forgetting_factor=0.5)
        manager.record_epoch({"a": (8, 0)})
        trust_fresh = manager.trust_of("a")
        for _ in range(10):
            manager.record_epoch({})
        assert manager.trust_of("a") < trust_fresh
        assert manager.trust_of("a") == pytest.approx(0.5, abs=0.01)

    def test_attacker_redemption_possible_with_fading(self):
        fading = TrustManager(forgetting_factor=0.7)
        eternal = TrustManager(forgetting_factor=1.0)
        for manager in (fading, eternal):
            manager.record_epoch({"eve": (5, 5)})  # caught once
            for _ in range(6):
                manager.record_epoch({"eve": (2, 0)})  # behaves well after
        assert fading.trust_of("eve") > eternal.trust_of("eve")
        assert fading.trust_of("eve") > 0.6

    def test_silent_raters_also_fade(self):
        manager = TrustManager(forgetting_factor=0.5)
        manager.record_epoch({"a": (4, 0), "b": (4, 0)})
        manager.record_epoch({"a": (4, 0)})  # b silent
        assert manager.trust_of("a") > manager.trust_of("b")

"""Unit tests for the four detectors and their integration (Figure 1)."""

import numpy as np
import pytest

from repro.detectors.arrival_rate import ArrivalRateDetector
from repro.detectors.base import DetectorConfig, TimeInterval
from repro.detectors.histogram import HistogramChangeDetector
from repro.detectors.integration import JointDetector
from repro.detectors.mean_change import MeanChangeDetector
from repro.detectors.model_error import ModelErrorDetector
from repro.errors import ValidationError
from repro.signal.peaks import Peak
from repro.types import RatingDataset, RatingStream


def fair_stream(seed=0, days=120, per_day=6, mean=4.0, std=0.6, product="p"):
    rng = np.random.default_rng(seed)
    n = int(days * per_day)
    times = np.sort(rng.uniform(0.0, days, n))
    # Half-star quantisation, like the default fair world: the HC detector
    # is calibrated for star-rating data, where cluster gaps are real.
    values = np.clip(np.round(rng.normal(mean, std, n) * 2.0) / 2.0, 0, 5)
    raters = [f"u{i}" for i in range(n)]
    return RatingStream(product, times, values, raters)


def attacked_stream(seed=0, attack_start=50.0, attack_days=20.0, n_attack=50,
                    attack_mean=0.8, attack_std=0.3, **kwargs):
    base = fair_stream(seed=seed, **kwargs)
    rng = np.random.default_rng(seed + 1000)
    times = np.sort(rng.uniform(attack_start, attack_start + attack_days, n_attack))
    values = np.clip(rng.normal(attack_mean, attack_std, n_attack), 0, 5)
    attack = RatingStream(
        base.product_id, times, values,
        [f"atk{i}" for i in range(n_attack)], unfair=np.ones(n_attack, bool),
    )
    return base.merge(attack)


class TestTimeInterval:
    def test_contains(self):
        interval = TimeInterval(1.0, 3.0)
        assert interval.contains(1.0) and interval.contains(3.0)
        assert not interval.contains(3.01)

    def test_intersect(self):
        a = TimeInterval(0.0, 5.0)
        b = TimeInterval(3.0, 8.0)
        inter = a.intersect(b)
        assert (inter.start, inter.stop) == (3.0, 5.0)

    def test_disjoint_intersection_none(self):
        assert TimeInterval(0.0, 1.0).intersect(TimeInterval(2.0, 3.0)) is None

    def test_mask(self):
        mask = TimeInterval(1.0, 2.0).mask(np.array([0.5, 1.5, 2.5]))
        np.testing.assert_array_equal(mask, [False, True, False])

    def test_invalid_order_rejected(self):
        with pytest.raises(ValidationError):
            TimeInterval(2.0, 1.0)

    def test_duration(self):
        assert TimeInterval(1.0, 4.0).duration == 3.0


class TestDetectorConfig:
    def test_paper_windows(self):
        config = DetectorConfig()
        assert config.mc_window_days == 30.0
        assert config.arc_window_days == 30
        assert config.hc_window_ratings == 40
        assert config.me_window_ratings == 40

    def test_value_thresholds_formula(self):
        config = DetectorConfig()
        assert config.high_value_threshold(4.0) == pytest.approx(2.0)
        assert config.low_value_threshold(4.0) == pytest.approx(2.5)

    def test_invalid_configs(self):
        with pytest.raises(ValidationError):
            DetectorConfig(mc_window_days=0)
        with pytest.raises(ValidationError):
            DetectorConfig(me_window_ratings=4, ar_order=4)
        with pytest.raises(ValidationError):
            DetectorConfig(mc_mean_threshold1=0.3, mc_mean_threshold2=0.4)

    def test_per_kind_thresholds(self):
        config = DetectorConfig()
        assert config.peak_threshold_for("H-ARC") == config.harc_peak_threshold
        assert config.alarm_threshold_for("L-ARC") == config.larc_alarm_threshold
        assert config.peak_threshold_for("ARC") == config.arc_peak_threshold


class TestMeanChangeDetector:
    def test_attack_produces_peaks(self):
        report = MeanChangeDetector().analyze(attacked_stream())
        assert len(report.peaks) >= 1
        assert report.curve.max_value() > DetectorConfig().mc_peak_threshold

    def test_fair_stream_few_peaks(self):
        report = MeanChangeDetector().analyze(fair_stream(seed=3))
        assert report.curve.max_value() < 20.0

    def test_u_shape_brackets_attack(self):
        report = MeanChangeDetector().analyze(attacked_stream(attack_start=50.0))
        assert report.u_shape is not None
        assert 35.0 < report.u_shape.start_time < 60.0
        assert 60.0 < report.u_shape.stop_time < 85.0

    def test_trust_moderated_segments(self):
        stream = attacked_stream()
        detector = MeanChangeDetector()
        peaks = detector.peaks(detector.curve(stream))
        if len(peaks) >= 2:
            distrusted = detector.suspicious_segments(
                stream, peaks, trust_lookup=lambda r: 0.1 if r.startswith("atk") else 0.9
            )
            neutral = detector.suspicious_segments(stream, peaks, trust_lookup=None)
            assert len(distrusted) >= len(neutral)

    @staticmethod
    def shifted_middle(middle_rater):
        """60 daily ratings of 4.0 with a 3.0 middle third (shift 0.667)
        rated by ``middle_rater``, and peaks bracketing that middle."""
        values = np.full(60, 4.0)
        values[20:40] = 3.0
        raters = ["a"] * 20 + [middle_rater] * 20 + ["a"] * 20
        stream = RatingStream("p", np.arange(60.0), values, raters)
        peaks = [Peak(position=i, index=i, time=float(i), height=10.0)
                 for i in (20, 40)]
        return stream, peaks

    @pytest.mark.parametrize("middle_rater", ["b", "a\x00"])
    def test_segment_trust_keeps_rater_ids_exact(self, middle_rater):
        # "a\x00" is not "a": a numpy string array ties the two and would
        # hand the distrusted middle rater the trust of "a".
        stream, peaks = self.shifted_middle(middle_rater)
        trust = {"a": 0.9, "b": 0.1, "a\x00": 0.1}
        marked = MeanChangeDetector().suspicious_segments(
            stream, peaks, trust.__getitem__
        )
        assert marked == [TimeInterval(20.0, 39.0)]

    def test_without_trust_every_ratio_is_one(self):
        stream, peaks = self.shifted_middle("b")
        # The 0.667 shift clears threshold2 only; a ratio of exactly 1
        # passes a threshold above 1 and fails the default 0.9.
        assert MeanChangeDetector().suspicious_segments(stream, peaks) == []
        lenient = MeanChangeDetector(DetectorConfig(mc_trust_ratio_threshold=1.01))
        assert lenient.suspicious_segments(stream, peaks) == [
            TimeInterval(20.0, 39.0)
        ]


class TestArrivalRateDetector:
    def test_kind_validation(self):
        with pytest.raises(ValidationError):
            ArrivalRateDetector("X-ARC")

    def test_larc_counts_only_low_ratings(self):
        stream = attacked_stream()
        detector = ArrivalRateDetector("L-ARC")
        counts = detector.series(stream).counts
        total_low = int(counts.sum())
        mean = float(stream.values.mean())
        expected = int((stream.values < DetectorConfig().low_value_threshold(mean)).sum())
        assert total_low == expected

    def test_harc_counts_high_ratings(self):
        stream = fair_stream()
        detector = ArrivalRateDetector("H-ARC")
        counts = detector.series(stream).counts
        mean = float(stream.values.mean())
        expected = int((stream.values > DetectorConfig().high_value_threshold(mean)).sum())
        assert int(counts.sum()) == expected

    def test_downgrade_attack_trips_larc(self):
        report = ArrivalRateDetector("L-ARC").analyze(attacked_stream())
        assert report.alarm
        assert len(report.peaks) >= 1

    def test_fair_stream_quiet(self):
        report = ArrivalRateDetector("L-ARC").analyze(fair_stream(seed=8))
        assert len(report.suspicious_intervals) == 0

    def test_empty_stream(self):
        report = ArrivalRateDetector("L-ARC").analyze(RatingStream.empty("p"))
        assert not report.alarm
        assert report.curve.is_empty

    def test_multi_scale_curves(self):
        detector = ArrivalRateDetector("L-ARC")
        curves = detector.series(fair_stream()).curves
        assert len(curves) == 2  # short + long scale

    def test_long_scale_disabled(self):
        config = DetectorConfig(arc_long_window_days=0)
        detector = ArrivalRateDetector("L-ARC", config)
        assert len(detector.series(fair_stream()).curves) == 1


class TestHistogramChangeDetector:
    def test_bimodal_window_suspicious(self):
        # Alternating 4.5/0.5: perfectly balanced clusters.
        times = np.arange(60, dtype=float)
        values = np.array([4.5, 0.5] * 30)
        stream = RatingStream("p", times, values, [f"u{i}" for i in range(60)])
        report = HistogramChangeDetector().analyze(stream)
        assert report.any_suspicious

    def test_fair_stream_not_suspicious(self):
        report = HistogramChangeDetector().analyze(fair_stream(seed=4))
        assert not report.any_suspicious

    def test_short_stream_empty_report(self):
        stream = fair_stream()
        short = stream.subset(np.arange(len(stream)) < 10)
        report = HistogramChangeDetector().analyze(short)
        assert report.curve.is_empty


class TestModelErrorDetector:
    def test_noise_not_suspicious(self):
        report = ModelErrorDetector().analyze(fair_stream(seed=5))
        assert not report.any_suspicious

    def test_predictable_signal_suspicious(self):
        times = np.arange(100, dtype=float)
        values = 3.0 + 1.5 * np.sin(0.35 * times)
        stream = RatingStream("p", times, values, [f"u{i}" for i in range(100)])
        report = ModelErrorDetector().analyze(stream)
        assert report.any_suspicious


class TestJointDetector:
    def test_strong_attack_detected(self):
        stream = attacked_stream()
        report = JointDetector().analyze(stream)
        unfair = stream.unfair
        recall = (report.suspicious & unfair).sum() / unfair.sum()
        assert recall > 0.8
        collateral = (report.suspicious & ~unfair).sum() / (~unfair).sum()
        assert collateral < 0.05

    def test_fair_stream_mostly_clean(self):
        report = JointDetector().analyze(fair_stream(seed=6))
        assert report.num_suspicious < 0.01 * 720

    def test_short_stream_skipped(self):
        stream = fair_stream().subset(np.arange(720) < 5)
        report = JointDetector().analyze(stream)
        assert report.num_suspicious == 0
        assert not report.any_detection

    def test_report_structure(self):
        # The low attack raises the L-ARC alarm only, so Path 2 consults
        # HC and not ME, and the report holds the curves that ran.
        report = JointDetector().analyze(attacked_stream())
        assert report.alarms == {"H-ARC": False, "L-ARC": True}
        assert set(report.curves) == {"MC", "H-ARC", "L-ARC", "HC"}
        assert report.intervals() == list(report.path1_intervals) + list(
            report.path2_intervals
        )
        # A burst of high ratings raises the H-ARC alarm too: ME joins.
        rng = np.random.default_rng(9)
        high = RatingStream(
            "p", np.sort(rng.uniform(20.0, 22.0, 60)), np.full(60, 5.0),
            [f"b{i}" for i in range(60)], unfair=np.ones(60, bool),
        )
        report = JointDetector().analyze(attacked_stream().merge(high))
        assert report.alarms == {"H-ARC": True, "L-ARC": True}
        assert set(report.curves) == {"MC", "H-ARC", "L-ARC", "HC", "ME"}
        # A fair stream raises neither, and without Path 2 nothing is
        # consulted.
        assert set(JointDetector().analyze(fair_stream()).curves) == {
            "MC", "H-ARC", "L-ARC",
        }
        no_path2 = JointDetector(DetectorConfig(enable_path2=False))
        assert set(no_path2.analyze(attacked_stream().merge(high)).curves) == {
            "MC", "H-ARC", "L-ARC",
        }

    def test_analyze_dataset(self):
        ds = RatingDataset([fair_stream(seed=1, product="a"),
                            fair_stream(seed=2, product="b")])
        reports = JointDetector().analyze_batch(ds)
        assert set(reports) == {"a", "b"}

    def test_suspicious_mask_frozen(self):
        report = JointDetector().analyze(fair_stream(seed=7))
        with pytest.raises(ValueError):
            report.suspicious[0] = True

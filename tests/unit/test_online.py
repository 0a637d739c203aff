"""Unit tests for the online (streaming) rating system."""

import numpy as np
import pytest

from repro.aggregation import PScheme, SimpleAveragingScheme
from repro.errors import ValidationError
from repro.online import OnlineRatingSystem
from repro.types import Rating, RatingDataset, RatingStream


def make_rating(time, value, product="p", rater=None, unfair=False):
    rater = rater if rater is not None else f"u_{time}_{value}"
    return Rating(
        time=time, rater_id=rater, product_id=product, value=value, unfair=unfair
    )


class TestIngestion:
    def test_epoch_boundaries(self):
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        assert system.current_epoch_start == 0.0
        assert system.current_epoch_end == 30.0

    def test_invalid_period(self):
        with pytest.raises(ValidationError):
            OnlineRatingSystem(SimpleAveragingScheme(), period_days=0.0)

    def test_submit_buffers_until_epoch(self):
        system = OnlineRatingSystem(SimpleAveragingScheme())
        published = system.submit(make_rating(5.0, 4.0))
        assert published == []
        assert system.dataset().total_ratings() == 1

    def test_future_rating_closes_epochs(self):
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        system.submit(make_rating(5.0, 4.0))
        published = system.submit(make_rating(65.0, 3.0))
        assert [r.epoch_index for r in published] == [0, 1]
        assert system.current_epoch_start == 60.0

    def test_late_rating_charged_to_landing_epoch(self):
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        system.submit(make_rating(40.0, 4.0))  # closes epoch 0
        system.submit(make_rating(10.0, 2.0))  # late: lands in epoch 0
        # The restated view charges the late arrival to epoch 0, where its
        # timestamp lands -- not to the epoch accumulating when it arrived.
        assert system.reports[0].late_ratings == 1
        report = system.close_epoch()  # closes epoch 1
        assert report.late_ratings == 0
        assert system.late_ratings_by_epoch() == {0: 1}

    def test_late_ratings_after_multi_epoch_skip(self):
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        published = system.submit(make_rating(100.0, 4.0))  # closes 0, 1, 2
        assert [r.epoch_index for r in published] == [0, 1, 2]
        assert all(r.late_ratings == 0 for r in published)
        system.submit(make_rating(40.0, 2.0))   # lands in epoch 1
        system.submit(make_rating(70.0, 3.0))   # lands in epoch 2
        system.submit(make_rating(75.0, 3.5))   # lands in epoch 2
        restated = system.reports
        assert [r.late_ratings for r in restated] == [0, 1, 2]
        # Published snapshots are immutable; only the view is restated.
        assert all(r.late_ratings == 0 for r in published)
        assert system.late_ratings_by_epoch() == {1: 1, 2: 2}

    def test_pre_start_late_rating_clamps_to_epoch_zero(self):
        system = OnlineRatingSystem(
            SimpleAveragingScheme(), start_day=0.0, period_days=30.0
        )
        system.submit(make_rating(35.0, 4.0))  # closes epoch 0
        system.submit(make_rating(-5.0, 2.0))  # before the time origin
        assert system.reports[0].late_ratings == 1

    def test_pre_start_rating_is_not_late_before_any_close(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        system = OnlineRatingSystem(
            SimpleAveragingScheme(), start_day=0.0, period_days=30.0,
            registry=registry,
        )
        system.submit(make_rating(-5.0, 2.0))  # nothing published yet
        system.submit(make_rating(5.0, 4.0))
        report = system.close_epoch()
        assert report.late_ratings == 0
        assert report.telemetry["late_ratings_total"] == 0.0
        assert system.reports[0].late_ratings == 0
        assert system.late_ratings_by_epoch() == {}
        assert registry.counter_value("online.late_ratings") == 0
        # The pre-origin rating is still history the scheme scores.
        assert system.dataset()["p"].times.tolist() == [-5.0, 5.0]


class TestPublishing:
    def test_epoch_scores_match_batch_sa(self):
        ratings = [make_rating(float(t), 4.0 if t < 30 else 2.0) for t in range(60)]
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        system.submit_many(ratings)
        # Epoch 0 was closed automatically by the first t >= 30 rating.
        assert system.reports[0].scores["p"] == pytest.approx(4.0)
        final = system.close_epoch()
        assert final.scores["p"] == pytest.approx(2.0)

    def test_scores_equal_batch_pipeline_at_boundaries(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0.0, 88.0, 300))
        values = np.clip(rng.normal(4.0, 0.5, 300), 0, 5)
        ratings = [
            make_rating(float(t), float(v), rater=f"u{i}")
            for i, (t, v) in enumerate(zip(times, values))
        ]
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        system.submit_many(ratings)
        while system.current_epoch_start < 90.0:
            system.close_epoch()
        batch = SimpleAveragingScheme().monthly_scores(
            system.dataset(), 30.0, 0.0, 90.0
        )
        for index, report in enumerate(system.reports[:3]):
            assert report.scores["p"] == pytest.approx(batch["p"][index])

    def test_empty_system_report(self):
        system = OnlineRatingSystem(SimpleAveragingScheme())
        report = system.close_epoch()
        assert report.scores == {}
        assert np.isnan(report.score_of("anything"))

    def test_latest_scores(self):
        system = OnlineRatingSystem(SimpleAveragingScheme())
        assert system.latest_scores() == {}
        system.submit(make_rating(1.0, 3.0))
        system.close_epoch()
        assert system.latest_scores()["p"] == pytest.approx(3.0)


class TestTelemetry:
    def test_report_telemetry_fields(self):
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        system.submit(make_rating(5.0, 4.0))
        system.submit(make_rating(15.0, 3.0))
        report = system.close_epoch()
        telemetry = report.telemetry
        assert telemetry["ratings_ingested"] == 2.0
        assert telemetry["ingest_rate_per_day"] == pytest.approx(2.0 / 30.0)
        assert telemetry["late_ratings_total"] == 0.0
        assert telemetry["scheme_seconds"] >= 0.0

    def test_telemetry_tracks_late_total(self):
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        system.submit(make_rating(40.0, 4.0))   # closes epoch 0
        system.submit(make_rating(10.0, 2.0))   # late
        report = system.close_epoch()
        assert report.telemetry["late_ratings_total"] == 1.0
        # Both submits (including the late one) arrived during epoch 1.
        assert report.telemetry["ratings_ingested"] == 2.0

    def test_metrics_registry_collection(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        system = OnlineRatingSystem(
            SimpleAveragingScheme(), period_days=30.0, registry=registry
        )
        system.submit(make_rating(5.0, 4.0))
        system.submit(make_rating(40.0, 3.0))   # closes epoch 0
        system.submit(make_rating(10.0, 2.0))   # late
        assert registry.counter_value("online.ratings_ingested") == 3
        assert registry.counter_value("online.late_ratings") == 1
        # One scheme call per closed epoch: its histogram counts them.
        assert registry.histograms["online.scheme_seconds"].count == 1
        assert registry.gauges["online.products"].value == 1.0


class TestWithHistoryAndPScheme:
    def build_history(self, seed=0, days=45.0):
        rng = np.random.default_rng(seed)
        n = int(days * 6)
        times = np.sort(rng.uniform(-days, 0.0, n))
        values = np.clip(np.round(rng.normal(4.0, 0.6, n) * 2) / 2, 0, 5)
        return RatingDataset(
            [RatingStream("p", times, values, [f"h{i}" for i in range(n)])]
        )

    def test_history_feeds_detection(self):
        history = self.build_history()
        system = OnlineRatingSystem(
            PScheme(), start_day=0.0, period_days=30.0, history=history
        )
        rng = np.random.default_rng(1)
        # Honest live traffic plus an unfair block in days 10-20.
        live = [
            make_rating(float(t), float(np.clip(rng.normal(4.0, 0.6), 0, 5)),
                        rater=f"live{i}")
            for i, t in enumerate(np.sort(rng.uniform(0.0, 29.0, 180)))
        ]
        attack = [
            make_rating(float(t), 0.5, rater=f"atk{i}", unfair=True)
            for i, t in enumerate(np.sort(rng.uniform(10.0, 20.0, 40)))
        ]
        system.submit_many(sorted(live + attack))
        report = system.close_epoch()
        published = report.scores["p"]
        naive = np.mean([r.value for r in live + attack if 0.0 <= r.time < 30.0])
        # The P-scheme's published score resists the attack: closer to the
        # honest mean than the naive average is.
        honest = np.mean([r.value for r in live])
        assert abs(published - honest) < abs(naive - honest)

    def test_report_sequence_indices(self):
        system = OnlineRatingSystem(SimpleAveragingScheme())
        for _ in range(3):
            system.close_epoch()
        assert [r.epoch_index for r in system.reports] == [0, 1, 2]
        assert system.reports[2].epoch_start == pytest.approx(60.0)


class TestEpochAlerts:
    def build_system(self, rule_value=0.0):
        from repro.obs import AlertEngine, AlertRule, MetricsRegistry
        from repro.obs.series import TimeSeriesRecorder

        registry = MetricsRegistry()
        rule = AlertRule(
            name="ingest-moving", metric="online.ratings_ingested",
            kind="rate_of_change", op=">", value=rule_value,
        )
        recorder = TimeSeriesRecorder(
            engine=AlertEngine([rule], registry=registry)
        )
        system = OnlineRatingSystem(
            SimpleAveragingScheme(), period_days=30.0,
            registry=registry, series_recorder=recorder,
        )
        return system, registry, recorder

    def test_epoch_report_carries_alerts(self):
        system, registry, recorder = self.build_system()
        system.submit(make_rating(5.0, 4.0))
        report = system.close_epoch()
        assert [event.state for event in report.alerts] == ["firing"]
        assert report.alerts[0].rule == "ingest-moving"
        assert registry.counter_value("alert.firing") == 1.0
        assert recorder.series("online.ratings_ingested") == [(0, 1.0)]

    def test_no_recorder_means_no_alerts(self):
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        system.submit(make_rating(5.0, 4.0))
        assert system.close_epoch().alerts == ()

    def test_registry_attached_recorder_used(self):
        # Wiring through registry.attach_series (the CLI path) is
        # equivalent to passing series_recorder explicitly.
        from repro.obs import MetricsRegistry
        from repro.obs.series import TimeSeriesRecorder

        registry = MetricsRegistry()
        registry.attach_series(TimeSeriesRecorder())
        system = OnlineRatingSystem(
            SimpleAveragingScheme(), period_days=30.0, registry=registry
        )
        system.submit(make_rating(5.0, 4.0))
        system.close_epoch()
        assert registry.series.series("online.scheme_seconds.count") == [(0, 1.0)]

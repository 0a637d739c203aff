"""The online replay and ``OnlineRatingSystem`` against the object path.

The reference below is the plain path the columnar replay replaced: split
the (attacked) dataset by iterating :class:`Rating` records, order the
live ones with ``sorted(live)`` (``Rating``'s own ``(time, rater_id,
product_id, value)`` order), buffer them as objects per product and build
every snapshot with :meth:`RatingStream.from_ratings`.  The replay and the
online system must reproduce it field for field: every snapshot the
scheme scores (product order and every column in element order, bit for
bit), every epoch report (scores as ``float.hex``; ``scheme_seconds`` is
a wall clock) and every drift warning.

Neither seed's replay has two live ratings at one time, so the
hand-built world is what pins the tie order: equal times within one
product and across products, rater ids ``"a"`` and ``"a\\x00"`` (numpy
``U`` arrays drop the trailing NUL; Python orders it after ``"a"``),
``-0.0`` against ``0.0``, and full ties that differ only in ``unfair``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.aggregation import PScheme
from repro.experiments.context import ExperimentContext
from repro.marketplace.challenge import RatingChallenge
from repro.obs import MetricsRegistry
from repro.obs.drift import DriftMonitor
from repro.online import EpochReport, OnlineRatingSystem
from repro.types import Rating, RatingDataset, RatingStream


class RecordingScheme:
    """Delegates to ``inner`` and keeps every snapshot it is asked to score."""

    def __init__(self, inner):
        self.inner = inner
        self.snapshots = []

    def monthly_scores(self, dataset, **kwargs):
        self.snapshots.append(dataset)
        return self.inner.monthly_scores(dataset, **kwargs)


def ratings_of(stream):
    """The stream's records, one ``rating_at`` per index."""
    return [stream.rating_at(i) for i in range(len(stream))]


class ObjectPathSystem:
    """Reference online system: ``Rating`` buffers, ``from_ratings`` snapshots.

    A rating is late when an epoch is already published and its timestamp
    precedes the accumulating epoch; it is charged to the epoch its
    timestamp lands in (pre-origin times clamp to epoch 0).
    """

    def __init__(self, scheme, start_day, period_days, history=None):
        self.scheme = scheme
        self.start_day = start_day
        self.period_days = period_days
        self.buffers = {}
        self.monitor = DriftMonitor(registry=MetricsRegistry())
        if history is not None:
            for stream in history.streams():
                self.buffers.setdefault(stream.product_id, []).extend(
                    ratings_of(stream)
                )
            if history.total_ratings():
                self.monitor.calibrate(history)
        self.closed = 0
        self.ingested = 0
        self.late = {}
        self.late_total = 0
        self.published = []

    @property
    def epoch_start(self):
        return self.start_day + self.closed * self.period_days

    def submit(self, rating):
        published = []
        while rating.time >= self.epoch_start + self.period_days:
            published.append(self.close_epoch())
        if self.closed and rating.time < self.epoch_start:
            landing = max(0, int((rating.time - self.start_day) // self.period_days))
            self.late[landing] = self.late.get(landing, 0) + 1
            self.late_total += 1
        self.buffers.setdefault(rating.product_id, []).append(rating)
        self.ingested += 1
        return published

    def dataset(self):
        return RatingDataset(
            [
                RatingStream.from_ratings(product_id, ratings)
                for product_id, ratings in self.buffers.items()
            ]
        )

    def close_epoch(self):
        start = self.epoch_start
        end = start + self.period_days
        snapshot = self.dataset()
        scores = {}
        if snapshot.total_ratings():
            series = self.scheme.monthly_scores(
                snapshot,
                period_days=self.period_days,
                start_day=self.start_day,
                end_day=end,
            )
            scores = {
                product_id: float(values[self.closed])
                if self.closed < values.size
                else math.nan
                for product_id, values in series.items()
            }
        warnings = ()
        if len(snapshot):
            warnings = tuple(self.monitor.check_epoch(snapshot, start, end))
        report = EpochReport(
            epoch_index=self.closed,
            epoch_start=start,
            epoch_end=end,
            scores=scores,
            ratings_ingested=self.ingested,
            late_ratings=self.late.get(self.closed, 0),
            telemetry={
                "ratings_ingested": float(self.ingested),
                "ingest_rate_per_day": self.ingested / self.period_days,
                "late_ratings_total": float(self.late_total),
                "drift_warnings": float(len(warnings)),
            },
            drift_warnings=warnings,
        )
        self.published.append(report)
        self.closed += 1
        self.ingested = 0
        return report

    @property
    def reports(self):
        return tuple(
            replace(report, late_ratings=self.late.get(report.epoch_index, 0))
            for report in self.published
        )


def object_replay(challenge, scheme, submission=None):
    """``RatingChallenge.replay_online`` over ``Rating`` objects."""
    dataset = (
        challenge.attacked_dataset(submission)
        if submission is not None
        else challenge.fair_dataset
    )
    history, live = [], []
    for stream in dataset.streams():
        for rating in ratings_of(stream):
            (history if rating.time < challenge.start_day else live).append(rating)
    grouped = {}
    for rating in history:
        grouped.setdefault(rating.product_id, []).append(rating)
    history_dataset = RatingDataset(
        [
            RatingStream.from_ratings(product_id, ratings)
            for product_id, ratings in grouped.items()
        ]
    )
    system = ObjectPathSystem(
        scheme,
        challenge.start_day,
        challenge.config.period_days,
        history_dataset if history else None,
    )
    for rating in sorted(live):
        system.submit(rating)
    while system.epoch_start + system.period_days <= challenge.end_day:
        system.close_epoch()
    return system


# --------------------------------------------------------------------- #
# Field-by-field comparison
# --------------------------------------------------------------------- #


def assert_same_dataset(actual, expected):
    assert actual.product_ids == expected.product_ids
    for product_id in expected:
        got, want = actual[product_id], expected[product_id]
        assert got.times.tobytes() == want.times.tobytes(), product_id
        assert got.values.tobytes() == want.values.tobytes(), product_id
        assert got.rater_ids == want.rater_ids, product_id
        assert got.unfair.tolist() == want.unfair.tolist(), product_id


def warning_fields(warning):
    return (
        warning.kind,
        warning.product_id,
        float(warning.statistic).hex(),
        float(warning.threshold).hex(),
        tuple(float(edge).hex() for edge in warning.window),
        warning.detail,
    )


def assert_same_reports(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.epoch_index == want.epoch_index
        assert got.epoch_start == want.epoch_start
        assert got.epoch_end == want.epoch_end
        assert list(got.scores) == list(want.scores)
        assert {k: float(v).hex() for k, v in got.scores.items()} == {
            k: float(v).hex() for k, v in want.scores.items()
        }
        assert got.ratings_ingested == want.ratings_ingested
        assert got.late_ratings == want.late_ratings
        telemetry = dict(got.telemetry)
        assert telemetry.pop("scheme_seconds") >= 0.0
        assert telemetry == want.telemetry
        assert [warning_fields(w) for w in got.drift_warnings] == [
            warning_fields(w) for w in want.drift_warnings
        ]
        assert got.alerts == want.alerts == ()


def assert_replay_matches(challenge, submission=None):
    actual_scheme = RecordingScheme(PScheme())
    expected_scheme = RecordingScheme(PScheme())
    system = challenge.replay_online(
        actual_scheme, submission, validate=False, registry=MetricsRegistry()
    )
    reference = object_replay(challenge, expected_scheme, submission)
    assert len(actual_scheme.snapshots) == len(expected_scheme.snapshots) > 0
    for got, want in zip(actual_scheme.snapshots, expected_scheme.snapshots):
        assert_same_dataset(got, want)
    assert_same_dataset(system.dataset(), reference.dataset())
    assert_same_reports(system.reports, reference.reports)
    assert system.late_ratings_by_epoch() == reference.late


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [2008, 7])
def test_population_replays_match_object_path(seed):
    context = ExperimentContext(seed=seed, population_size=3, workers=0)
    for submission in context.population:
        assert_replay_matches(context.challenge, submission)


def tied_world():
    """A small world whose live ratings tie on time in every way."""
    rng = np.random.default_rng(19)

    def stream(product_id, lo, hi, n, ties=()):
        times = rng.uniform(lo, hi, n).round(2).tolist()
        values = ((rng.normal(4.0, 0.6, n).clip(0, 5) * 2).round() / 2).tolist()
        raters = [f"r{i}" for i in rng.integers(0, 30, n)]
        unfair = [False] * n
        for time, rater, value, flag in ties:
            times.append(time)
            raters.append(rater)
            values.append(value)
            unfair.append(flag)
        return RatingStream(product_id, times, values, raters, unfair)

    return RatingDataset(
        [
            # Live only, first sighted at day 5 by "a\x00": joins the
            # snapshots after "zeta", first sighted at day 5 by "a".
            stream("alpha", 6.0, 80.0, 25, [(5.0, "a\x00", 4.0, False)]),
            stream(
                "p1",
                -45.0,
                82.0,
                150,
                [
                    # "a" sorts before "a\x00" although its value is larger.
                    (10.0, "a\x00", 2.0, False),
                    (10.0, "a", 3.0, False),
                    (12.0, "b", 4.0, False),
                    (14.0, "c", 4.5, False),
                    (14.0, "c", 2.0, True),
                    (0.0, "e", 4.0, False),
                    # Full ties that differ only in ``unfair`` keep
                    # dataset order.
                    (16.0, "d", 1.0, True),
                    (16.0, "d", 1.0, False),
                ],
            ),
            stream(
                "p2",
                -45.0,
                82.0,
                150,
                [
                    (12.0, "b", 4.0, False),
                    (-0.0, "e", 4.0, False),
                    (10.0, "a", 3.0, True),
                    (16.0, "d", 1.0, False),
                    (16.0, "d", 1.0, True),
                ],
            ),
            stream("old", -45.0, -1.0, 40),  # history only
            stream("zeta", 6.0, 80.0, 25, [(5.0, "a", 4.0, True)]),
            # Live only, first sighted together at day 4 by one rater:
            # "kappa" joins first, against dataset and value order.
            stream("mu", 6.0, 80.0, 10, [(4.0, "g", 1.0, False)]),
            stream("kappa", 6.0, 80.0, 10, [(4.0, "g", 3.0, False)]),
        ]
    )


def test_tied_world_replay_matches_object_path():
    world = tied_world()
    live = sorted(r for s in world.streams() for r in ratings_of(s) if r.time >= 0.0)
    assert len({r.time for r in live}) < len(live)
    challenge = RatingChallenge(fair_dataset=world)
    assert_replay_matches(challenge)
    system = challenge.replay_online(PScheme(), validate=False)
    assert system.dataset().product_ids == (
        "p1", "p2", "old", "kappa", "mu", "zeta", "alpha"
    )
    p1 = system.dataset()["p1"]
    at_ten = [r for r, t in zip(p1.rater_ids, p1.times) if t == 10.0]
    assert at_ten == ["a", "a\x00"]


@pytest.mark.parametrize("live", [True, False], ids=["live-only", "history-only"])
def test_one_sided_world_replay_matches_object_path(live):
    # No history leaves the drift monitor uncalibrated; no live ratings
    # leave nothing to submit.
    world = RatingDataset(
        [
            stream.subset((stream.times >= 0.0) == live)
            for stream in tied_world().streams()
        ]
    )
    assert_replay_matches(RatingChallenge(fair_dataset=world))


def test_system_with_empty_history_stream_matches_object_path():
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(-40.0, -0.5, 60))
    history = RatingDataset(
        [
            RatingStream(
                "p1", times, np.full(60, 4.0), [f"h{i}" for i in range(60)]
            ),
            RatingStream.empty("ghost"),
            RatingStream("p2", [-3.0, -2.0], [3.0, 5.0], ["x", "y"], [False, True]),
        ]
    )
    feed = [
        Rating(5.0, "u1", "p2", 4.0),
        Rating(3.0, "u2", "p1", 3.5),        # out of order, same epoch
        Rating(2.0, "u3", "new", 2.0, True),  # out of order, new product
        Rating(29.0, "u4", "p1", 4.0),
        Rating(35.0, "u5", "p1", 4.5),       # closes epoch 0
        Rating(10.0, "u6", "p2", 1.0, True),  # late, lands in epoch 0
        Rating(-3.0, "u7", "p1", 2.0),       # late, pre-origin: epoch 0
        Rating(31.0, "u8", "ghost", 3.0),
        Rating(95.0, "u9", "p2", 4.0),       # closes epochs 1 and 2
        Rating(40.0, "u10", "p1", 4.0),      # late, lands in epoch 1
        Rating(61.0, "u11", "new", 5.0),     # late, lands in epoch 2
    ]
    actual_scheme = RecordingScheme(PScheme())
    expected_scheme = RecordingScheme(PScheme())
    system = OnlineRatingSystem(
        actual_scheme, start_day=0.0, period_days=30.0, history=history,
        registry=MetricsRegistry(),
    )
    reference = ObjectPathSystem(expected_scheme, 0.0, 30.0, history)
    assert_same_dataset(system.dataset(), reference.dataset())
    assert system.dataset()["ghost"].times.size == 0
    published, expected_published = [], []
    for rating in feed:
        published.extend(system.submit(rating))
        expected_published.extend(reference.submit(rating))
        assert_same_dataset(system.dataset(), reference.dataset())
    published.append(system.close_epoch())
    expected_published.append(reference.close_epoch())
    assert [r.epoch_index for r in published] == [0, 1, 2, 3]
    assert_same_reports(published, expected_published)
    assert_same_reports(system.reports, reference.reports)
    assert system.late_ratings_by_epoch() == reference.late == {0: 2, 1: 1, 2: 1}
    assert len(actual_scheme.snapshots) == len(expected_scheme.snapshots) == 4
    for got, want in zip(actual_scheme.snapshots, expected_scheme.snapshots):
        assert_same_dataset(got, want)

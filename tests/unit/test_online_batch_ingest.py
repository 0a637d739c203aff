"""The column-batch ingest against the per-rating object path.

``OnlineRatingSystem.submit_many`` cuts a batch at epoch edges and
appends per-product column chunks; ``ObjectPathSystem`` (the reference in
``test_online_replay_reference.py``) buffers one ``Rating`` at a time.
Split into random batches, every draw must give the same snapshots (bit
for bit), reports (scores as ``float.hex``), late counts and
``online.*`` registry readings at each close.  The draws mix late,
pre-origin, far-future (several closes at once), out-of-order and
same-time ratings, the rater ids ``"a"``/``"a\\x00"`` and the values
``-0.0``/``0.0``.
"""

from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_online_replay_reference import (
    ObjectPathSystem,
    RecordingScheme,
    assert_same_dataset,
    assert_same_reports,
)

from repro.aggregation import SimpleAveragingScheme
from repro.errors import ValidationError
from repro.obs import MetricsRegistry
from repro.online import OnlineRatingSystem
from repro.types import Rating, RatingDataset, RatingStream

PERIOD = 30.0

# Epoch edges, their neighbours and a far-future time, so draws tie on
# time and close several epochs at once.
EDGE_TIMES = (-5.0, -0.0, 0.0, 12.5, 29.5, 30.0, 45.0, 60.0, 61.0, 200.0)

times = st.one_of(
    st.sampled_from(EDGE_TIMES),
    st.floats(min_value=-40.0, max_value=130.0, allow_nan=False),
)
values = st.one_of(
    st.sampled_from((-0.0, 0.0, 2.5, 5.0)),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
raters = st.sampled_from(("a", "a\x00", "b", "c"))
products = st.sampled_from(("p", "q", "r"))
ratings = st.builds(Rating, times, raters, products, values, st.booleans())


@st.composite
def histories(draw):
    """``None``, or pre-origin streams (one may be empty)."""
    if not draw(st.booleans()):
        return None
    streams = []
    for product_id in draw(st.lists(products, unique=True, max_size=3)):
        rows = draw(
            st.lists(
                st.tuples(st.floats(-40.0, -0.5), values, raters), max_size=12
            )
        )
        stamps, levels, ids = zip(*rows) if rows else ((), (), ())
        streams.append(RatingStream(product_id, stamps, levels, ids))
    return RatingDataset(streams)


@st.composite
def batches(draw):
    """A rating feed cut into consecutive batches (some empty)."""
    feed = draw(st.lists(ratings, max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(feed)), max_size=6)))
    edges = [0, *cuts, len(feed)]
    return [feed[lo:hi] for lo, hi in zip(edges, edges[1:])]


def registry_reading(registry):
    return (
        registry.counter_value("online.ratings_ingested"),
        registry.counter_value("online.late_ratings"),
        registry.gauges["online.products"].value,
    )


class ReadingSystem(OnlineRatingSystem):
    """Reads the ``online.*`` registry values at every close."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = []

    def close_epoch(self):
        report = super().close_epoch()
        self.reads.append(registry_reading(self.registry))
        return report


class ReadingReference(ObjectPathSystem):
    """The reference, with what the registry should read at every close."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.total = 0
        self.reads = []

    def submit(self, rating):
        published = super().submit(rating)
        self.total += 1
        return published

    def close_epoch(self):
        self.reads.append(
            (float(self.total), float(self.late_total), float(len(self.buffers)))
        )
        return super().close_epoch()


def build_pair(history):
    system = ReadingSystem(
        RecordingScheme(SimpleAveragingScheme()), start_day=0.0,
        period_days=PERIOD, history=history, registry=MetricsRegistry(),
    )
    reference = ReadingReference(
        RecordingScheme(SimpleAveragingScheme()), 0.0, PERIOD, history
    )
    return system, reference


def assert_same_systems(system, reference):
    assert_same_dataset(system.dataset(), reference.dataset())
    assert_same_reports(system.reports, reference.reports)
    assert system.late_ratings_by_epoch() == reference.late
    assert system.reads == reference.reads
    snapshots = system.scheme.snapshots
    assert len(snapshots) == len(reference.scheme.snapshots)
    for got, want in zip(snapshots, reference.scheme.snapshots):
        assert_same_dataset(got, want)


@given(histories(), batches())
@settings(max_examples=150, deadline=None)
@example(
    None,
    [
        [
            Rating(5.0, "a", "p", 4.0),
            Rating(200.0, "a\x00", "q", -0.0),  # closes epochs 0-5
            Rating(5.0, "a", "q", 0.0, True),  # late, same time as row 0
            Rating(-3.0, "b", "r", 1.0),  # late, pre-origin
        ],
        [Rating(70.0, "a", "p", 2.0), Rating(200.0, "a", "p", 3.0)],
    ],
)
def test_batches_match_rating_by_rating_ingest(history, feed):
    system, reference = build_pair(history)
    for batch in feed:
        published = system.submit_many(batch)
        expected = [report for r in batch for report in reference.submit(r)]
        assert_same_reports(published, expected)
        assert_same_dataset(system.dataset(), reference.dataset())
    assert_same_reports([system.close_epoch()], [reference.close_epoch()])
    assert_same_systems(system, reference)


@given(histories(), st.lists(ratings, max_size=8), st.lists(ratings, max_size=40))
@settings(max_examples=100, deadline=None)
def test_dataset_batch_equals_sorted_records(history, before, rows):
    # A dataset of streams built from ``rows``, submitted after ``before``
    # (which may close epochs, so some of its rows are late).
    grouped = {}
    for r in rows:
        grouped.setdefault(r.product_id, []).append(r)
    dataset = RatingDataset(
        RatingStream.from_ratings(product_id, group)
        for product_id, group in grouped.items()
    )
    records = [r for stream in dataset.streams() for r in stream]
    as_dataset, as_records = build_pair(history)[0], build_pair(history)[0]
    for system, feed in ((as_dataset, dataset), (as_records, sorted(records))):
        system.submit_many(before)
        system.submit_many(feed)
        system.close_epoch()
    assert_same_dataset(as_dataset.dataset(), as_records.dataset())
    # ``assert_same_reports`` takes its second side without the wall clock.
    assert_same_reports(
        as_dataset.reports,
        [
            replace(r, telemetry={
                k: v for k, v in r.telemetry.items() if k != "scheme_seconds"
            })
            for r in as_records.reports
        ],
    )
    assert as_dataset.late_ratings_by_epoch() == as_records.late_ratings_by_epoch()
    assert as_dataset.reads == as_records.reads
    for got, want in zip(as_dataset.scheme.snapshots, as_records.scheme.snapshots):
        assert_same_dataset(got, want)


def observable_state(system):
    snapshot = system.dataset()
    return (
        snapshot.product_ids,
        [
            (s.times.tobytes(), s.values.tobytes(), s.rater_ids, s.unfair.tobytes())
            for s in snapshot.streams()
        ],
        system.reports,
        system.late_ratings_by_epoch(),
        system.current_epoch_start,
        system.registry.snapshot(),
    )


def good_batch():
    """A valid batch whose second row would close two epochs."""
    return [
        Rating(5.0, "a", "p", 4.0),
        Rating(95.0, "b", "q", 3.0, True),
        Rating(10.0, "c", "p", 2.0),
    ]


# ``Rating`` refuses non-finite fields when built; ``submit_many`` reads
# any record with its attributes.
Record = namedtuple("Record", "time rater_id product_id value unfair")


@pytest.mark.parametrize(
    "column, broken",
    [("time", np.nan), ("time", np.inf), ("value", -np.inf), ("value", np.nan)],
)
def test_invalid_batch_is_rejected_whole(column, broken):
    system, _ = build_pair(None)
    system.submit_many([Rating(40.0, "x", "p", 4.0), Rating(3.0, "y", "q", 1.0)])
    before = observable_state(system)
    fields = dict(time=10.0, rater_id="c", product_id="p", value=2.0, unfair=False)
    fields[column] = broken
    # The bad record comes after the row that would close two epochs.
    with pytest.raises(ValidationError):
        system.submit_many(good_batch()[:2] + [Record(**fields)])
    assert observable_state(system) == before
    system.submit_many(good_batch())
    assert [r.epoch_index for r in system.reports] == [0, 1, 2]


# --------------------------------------------------------------------- #
# RatingStream.between is a slice of the sorted times
# --------------------------------------------------------------------- #

bounds = st.one_of(
    st.sampled_from((-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, np.inf)),
    st.floats(min_value=-2.0, max_value=4.0, allow_nan=False),
)


@given(
    st.lists(st.tuples(st.sampled_from((-0.0, 0.0, 1.0, 2.0, 3.0)), raters),
             max_size=8),
    bounds,
    bounds,
)
@settings(max_examples=300, deadline=None)
@example([], 0.0, 1.0)
@example([(1.0, "a")], 1.0, 1.0)
@example([(1.0, "a")], 1.0, 2.0)
@example([(1.0, "a")], 0.0, 1.0)
@example([(1.0, "a"), (1.0, "b"), (2.0, "a"), (2.0, "c")], 1.0, 2.0)
@example([(1.0, "a"), (1.0, "b"), (2.0, "a")], 2.0, 1.0)
@example([(-0.0, "a"), (0.0, "a\x00")], 0.0, 1.0)
def test_between_equals_boolean_mask_subset(rows, start, stop):
    stamps, ids = zip(*rows) if rows else ((), ())
    stream = RatingStream(
        "p", stamps, np.arange(len(rows), dtype=float), ids,
        np.arange(len(rows)) % 2 == 0,
    )
    got = stream.between(start, stop)
    want = stream.subset((stream.times >= start) & (stream.times < stop))
    assert got.product_id == want.product_id
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.unfair.tobytes() == want.unfair.tobytes()
    assert got.rater_ids == want.rater_ids
    assert got.lineage is None
    assert not got.times.flags.writeable

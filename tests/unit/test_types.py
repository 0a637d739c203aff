"""Unit tests for repro.types (Rating, RatingStream, RatingDataset)."""

import numpy as np
import pytest

from repro.errors import EmptyDataError, ValidationError
from repro.types import DEFAULT_SCALE, Rating, RatingDataset, RatingScale, RatingStream


def make_stream(product_id="p1", n=5, unfair_every=0):
    times = np.arange(n, dtype=float)
    values = 4.0 - 0.1 * np.arange(n)
    raters = [f"u{i}" for i in range(n)]
    unfair = [unfair_every and i % unfair_every == 0 for i in range(n)]
    return RatingStream(product_id, times, values, raters, unfair)


class TestRatingScale:
    def test_default_scale(self):
        assert DEFAULT_SCALE.minimum == 0.0
        assert DEFAULT_SCALE.maximum == 5.0
        assert DEFAULT_SCALE.width == 5.0

    def test_contains(self):
        assert DEFAULT_SCALE.contains(0.0)
        assert DEFAULT_SCALE.contains(5.0)
        assert not DEFAULT_SCALE.contains(5.01)
        assert not DEFAULT_SCALE.contains(-0.01)

    def test_clip(self):
        out = DEFAULT_SCALE.clip(np.array([-1.0, 6.0, 3.0]))
        np.testing.assert_array_equal(out, np.array([0.0, 5.0, 3.0]))

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            RatingScale(5.0, 5.0)
        with pytest.raises(ValidationError):
            RatingScale(5.0, 1.0)


class TestRating:
    def test_fields(self):
        rating = Rating(time=1.5, rater_id="u1", product_id="p1", value=4.0)
        assert rating.unfair is False

    def test_ordering_by_time(self):
        early = Rating(time=1.0, rater_id="b", product_id="p", value=1.0)
        late = Rating(time=2.0, rater_id="a", product_id="p", value=0.0)
        assert early < late

    def test_rejects_nan_time(self):
        with pytest.raises(ValidationError):
            Rating(time=float("nan"), rater_id="u", product_id="p", value=1.0)

    def test_rejects_inf_value(self):
        with pytest.raises(ValidationError):
            Rating(time=0.0, rater_id="u", product_id="p", value=float("inf"))


class TestRatingStreamConstruction:
    def test_sorts_by_time(self):
        stream = RatingStream("p", [3.0, 1.0, 2.0], [1, 2, 3], ["a", "b", "c"])
        np.testing.assert_array_equal(stream.times, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(stream.values, [2.0, 3.0, 1.0])
        assert stream.rater_ids == ("b", "c", "a")

    def test_stable_sort_preserves_tie_order(self):
        stream = RatingStream("p", [1.0, 1.0], [5, 4], ["first", "second"])
        assert stream.rater_ids == ("first", "second")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            RatingStream("p", [1.0], [2.0, 3.0], ["a"])
        with pytest.raises(ValidationError):
            RatingStream("p", [1.0], [2.0], ["a", "b"])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            RatingStream("p", [np.nan], [1.0], ["a"])
        with pytest.raises(ValidationError):
            RatingStream("p", [0.0], [np.inf], ["a"])

    def test_arrays_are_frozen(self):
        stream = make_stream()
        with pytest.raises(ValueError):
            stream.times[0] = 99.0
        with pytest.raises(ValueError):
            stream.values[0] = 99.0

    def test_from_ratings_roundtrip(self):
        ratings = [
            Rating(time=2.0, rater_id="u2", product_id="p", value=3.0, unfair=True),
            Rating(time=1.0, rater_id="u1", product_id="p", value=4.0),
        ]
        stream = RatingStream.from_ratings("p", ratings)
        assert len(stream) == 2
        assert list(stream)[0].rater_id == "u1"
        assert list(stream)[1].unfair is True

    def test_from_ratings_rejects_wrong_product(self):
        with pytest.raises(ValidationError):
            RatingStream.from_ratings(
                "p", [Rating(time=0.0, rater_id="u", product_id="q", value=1.0)]
            )

    def test_empty_stream(self):
        stream = RatingStream.empty("p")
        assert len(stream) == 0
        with pytest.raises(EmptyDataError):
            stream.time_span()
        with pytest.raises(EmptyDataError):
            stream.mean_value()


class TestRatingStreamViews:
    def test_subset(self):
        stream = make_stream(n=4)
        sub = stream.subset(np.array([True, False, True, False]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.times, [0.0, 2.0])

    def test_subset_wrong_length(self):
        with pytest.raises(ValidationError):
            make_stream(n=3).subset(np.array([True]))

    def test_fair_unfair_split(self):
        stream = make_stream(n=6, unfair_every=2)  # indices 0,2,4 unfair
        assert len(stream.unfair_only()) == 3
        assert len(stream.fair_only()) == 3
        assert not stream.fair_only().unfair.any()
        assert stream.unfair_only().unfair.all()

    def test_between(self):
        stream = make_stream(n=10)
        window = stream.between(2.0, 5.0)
        np.testing.assert_array_equal(window.times, [2.0, 3.0, 4.0])

    def test_merge(self):
        a = make_stream(n=3)
        b = RatingStream("p1", [0.5, 1.5], [1.0, 1.0], ["x", "y"], [True, True])
        merged = a.merge(b)
        assert len(merged) == 5
        assert merged.unfair.sum() == 2
        assert np.all(np.diff(merged.times) >= 0)

    def test_merge_wrong_product_rejected(self):
        with pytest.raises(ValidationError):
            make_stream("p1").merge(make_stream("p2"))

    @pytest.mark.parametrize(
        "base_rows, added_rows",
        [
            # Ties with the receiver's times (the receiver's rows first).
            ([(1.0, 4.0, "a"), (2.0, 3.0, "b"), (2.0, 5.0, "a\x00")],
             [(2.0, 1.0, "x"), (0.5, 2.0, "a"), (9.0, 0.0, "x\x00")]),
            # Empty receiver, empty extra, both empty.
            ([], [(3.0, 1.0, "x"), (1.0, 2.0, "y\x00")]),
            ([(1.0, 4.0, "a\x00"), (1.0, 3.0, "a")], []),
            ([], []),
        ],
    )
    def test_merge_equals_stream_over_concatenated_columns(
        self, base_rows, added_rows
    ):
        def stream(rows, unfair):
            times, values, raters = zip(*rows) if rows else ((), (), ())
            return RatingStream("p", times, values, raters, [unfair] * len(rows))

        base, extra = stream(base_rows, False), stream(added_rows, True)
        merged = base.merge(extra)
        reference = RatingStream(
            "p",
            np.concatenate([base.times, extra.times]),
            np.concatenate([base.values, extra.values]),
            base.rater_ids + extra.rater_ids,
            np.concatenate([base.unfair, extra.unfair]),
        )
        for column in ("times", "values", "unfair"):
            assert np.array_equal(getattr(merged, column), getattr(reference, column))
            assert not getattr(merged, column).flags.writeable
        assert merged.rater_ids == reference.rater_ids
        assert merged.fingerprint == reference.fingerprint
        # Lineage: the receiver's fingerprint and where the added rows
        # landed; the other rows are the receiver's, in order.
        fingerprint, added = merged.lineage
        assert fingerprint == base.fingerprint
        assert not added.flags.writeable
        assert np.array_equal(merged.unfair, np.isin(np.arange(len(merged)), added))
        assert np.array_equal(merged.times[added], extra.times)
        kept = np.setdiff1d(np.arange(len(merged)), added)
        assert [merged.rater_ids[i] for i in kept] == list(base.rater_ids)

    def test_only_merge_records_lineage(self):
        stream = make_stream(n=6)
        assert stream.lineage is None
        assert stream.subset(np.arange(6) % 2 == 0).lineage is None
        assert stream.between(1.0, 4.0).lineage is None
        assert stream.fair_only().lineage is None
        assert stream.merge(make_stream(n=2)).merge(make_stream(n=1)).lineage[0] == (
            stream.merge(make_stream(n=2)).fingerprint
        )

    def test_head_is_the_earliest_rows(self):
        stream = make_stream(n=6, unfair_every=2)
        head = stream.head(4)
        reference = stream.between(-1.0, 4.0)
        assert np.array_equal(head.times, reference.times)
        assert np.array_equal(head.values, reference.values)
        assert np.array_equal(head.unfair, reference.unfair)
        assert head.rater_ids == reference.rater_ids
        assert head.lineage is None
        assert len(stream.head(0)) == 0

    def test_daily_counts(self):
        stream = RatingStream("p", [0.1, 0.9, 1.5, 3.2], [1, 2, 3, 4], list("abcd"))
        days, counts = stream.daily_counts()
        np.testing.assert_array_equal(days, [0, 1, 2, 3])
        np.testing.assert_array_equal(counts, [2, 1, 0, 1])

    def test_daily_counts_with_explicit_span(self):
        stream = RatingStream("p", [1.5], [1.0], ["a"])
        days, counts = stream.daily_counts(start_day=0.0, end_day=4.0)
        np.testing.assert_array_equal(days, [0, 1, 2, 3])
        assert counts.sum() == 1

    def test_daily_counts_empty(self):
        days, counts = RatingStream.empty("p").daily_counts()
        assert days.size == 0 and counts.size == 0

    def test_rating_at(self):
        stream = make_stream(n=3)
        rating = stream.rating_at(1)
        assert rating.product_id == "p1"
        assert rating.time == 1.0


class TestRatingDataset:
    def make_dataset(self):
        return RatingDataset([make_stream("a", 3), make_stream("b", 4)])

    def test_mapping_protocol(self):
        ds = self.make_dataset()
        assert len(ds) == 2
        assert "a" in ds and "c" not in ds
        assert ds["b"].product_id == "b"
        assert ds.product_ids == ("a", "b")

    def test_duplicate_product_rejected(self):
        with pytest.raises(ValidationError):
            RatingDataset([make_stream("a"), make_stream("a")])

    def test_total_ratings(self):
        assert self.make_dataset().total_ratings() == 7

    def test_merge_adds_and_combines(self):
        ds = self.make_dataset()
        extra = {
            "a": RatingStream("a", [10.0], [1.0], ["z"], [True]),
            "c": make_stream("c", 2),
        }
        merged = ds.merge(extra)
        assert len(merged) == 3
        assert len(merged["a"]) == 4
        # original untouched
        assert len(ds["a"]) == 3

    def test_fair_only(self):
        ds = RatingDataset([make_stream("a", 6, unfair_every=2)])
        assert ds.fair_only().total_ratings() == 3

    def test_rater_ids_sorted_unique(self):
        ds = self.make_dataset()
        assert ds.rater_ids() == ("u0", "u1", "u2", "u3")

    def test_map_streams(self):
        ds = self.make_dataset()
        halved = ds.map_streams(lambda s: s.between(0.0, 2.0))
        assert halved.total_ratings() == 4


def decoded(dataset):
    raters, codes = dataset.rater_codes
    return {pid: tuple(raters[c] for c in codes[pid]) for pid in dataset}


class TestRaterCodes:
    def test_stream_codes_in_first_sighting_order(self):
        # "a\x00" and "a" are distinct ids (a numpy U array would tie them).
        stream = RatingStream(
            "p", [3.0, 1.0, 2.0, 2.0], [1, 2, 3, 4], ["b", "a\x00", "a", "b"]
        )
        raters, codes = stream.rater_codes
        assert raters == ("a\x00", "a", "b")
        assert codes.tolist() == [0, 1, 2, 2]
        assert not codes.flags.writeable
        assert stream.rater_codes is stream.rater_codes

    def test_dataset_codes_decode_to_rater_ids(self):
        p = RatingStream("p", [1.0, 2.0, 2.0], [1, 2, 3], ["a", "b", "a\x00"])
        q = RatingStream("q", [0.5, 2.0], [1, 2], ["c", "a"])
        dataset = RatingDataset([p, RatingStream.empty("e"), q])
        raters, codes = dataset.rater_codes
        assert raters == ("a", "b", "a\x00", "c")
        assert decoded(dataset) == {pid: dataset[pid].rater_ids for pid in dataset}

    @pytest.mark.parametrize("code_receiver_first", [True, False])
    def test_merged_dataset_codes_decode_to_rater_ids(self, code_receiver_first):
        fair = RatingDataset(
            [
                RatingStream("p", [1.0, 2.0, 2.0, 5.0], [1, 2, 3, 4], ["a", "b", "a", "c"]),
                RatingStream("q", [0.5, 2.0], [1, 2], ["c", "a"]),
                RatingStream.empty("e"),
            ]
        )
        if code_receiver_first:
            fair.rater_codes
        # Ties with the receiver's times, a new rater, an id already known,
        # an empty stream merged in, and a product only the extra has.
        extra = {
            "p": RatingStream("p", [2.0, 0.0, 5.0], [0, 0, 0], ["x", "a", "x"]),
            "e": RatingStream.empty("e"),
            "z": RatingStream("z", [1.0], [3], ["y"]),
        }
        merged = fair.merge(extra)
        assert decoded(merged) == {pid: merged[pid].rater_ids for pid in merged}
        assert merged.rater_codes[0] == ("a", "b", "c", "x", "y")
        assert decoded(fair) == {pid: fair[pid].rater_ids for pid in fair}

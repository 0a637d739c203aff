"""Property-based tests for core data structures and metrics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from tests.reference import shrink_to_bounds

from repro.aggregation.weighted import trust_weighted_average
from repro.trust.beta import beta_trust_value
from repro.types import RatingStream

times_arrays = arrays(
    np.float64,
    st.integers(0, 50),
    elements=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
)
value_arrays = arrays(
    np.float64,
    st.integers(1, 50),
    elements=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)


def build_stream(times, prefix="u"):
    values = np.linspace(0.0, 5.0, times.size)
    raters = [f"{prefix}{i}" for i in range(times.size)]
    return RatingStream("p", times, values, raters)


def sorted_merge(base, tail):
    """``base.merge(tail)``'s columns and added rows by one stable argsort
    of the concatenated columns, whether or not ``tail`` appends."""
    times = np.concatenate([base.times, tail.times])
    order = np.argsort(times, kind="stable")
    rater_ids = base.rater_ids + tail.rater_ids
    return (
        times[order],
        np.concatenate([base.values, tail.values])[order],
        tuple(rater_ids[i] for i in order),
        np.concatenate([base.unfair, tail.unfair])[order],
        np.flatnonzero(order >= len(base)),
    )


@st.composite
def tails(draw):
    """A receiver and rows to merge in, which mostly append: the tail
    starts at the receiver's last time (a tie at the boundary) or later,
    and otherwise earlier, often ending later.  Either may be empty.  Times sit on a
    half-day grid, so rows also tie within each side; rater ids differ
    by trailing NULs."""
    half_days = st.integers(0, 20).map(lambda v: v / 2.0)
    ids = st.sampled_from(["a", "a\x00", "b"])
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 8))
    base_times = sorted(draw(st.lists(half_days, min_size=n, max_size=n)))
    start = (base_times[-1] if base_times else 0.0) + draw(
        st.sampled_from([0.0, 0.0, 0.5, 4.0, -0.5, -2.0])
    )
    tail_times = [start + t for t in draw(st.lists(half_days, min_size=m, max_size=m))]
    values = st.sampled_from([1.0, 4.0, 4.5])
    base = RatingStream(
        "p", base_times, draw(st.lists(values, min_size=n, max_size=n)),
        draw(st.lists(ids, min_size=n, max_size=n)),
    )
    tail = RatingStream(
        "p", tail_times, draw(st.lists(values, min_size=m, max_size=m)),
        draw(st.lists(ids, min_size=m, max_size=m)), [True] * m,
    )
    return base, tail


class TestStreamProperties:
    @given(times_arrays)
    def test_times_sorted_after_construction(self, times):
        stream = build_stream(times)
        assert np.all(np.diff(stream.times) >= 0)

    @given(times_arrays, times_arrays)
    def test_merge_preserves_counts(self, t1, t2):
        merged = build_stream(t1, "a").merge(build_stream(t2, "b"))
        assert len(merged) == t1.size + t2.size
        assert np.all(np.diff(merged.times) >= 0)

    @given(times_arrays)
    def test_merge_value_multiset_preserved(self, times):
        a = build_stream(times, "a")
        b = build_stream(times, "b")
        merged = a.merge(b)
        np.testing.assert_allclose(
            np.sort(merged.values),
            np.sort(np.concatenate([a.values, b.values])),
        )

    @given(tails())
    @settings(max_examples=200)
    def test_merge_equals_the_sorting_path(self, parts):
        base, tail = parts
        merged = base.merge(tail)
        times, values, rater_ids, unfair, added = sorted_merge(base, tail)
        assert np.array_equal(merged.times, times)
        assert np.array_equal(merged.values, values)
        assert np.array_equal(merged.unfair, unfair)
        assert merged.rater_ids == rater_ids
        for column in (merged.times, merged.values, merged.unfair):
            assert not column.flags.writeable
        fingerprint, merged_added = merged.lineage
        assert fingerprint == base.fingerprint
        assert np.array_equal(merged_added, added)
        assert merged_added.dtype == added.dtype
        assert not merged_added.flags.writeable
        assert merged.fingerprint == RatingStream(
            "p", times, values, rater_ids, unfair
        ).fingerprint

    @given(times_arrays, st.floats(0.0, 500.0), st.floats(0.0, 500.0))
    def test_between_subset_of_range(self, times, a, b):
        lo, hi = min(a, b), max(a, b)
        window = build_stream(times).between(lo, hi)
        if len(window):
            assert window.times.min() >= lo
            assert window.times.max() < hi

    @given(times_arrays)
    def test_daily_counts_sum_to_length(self, times):
        stream = build_stream(times)
        _days, counts = stream.daily_counts()
        assert counts.sum() == len(stream)


class TestBetaTrustProperties:
    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_bounded_in_open_unit_interval(self, s, f):
        assert 0.0 < beta_trust_value(s, f) < 1.0

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_monotone_in_successes(self, s, f):
        assert beta_trust_value(s + 1, f) > beta_trust_value(s, f)

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_monotone_in_failures(self, s, f):
        assert beta_trust_value(s, f + 1) < beta_trust_value(s, f)

    @given(st.integers(0, 500))
    def test_symmetric_evidence_is_half(self, n):
        assert beta_trust_value(n, n) == 0.5


class TestTrustWeightedAverageProperties:
    @given(
        value_arrays,
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_uniform_trust_equals_mean(self, values, trust):
        trusts = np.full(values.size, trust)
        result = trust_weighted_average(values, trusts)
        assert np.isclose(result, values.mean(), rtol=1e-9, atol=1e-9)

    @given(value_arrays)
    def test_result_within_value_range(self, values):
        rng = np.random.default_rng(0)
        trusts = rng.uniform(0.0, 1.0, values.size)
        result = trust_weighted_average(values, trusts)
        assert values.min() - 1e-9 <= result <= values.max() + 1e-9

    @given(value_arrays)
    @settings(max_examples=50)
    def test_distrusted_rater_has_no_influence(self, values):
        trusts = np.full(values.size, 0.9)
        base = trust_weighted_average(values, trusts)
        poisoned_values = np.concatenate([values, [0.0]])
        poisoned_trusts = np.concatenate([trusts, [0.3]])
        assert np.isclose(
            trust_weighted_average(poisoned_values, poisoned_trusts), base
        )


class TestWindowProperties:
    @given(st.integers(0, 200), st.integers(1, 50), st.integers(0, 250))
    def test_shrink_always_inside_bounds(self, n, half, center):
        start, stop = shrink_to_bounds(center, half, n)
        assert 0 <= start <= stop <= n
        if stop > start:
            assert start <= center <= stop
            assert center - start == stop - center  # symmetric
            assert center - start <= half

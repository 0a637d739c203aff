"""Core data model: rating records, per-product rating streams, datasets.

The whole library works over three small types:

- :class:`Rating` -- one rating event: *who* rated *what*, *when*, with what
  *value*, plus a ground-truth ``unfair`` flag (known in simulations, which
  is exactly the point of the paper's rating challenge: collect unfair
  ratings *with* ground truth).
- :class:`RatingStream` -- all ratings for a single product, sorted by time,
  stored columnar (numpy arrays) because the detectors are windowed
  numerical algorithms.
- :class:`RatingDataset` -- a mapping of product id to stream, with helpers
  to merge attack ratings into fair ratings.

Times are measured in **days** (floats) since the start of the observation
period; the paper's challenge ran for roughly 82 days and computes its MP
metric over 30-day months.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EmptyDataError, ValidationError

__all__ = [
    "RatingScale",
    "DEFAULT_SCALE",
    "Rating",
    "RatingStream",
    "RatingDataset",
]


@dataclass(frozen=True)
class RatingScale:
    """The closed interval of admissible rating values.

    The paper's data uses a 0..5 scale with fair means around 4; other
    deployments (e.g. 1..5 stars) are supported by constructing a different
    scale and passing it where relevant.
    """

    minimum: float = 0.0
    maximum: float = 5.0

    def __post_init__(self) -> None:
        if not self.minimum < self.maximum:
            raise ValidationError(
                f"rating scale requires minimum < maximum, got [{self.minimum}, {self.maximum}]"
            )

    @property
    def width(self) -> float:
        """Length of the scale interval."""
        return self.maximum - self.minimum

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies on the scale (inclusive)."""
        return self.minimum <= value <= self.maximum

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Clip an array of values onto the scale."""
        return np.clip(np.asarray(values, dtype=float), self.minimum, self.maximum)


DEFAULT_SCALE = RatingScale(0.0, 5.0)


@dataclass(frozen=True, order=True)
class Rating:
    """A single rating event.

    Ordering is by ``(time, rater_id, product_id, value)`` so sorting a list
    of ratings yields a deterministic chronological order.
    """

    time: float
    rater_id: str = field(compare=True)
    product_id: str = field(compare=True)
    value: float = field(compare=True)
    unfair: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise ValidationError(f"rating time must be finite, got {self.time!r}")
        if not math.isfinite(self.value):
            raise ValidationError(f"rating value must be finite, got {self.value!r}")


def _first_sighting(ids: Iterable[str]) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """Distinct ``ids`` in first-sighting order, and the index of each.

    Built with Python dicts, never a numpy ``U`` array: those drop
    trailing NULs, so ``"a\\x00"`` would tie with ``"a"``.
    """
    raters = tuple(dict.fromkeys(ids))
    return raters, dict(zip(raters, range(len(raters))))


#: A dataset's rater codes: ``(raters, codes by product, index of raters)``.
_Codes = Tuple[Tuple[str, ...], Dict[str, np.ndarray], Dict[str, int]]


def _lookup(index: Dict[str, int], ids: Sequence[str]) -> np.ndarray:
    """``index[i]`` for every id of ``ids``, as an int array."""
    return np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids))


class RatingStream:
    """All ratings for one product, sorted by time, stored columnar.

    Attributes
    ----------
    product_id:
        The rated product.
    times:
        Float array of rating times in days, non-decreasing.
    values:
        Float array of rating values, same length.
    rater_ids:
        Tuple of rater id strings, same length.
    unfair:
        Boolean ground-truth array, same length.  ``True`` marks ratings
        injected by an attack (known only in simulation).
    lineage:
        ``(base fingerprint, added)`` for a stream built by :meth:`merge`:
        the receiver's :attr:`fingerprint` and the write-protected,
        increasing positions of the merged-in rows.  ``None`` for every
        other stream.  Only the base's fingerprint is kept, so a chain of
        merges never keeps old streams alive.
    """

    __slots__ = (
        "product_id", "times", "values", "rater_ids", "unfair", "lineage",
        "_codes", "_key",
    )

    def __init__(
        self,
        product_id: str,
        times: Sequence[float],
        values: Sequence[float],
        rater_ids: Sequence[str],
        unfair: Optional[Sequence[bool]] = None,
    ) -> None:
        times_arr = np.asarray(times, dtype=float)
        values_arr = np.asarray(values, dtype=float)
        raters = tuple(str(r) for r in rater_ids)
        if unfair is None:
            unfair_arr = np.zeros(times_arr.size, dtype=bool)
        else:
            unfair_arr = np.asarray(unfair, dtype=bool)
        n = times_arr.size
        if not (values_arr.size == n and len(raters) == n and unfair_arr.size == n):
            raise ValidationError(
                "times, values, rater_ids and unfair must have equal lengths; got "
                f"{times_arr.size}, {values_arr.size}, {len(raters)}, {unfair_arr.size}"
            )
        if n and not np.all(np.isfinite(times_arr)):
            raise ValidationError("rating times must be finite")
        if n and not np.all(np.isfinite(values_arr)):
            raise ValidationError("rating values must be finite")
        order = np.argsort(times_arr, kind="stable")
        self._set(
            str(product_id),
            times_arr[order],
            values_arr[order],
            tuple(raters[i] for i in order),
            unfair_arr[order],
        )

    def _set(self, product_id, times, values, rater_ids, unfair) -> None:
        """Take valid, time-sorted columns as this stream's own."""
        self.product_id = product_id
        self.times = times
        self.values = values
        self.rater_ids = rater_ids
        self.unfair = unfair
        # Freeze the arrays: streams are treated as immutable snapshots.
        for column in (times, values, unfair):
            column.setflags(write=False)
        self.lineage: Optional[Tuple[Tuple, np.ndarray]] = None
        self._codes: Optional[Tuple[Tuple[str, ...], np.ndarray]] = None
        self._key: Optional[Tuple] = None

    @classmethod
    def _sorted(cls, product_id, times, values, rater_ids, unfair) -> "RatingStream":
        """A stream over columns that are already valid and time-sorted,
        taken as they are (no copy, no check)."""
        stream = cls.__new__(cls)
        stream._set(product_id, times, values, rater_ids, unfair)
        return stream

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_ratings(cls, product_id: str, ratings: Iterable[Rating]) -> "RatingStream":
        """Build a stream from :class:`Rating` records for one product.

        Ratings whose ``product_id`` differs from ``product_id`` raise
        :class:`~repro.errors.ValidationError` -- mixing products in one
        stream is always a bug.
        """
        times: List[float] = []
        values: List[float] = []
        raters: List[str] = []
        unfair: List[bool] = []
        for rating in ratings:
            if rating.product_id != product_id:
                raise ValidationError(
                    f"rating for product {rating.product_id!r} cannot join "
                    f"stream of product {product_id!r}"
                )
            times.append(rating.time)
            values.append(rating.value)
            raters.append(rating.rater_id)
            unfair.append(rating.unfair)
        return cls(product_id, times, values, raters, unfair)

    @classmethod
    def empty(cls, product_id: str) -> "RatingStream":
        """An empty stream for ``product_id``."""
        return cls(product_id, [], [], [], [])

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self) -> Iterator[Rating]:
        columns = zip(
            self.times.tolist(),
            self.rater_ids,
            self.values.tolist(),
            self.unfair.tolist(),
        )
        for time, rater_id, value, unfair in columns:
            yield Rating(time, rater_id, self.product_id, value, unfair)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RatingStream(product_id={self.product_id!r}, n={len(self)}, "
            f"unfair={int(self.unfair.sum())})"
        )

    @property
    def fingerprint(self) -> Tuple:
        """A cheap, content-based cache key, computed once.

        Streams are immutable snapshots (their arrays are write-protected),
        so hashing the raw bytes of times and values identifies the data
        reliably.  Rater identities matter to trust-based schemes, so they
        are included.
        """
        if self._key is None:
            self._key = (
                self.product_id,
                len(self),
                hash(self.times.tobytes()),
                hash(self.values.tobytes()),
                hash(self.rater_ids),
            )
        return self._key

    @property
    def rater_codes(self) -> Tuple[Tuple[str, ...], np.ndarray]:
        """``(raters, codes)``: the distinct rater ids in first-sighting
        order, and one write-protected int code per rating such that
        ``raters[codes[i]] == rater_ids[i]``.

        Computed on first use and kept: streams are immutable, and the
        fair streams are shared by every attacked dataset of a sweep.
        """
        if self._codes is None:
            raters, index = _first_sighting(self.rater_ids)
            codes = _lookup(index, self.rater_ids)
            codes.setflags(write=False)
            self._codes = raters, codes
        return self._codes

    def rating_at(self, index: int) -> Rating:
        """The :class:`Rating` record at positional ``index``."""
        return Rating(
            time=float(self.times[index]),
            rater_id=self.rater_ids[index],
            product_id=self.product_id,
            value=float(self.values[index]),
            unfair=bool(self.unfair[index]),
        )

    # ------------------------------------------------------------------ #
    # Views and derived data
    # ------------------------------------------------------------------ #

    def subset(self, mask: np.ndarray) -> "RatingStream":
        """A new stream containing only the rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.size != len(self):
            raise ValidationError(
                f"mask length {mask.size} does not match stream length {len(self)}"
            )
        raters = tuple(r for r, keep in zip(self.rater_ids, mask) if keep)
        return RatingStream(
            self.product_id, self.times[mask], self.values[mask], raters, self.unfair[mask]
        )

    def head(self, count: int) -> "RatingStream":
        """The first ``count`` ratings, unchecked (they are valid and sorted)."""
        columns = (self.times, self.values, self.rater_ids, self.unfair)
        return RatingStream._sorted(self.product_id, *(c[:count] for c in columns))

    def fair_only(self) -> "RatingStream":
        """The sub-stream of ground-truth fair ratings."""
        return self.subset(~self.unfair)

    def unfair_only(self) -> "RatingStream":
        """The sub-stream of ground-truth unfair ratings."""
        return self.subset(self.unfair)

    def between(self, start: float, stop: float) -> "RatingStream":
        """Ratings with ``start <= time < stop``."""
        mask = (self.times >= start) & (self.times < stop)
        return self.subset(mask)

    def merge(self, other: "RatingStream") -> "RatingStream":
        """A new stream with both streams' ratings, time-sorted.

        This is how attack ratings are injected into fair data, and how
        an online snapshot grows.  Both streams are valid and sorted
        already, so nothing is re-checked: one stable argsort of the
        concatenated times (ties keep this stream's rows first, as
        ``RatingStream(...)`` over the concatenated columns would) gathers
        every column, and the same order gives the :attr:`lineage`.
        """
        if other.product_id != self.product_id:
            raise ValidationError(
                f"cannot merge stream for {other.product_id!r} into {self.product_id!r}"
            )
        times = np.concatenate([self.times, other.times])
        order = np.argsort(times, kind="stable")
        raters = self.rater_ids + other.rater_ids
        if len(raters) > 1:
            # One C-level gather (an itemgetter of two or more indices
            # returns a tuple).
            raters = itemgetter(*order.tolist())(raters)
        merged = RatingStream._sorted(
            self.product_id,
            times[order],
            np.concatenate([self.values, other.values])[order],
            raters,
            np.concatenate([self.unfair, other.unfair])[order],
        )
        added = np.flatnonzero(order >= len(self))
        added.setflags(write=False)
        merged.lineage = (self.fingerprint, added)
        return merged

    def time_span(self) -> Tuple[float, float]:
        """``(first, last)`` rating times.  Raises on an empty stream."""
        if len(self) == 0:
            raise EmptyDataError(f"stream for {self.product_id!r} is empty")
        return float(self.times[0]), float(self.times[-1])

    def daily_counts(
        self, start_day: Optional[float] = None, end_day: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Number of ratings received per whole day.

        Returns ``(days, counts)`` where ``days`` are integer day indices
        covering ``[floor(start), ceil(end))`` and ``counts[i]`` is the
        number of ratings with ``days[i] <= time < days[i] + 1``.  This is
        the ``y(n)`` series consumed by the arrival-rate change detector.
        """
        if len(self) == 0:
            return np.array([], dtype=int), np.array([], dtype=int)
        lo = float(np.floor(self.times[0] if start_day is None else start_day))
        hi = float(np.ceil(self.times[-1] + 1e-9 if end_day is None else end_day))
        if hi <= lo:
            hi = lo + 1.0
        days = np.arange(int(lo), int(hi), dtype=int)
        edges = np.arange(int(lo), int(hi) + 1, dtype=float)
        counts, _ = np.histogram(self.times, bins=edges)
        return days, counts.astype(int)

    def mean_value(self) -> float:
        """Arithmetic mean of the rating values.  Raises on empty streams."""
        if len(self) == 0:
            raise EmptyDataError(f"stream for {self.product_id!r} is empty")
        return float(self.values.mean())


class RatingDataset:
    """A collection of per-product rating streams.

    The dataset is the unit the challenge, the attack generator, and the
    aggregation schemes operate on.  It behaves like a read-only mapping
    ``product_id -> RatingStream``.
    """

    __slots__ = ("_streams", "_codes", "_parts")

    def __init__(self, streams: Iterable[RatingStream]) -> None:
        mapping: Dict[str, RatingStream] = {}
        for stream in streams:
            if stream.product_id in mapping:
                raise ValidationError(
                    f"duplicate stream for product {stream.product_id!r}; "
                    "merge the streams before building the dataset"
                )
            mapping[stream.product_id] = stream
        self._streams = mapping
        self._codes: Optional[_Codes] = None
        # Set by merge(): (receiver, [(receiver stream or None, extra
        # stream or None)] per product), from which the codes derive.
        self._parts: Optional[Tuple["RatingDataset", List[tuple]]] = None

    # Mapping-style protocol ------------------------------------------- #

    def __getitem__(self, product_id: str) -> RatingStream:
        return self._streams[product_id]

    def __contains__(self, product_id: str) -> bool:
        return product_id in self._streams

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(s) for s in self._streams.values())
        return f"RatingDataset(products={len(self)}, ratings={total})"

    @property
    def product_ids(self) -> Tuple[str, ...]:
        """Product ids in insertion order."""
        return tuple(self._streams)

    def streams(self) -> Tuple[RatingStream, ...]:
        """All streams in insertion order."""
        return tuple(self._streams.values())

    def total_ratings(self) -> int:
        """Total rating count across all products."""
        return sum(len(s) for s in self._streams.values())

    @property
    def rater_codes(self) -> Tuple[Tuple[str, ...], Dict[str, np.ndarray]]:
        """``(raters, codes)``: every rater id of the dataset once, and per
        product one int code per rating such that
        ``raters[codes[p][i]] == self[p].rater_ids[i]``.

        Code by these only; the order of ``raters`` is deterministic but
        carries no meaning.  A dataset built from streams merges the
        streams' own :attr:`RatingStream.rater_codes` (first sighting by
        product, then position), so only streams new to the process pay
        for coding their ids.  A dataset built by :meth:`merge` extends
        its receiver's codes instead: the receiver's raters come first,
        and only the merged-in ratings' ids are looked up.  Computed on
        first use and kept.
        """
        return self._coded()[:2]

    def _coded(self) -> _Codes:
        if self._codes is None:
            if self._parts is None:
                self._codes = self._code_streams()
            else:
                self._codes = self._code_merge(*self._parts)
                self._parts = None
        return self._codes

    def _code_streams(self) -> _Codes:
        stream_codes = [s.rater_codes for s in self._streams.values()]
        raters, index = _first_sighting(
            chain.from_iterable(ids for ids, _ in stream_codes)
        )
        codes = {}
        for product_id, (ids, local) in zip(self._streams, stream_codes):
            codes[product_id] = _lookup(index, ids)[local]
            codes[product_id].setflags(write=False)
        return raters, codes, index

    def _code_merge(self, receiver: "RatingDataset", parts: List[tuple]) -> _Codes:
        _, base_codes, index = receiver._coded()
        index = dict(index)
        for _, extra in parts:
            if extra is not None:
                for rater_id in extra.rater_codes[0]:
                    index.setdefault(rater_id, len(index))
        codes = {}
        for stream, (base, extra) in zip(self._streams.values(), parts):
            product_id = stream.product_id
            if extra is None:
                codes[product_id] = base_codes[base.product_id]
                continue
            ids, local = extra.rater_codes
            merged = _lookup(index, ids)[local]
            if base is not None:
                # The merged rows sit at the stream's lineage positions,
                # the receiver's rows everywhere else, each in order.
                added = stream.lineage[1]
                kept = np.ones(len(stream), dtype=bool)
                kept[added] = False
                placed = np.empty(len(stream), dtype=np.intp)
                placed[kept] = base_codes[base.product_id]
                placed[added] = merged
                merged = placed
            merged.setflags(write=False)
            codes[product_id] = merged
        return tuple(index), codes, index

    # Derived datasets -------------------------------------------------- #

    def merge(self, extra: Mapping[str, RatingStream]) -> "RatingDataset":
        """A new dataset with ``extra`` streams merged product-wise.

        Products present only in ``extra`` are added; products present in
        both are merged.  The receiver is unchanged.
        """
        merged: List[RatingStream] = []
        parts: List[tuple] = []
        for product_id, stream in self._streams.items():
            if product_id in extra:
                merged.append(stream.merge(extra[product_id]))
                parts.append((stream, extra[product_id]))
            else:
                merged.append(stream)
                parts.append((stream, None))
        for product_id, stream in extra.items():
            if product_id not in self._streams:
                merged.append(stream)
                parts.append((None, stream))
        dataset = RatingDataset(merged)
        dataset._parts = (self, parts)
        return dataset

    def fair_only(self) -> "RatingDataset":
        """Dataset with all ground-truth unfair ratings removed."""
        return RatingDataset([s.fair_only() for s in self._streams.values()])

    def map_streams(self, func) -> "RatingDataset":
        """Dataset built by applying ``func`` to each stream."""
        return RatingDataset([func(s) for s in self._streams.values()])

    def rater_ids(self) -> Tuple[str, ...]:
        """Sorted unique rater ids across all products."""
        seen = set()
        for stream in self._streams.values():
            seen.update(stream.rater_ids)
        return tuple(sorted(seen))

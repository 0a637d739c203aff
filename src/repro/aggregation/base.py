"""Aggregation scheme interface and shared window plumbing."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

import numpy as np

from repro.marketplace.mp import month_edges
from repro.types import RatingDataset

__all__ = ["month_windows", "window_cuts", "AggregationScheme"]


def month_windows(
    start_day: float, end_day: float, period_days: float = 30.0
) -> List[Tuple[float, float]]:
    """Half-open ``[start, stop)`` period windows covering the time span."""
    edges = month_edges(start_day, end_day, period_days)
    return [(float(edges[i]), float(edges[i + 1])) for i in range(edges.size - 1)]


def window_cuts(
    dataset: RatingDataset, period_days: float, start_day: float, end_day: float
) -> Dict[str, np.ndarray]:
    """Per product, the offsets that cut its stream into the period windows.

    Window ``w`` of product ``p`` is ``stream.values[cuts[p][w]:cuts[p][w + 1]]``.
    Streams are time-sorted, so the slice holds the same ratings in the same
    order as ``stream.between(*month_windows(...)[w])``, and its mean is the
    same to the bit.
    """
    edges = month_edges(start_day, end_day, period_days)
    return {pid: np.searchsorted(dataset[pid].times, edges) for pid in dataset}


def dataset_fingerprint(dataset: RatingDataset) -> Tuple:
    """A cheap, content-based cache key for a dataset.

    Streams are immutable snapshots (their arrays are write-protected), so
    hashing the raw bytes of times and values identifies the data reliably.
    Rater identities matter to trust-based schemes, so they are included.
    """
    parts = []
    for product_id in dataset:
        stream = dataset[product_id]
        parts.append(
            (
                product_id,
                len(stream),
                hash(stream.times.tobytes()),
                hash(stream.values.tobytes()),
                hash(stream.rater_ids),
            )
        )
    return tuple(parts)


class AggregationScheme(ABC):
    """Base class: turns a dataset into per-product monthly score series.

    Subclasses must set :attr:`name` and implement
    :meth:`monthly_scores`.  Scores use NaN for months with no publishable
    value (no ratings, or everything filtered); the MP metric treats those
    months as contributing zero manipulation.
    """

    name: str = "abstract"

    @abstractmethod
    def monthly_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, np.ndarray]:
        """Per-product arrays of one aggregated score per period."""

    # Convenience used by examples and tests ---------------------------- #

    def final_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, float]:
        """The last non-NaN monthly score per product (NaN if none)."""
        out: Dict[str, float] = {}
        for product_id, series in self.monthly_scores(
            dataset, period_days, start_day, end_day
        ).items():
            finite = series[np.isfinite(series)]
            out[product_id] = float(finite[-1]) if finite.size else float("nan")
        return out

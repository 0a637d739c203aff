"""Aggregation scheme interface, shared window plumbing and the scores cache."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.marketplace.mp import month_edges
from repro.obs.registry import MetricsRegistry, get_registry
from repro.types import RatingDataset

__all__ = [
    "month_windows",
    "window_cuts",
    "dataset_fingerprint",
    "AggregationScheme",
]


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
    """A cheap, content-based cache key for a dataset: its streams'
    :attr:`~repro.types.RatingStream.fingerprint`, in product order."""
    return tuple(dataset[pid].fingerprint for pid in dataset)


#: ``monthly_scores`` results each SA and BF instance keeps (FIFO); the
#: P-scheme keeps ``PSchemeConfig.cache_size``.
SCORES_CACHE_SIZE = 32


class AggregationScheme(ABC):
    """Base class: turns a dataset into per-product monthly score series.

    Subclasses must set :attr:`name` and :attr:`metric_prefix` and
    implement :meth:`monthly_scores`, normally as a call of
    :meth:`cached_scores`.  Scores use NaN for months with no publishable
    value (no ratings, or everything filtered); the MP metric treats those
    months as contributing zero manipulation.
    """

    name: str = "abstract"
    #: Counter namespace: ``<prefix>.scores_cache.{hits,misses,evictions}``.
    metric_prefix: str = "abstract"

    def __init__(self) -> None:
        self._registry: Optional[MetricsRegistry] = None
        self._scores_cache: "OrderedDict[tuple, Dict[str, np.ndarray]]" = OrderedDict()

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics sink in effect (injected, else the global one)."""
        return self._registry if self._registry is not None else get_registry()

    @abstractmethod
    def monthly_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, np.ndarray]:
        """Per-product arrays of one aggregated score per period."""

    def cached_scores(
        self,
        dataset: RatingDataset,
        period_days: float,
        start_day: float,
        end_day: float,
        compute: Callable[[], Dict[str, np.ndarray]],
        size: int = SCORES_CACHE_SIZE,
    ) -> Dict[str, np.ndarray]:
        """``compute()``, memoized by dataset content and window.

        The key is :func:`dataset_fingerprint` plus the window, so an
        equal dataset hits even as a new object: the MP metric scores the
        same fair world on every evaluation.  Each instance keeps its own
        first-in-first-out cache of ``size`` results (0 disables it), and
        stores and returns copies, so a caller that mutates its scores
        corrupts nothing.
        """
        registry = self.registry
        key = (
            dataset_fingerprint(dataset),
            float(period_days),
            float(start_day),
            float(end_day),
        )
        cache = self._scores_cache
        if size and key in cache:
            registry.inc(f"{self.metric_prefix}.scores_cache.hits")
            return {pid: series.copy() for pid, series in cache[key].items()}
        registry.inc(f"{self.metric_prefix}.scores_cache.misses")
        scores = compute()
        if size:
            cache[key] = {pid: series.copy() for pid, series in scores.items()}
            while len(cache) > size:
                cache.popitem(last=False)
                registry.inc(f"{self.metric_prefix}.scores_cache.evictions")
        return scores

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

"""SA-scheme: simple averaging, no unfair-rating detection.

The undefended baseline of Section V-A.  Against it, the optimal attack is
to submit the most extreme values allowed -- which is exactly what the
variance-bias analysis of Figure 3 shows (large-MP submissions sit at
large negative bias, any variance).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.aggregation.base import AggregationScheme, window_cuts
from repro.types import RatingDataset

__all__ = ["SimpleAveragingScheme"]


class SimpleAveragingScheme(AggregationScheme):
    """Monthly score = arithmetic mean of that month's ratings."""

    name = "SA"
    metric_prefix = "sa"

    def monthly_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, np.ndarray]:
        return self.cached_scores(
            dataset,
            period_days,
            start_day,
            end_day,
            lambda: self._scores(dataset, period_days, start_day, end_day),
        )

    def _scores(self, dataset, period_days, start_day, end_day):
        scores: Dict[str, np.ndarray] = {}
        for product_id, cuts in window_cuts(
            dataset, period_days, start_day, end_day
        ).items():
            values = dataset[product_id].values
            series = np.full(cuts.size - 1, np.nan)
            for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
                if hi > lo:
                    series[i] = values[lo:hi].mean()
            scores[product_id] = series
        return scores

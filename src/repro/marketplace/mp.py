"""The Manipulation Power (MP) metric.

Paper, Section III: for each product ``k`` the aggregated rating score is
computed for every 30-day period, with and without the unfair ratings:

    delta_i = | R_ag^o(t_i)  -  R_ag(t_i) |

and the product's MP is the sum of the two largest monthly deviations,
``delta_max1 + delta_max2``.  The submission's overall MP sums over
products.  The two-largest rule is what pushed smart challenge
participants to concentrate attacks into one or two months.

The metric is parametric in the *aggregation scheme*: any object with a
``monthly_scores(dataset, period_days, start_day, end_day)`` method that
returns ``{product_id: array of per-month scores}`` (NaN for months with
no published score).  All schemes in :mod:`repro.aggregation` satisfy it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.types import RatingDataset
from repro.utils.validation import check_positive

__all__ = ["MPResult", "monthly_deltas", "manipulation_power", "month_edges"]


def month_edges(
    start_day: float, end_day: float, period_days: float = 30.0
) -> np.ndarray:
    """Period boundary times covering ``[start_day, end_day)``.

    Returns ``[start, start + P, start + 2P, ...]`` with the last edge at
    or beyond ``end_day``; at least one full period is always produced.
    """
    period_days = check_positive(period_days, "period_days")
    if end_day <= start_day:
        raise ValidationError(
            f"end_day ({end_day}) must be after start_day ({start_day})"
        )
    n_periods = max(1, math.ceil((end_day - start_day) / period_days - 1e-9))
    return start_day + period_days * np.arange(n_periods + 1, dtype=float)


@dataclass(frozen=True)
class MPResult:
    """Outcome of scoring one attacked dataset against a scheme.

    Attributes
    ----------
    scheme_name:
        Name of the aggregation scheme used.
    deltas:
        ``{product_id: per-month |score difference| array}``.
    per_product:
        ``{product_id: delta_max1 + delta_max2}``.
    total:
        Overall MP (sum of ``per_product`` values).
    """

    scheme_name: str
    deltas: Dict[str, np.ndarray]
    per_product: Dict[str, float]
    total: float

    def top_months(self, product_id: str) -> Tuple[int, int]:
        """Indices of the two largest monthly deltas for ``product_id``.

        For single-month timelines the second index repeats the first.
        """
        arr = self.deltas[product_id]
        order = np.argsort(arr)[::-1]
        first = int(order[0])
        second = int(order[1]) if arr.size > 1 else first
        return first, second


def _nan_to_zero_abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a - b|`` treating months where either score is NaN as delta 0.

    A month with no published score (no ratings, or everything filtered)
    contributes no manipulation -- the attacker moved nothing visible.
    """
    diff = np.abs(a - b)
    diff[~np.isfinite(diff)] = 0.0
    return diff


def monthly_deltas(
    scheme,
    attacked: RatingDataset,
    fair: RatingDataset,
    period_days: float = 30.0,
    start_day: Optional[float] = None,
    end_day: Optional[float] = None,
) -> Dict[str, np.ndarray]:
    """Per-product per-month score deviations caused by the attack.

    ``start_day`` / ``end_day`` default to the fair dataset's overall time
    span, so the attack cannot shift the month grid.
    """
    if start_day is None or end_day is None:
        spans = [s.time_span() for s in fair.streams() if len(s)]
        if not spans:
            raise ValidationError("fair dataset has no ratings to infer a time span")
        inferred_start = min(lo for lo, _ in spans)
        inferred_end = max(hi for _, hi in spans) + 1e-9
        start_day = inferred_start if start_day is None else start_day
        end_day = inferred_end if end_day is None else end_day
    # Fair first: a scheme that detects finds the fair streams' curves
    # cached when it reaches the attacked streams merged from them.
    fair_scores = scheme.monthly_scores(fair, period_days, start_day, end_day)
    attacked_scores = scheme.monthly_scores(attacked, period_days, start_day, end_day)
    deltas: Dict[str, np.ndarray] = {}
    for product_id in fair.product_ids:
        deltas[product_id] = _nan_to_zero_abs_diff(
            attacked_scores[product_id], fair_scores[product_id]
        )
    return deltas


def manipulation_power(
    scheme,
    attacked: RatingDataset,
    fair: RatingDataset,
    period_days: float = 30.0,
    start_day: Optional[float] = None,
    end_day: Optional[float] = None,
) -> MPResult:
    """Full MP evaluation of ``attacked`` against ``fair`` under ``scheme``."""
    deltas = monthly_deltas(scheme, attacked, fair, period_days, start_day, end_day)
    per_product: Dict[str, float] = {}
    for product_id, arr in deltas.items():
        if arr.size == 0:
            per_product[product_id] = 0.0
            continue
        top = np.sort(arr)[::-1]
        first = float(top[0])
        second = float(top[1]) if top.size > 1 else 0.0
        per_product[product_id] = first + second
    return MPResult(
        scheme_name=getattr(scheme, "name", type(scheme).__name__),
        deltas=deltas,
        per_product=per_product,
        total=float(sum(per_product.values())),
    )

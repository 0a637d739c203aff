"""BF-scheme: beta-function based majority-rule filtering.

The representative majority-rule defense from Whitby, Jøsang and Indulska
("Filtering out unfair ratings in Bayesian reputation systems"), as used
for comparison in the paper's Section V-A:

1. Each rating ``r`` on the 0..5 scale is normalized to ``x = r / 5`` and
   viewed as beta evidence ``Beta(1 + x, 2 - x)`` held by its rater.
2. Within each monthly window, the majority opinion is the mean normalized
   value of the window's ratings.  A rating is filtered out when the
   majority opinion falls outside the ``[q, 1 - q]`` quantile range of
   that rating's individual beta distribution -- i.e. the rater's opinion
   is statistically incompatible with the majority.
3. Rater trust accumulates over months as ``(S_i + 1) / (S_i + F_i + 2)``
   where ``F_i`` counts the rater's filtered ratings (Section V-A).  The
   monthly score is the plain mean of the surviving ratings from raters
   whose trust has not collapsed below the exclusion threshold.

Two deliberate properties, matching the paper's findings about BF:

- The majority estimate is the **mean**, so a colluding block drags the
  majority toward itself and shields all but the most extreme unfair
  ratings.  This is exactly why the paper observes that BF "can only
  detect the unfair ratings with large bias and very small variance".
- Filtering is **single-pass** by default (``max_iterations=1``): the
  compatibility bounds are computed once from the initial majority.
  Iterating the filter lets a boosting block cascade -- each removal of a
  harsh-but-honest rating raises the majority, exposing the next honest
  rating -- which *amplifies* boost attacks instead of stopping them.

Step 2 is tested with the CDF instead of the quantile function: the
majority ``m`` lies below the ``q`` quantile of ``Beta(1 + x, 2 - x)``
exactly when ``I_m(1 + x, 2 - x) < q``, and above the ``1 - q`` quantile
exactly when ``I_m(1 + x, 2 - x) > 1 - q``, because the CDF is strictly
increasing.  :func:`evidence_cdf` computes it in numpy, so no scipy is
needed, and one call tests every rating of every window of a dataset.
The CDF is elementwise, so that call is made once per distinct (window,
normalized value) pair, and each rating takes its pair's result: a fair
month window holds at most eleven distinct values (the half stars), so
it costs at most eleven evaluations, not one per rating, with the same
bits.

Tolerance record: the CDF is within 1.5e-15 of ``scipy.special.betainc``
on 200K random points and on the rating grid (the tests bound it by
1e-13).  The scipy quantile bounds it replaced are not reproduced bit for
bit; only the keep/filter decisions must match.  Over the 251-submission
populations, the closest majority to its bound is 1.8e-7 away (seed
2008) and 2.7e-6 (seed 7), eight orders of magnitude above the error, so
no decision and no score changes: the scores were byte-identical to the
scipy implementation on both populations under three configurations.
``tests/unit/test_beta_filter_reference.py`` keeps that comparison, and
also compares the decisions on ratings far off the scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.aggregation.base import AggregationScheme, month_windows, window_cuts
from repro.errors import ValidationError
from repro.types import DEFAULT_SCALE, RatingDataset, RatingScale

__all__ = ["BetaFilterConfig", "BetaFilterScheme", "evidence_cdf"]

#: A continued fraction has converged once a step moves it by at most this.
_CF_EPS = float(np.finfo(float).eps)
#: Lentz's stand-in for a zero denominator.
_CF_TINY = 1e-300
#: Steps allowed per continued fraction; ratings on the scale need <= 11.
_CF_MAX_STEPS = 100


def _lentz_guard(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)


def evidence_cdf(majority: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``I_majority(1 + x, 2 - x)``: the CDF of each rating's beta evidence.

    Elementwise over broadcastable arrays of majorities and normalized
    ratings ``x``.  Below 0 the CDF is 0 and above 1 it is 1.  Outside
    ``-1 < x < 2`` (ratings far off the scale) the distribution is
    undefined and the result is NaN: no comparison with it holds, so such
    a rating is never filtered.

    The regularized incomplete beta ``I_y(a, b)`` is a continued fraction,
    evaluated by the modified Lentz method where it converges,
    ``y < (a + 1) / (a + b + 2)``; past that point
    ``I_m(a, b) = 1 - I_{1-m}(b, a)``.  Each element stops at its own
    convergence, so its value does not depend on the rest of the batch.
    Since ``a + b = 3``, the reflection formula gives
    ``B(1 + x, 2 - x) = pi x (1 - x) / (2 sin(pi x))``, which is
    symmetric under ``x -> 1 - x`` and ``1/2`` at ``x in {0, 1}``, so no
    gamma function is needed.
    """
    m, x = np.broadcast_arrays(np.asarray(majority, float), np.asarray(x, float))
    defined = np.abs(x - 0.5) < 1.5
    m, x = np.clip(m, 0.0, 1.0), np.where(defined, x, 0.5)
    t = np.minimum(x, 1.0 - x)
    beta_fn = (1.0 - t) / (2.0 * np.sinc(t))
    flip = m > (2.0 + x) / 5.0
    a = np.where(flip, 2.0 - x, 1.0 + x)
    b = np.where(flip, 1.0 + x, 2.0 - x)
    y = np.where(flip, 1.0 - m, m)
    c = np.ones_like(y)
    d = 1.0 / _lentz_guard(1.0 - 3.0 * y / (a + 1.0))
    fraction = d
    active = np.ones(y.shape, dtype=bool)
    for k in range(1, _CF_MAX_STEPS + 1):
        even = k * (b - k) * y / ((a + 2 * k - 1) * (a + 2 * k))
        odd = -(a + k) * (3.0 + k) * y / ((a + 2 * k) * (a + 2 * k + 1))
        for term in (even, odd):
            d = 1.0 / _lentz_guard(1.0 + term * d)
            c = _lentz_guard(1.0 + term / c)
            step = c * d
            fraction = np.where(active, fraction * step, fraction)
        active &= np.abs(step - 1.0) > _CF_EPS
        if not active.any():
            break
    cdf = y**a * (1.0 - y) ** b / (a * beta_fn) * fraction
    return np.where(defined, np.where(flip, 1.0 - cdf, cdf), np.nan)


@dataclass(frozen=True)
class BetaFilterConfig:
    """Tunables of the BF-scheme.

    Attributes
    ----------
    quantile:
        The ``q`` of the ``[q, 1 - q]`` compatibility interval.  Larger
        values filter more aggressively.
    max_iterations:
        Rounds of the remove-and-retest loop.  1 (default) computes the
        bounds once; see the module docstring for why iterating is risky.
    exclude_trust_threshold:
        Raters whose cumulative trust falls below this are excluded from
        aggregation even when their current rating survives the filter.
    scale:
        Rating scale used for normalisation.
    """

    quantile: float = 0.15
    max_iterations: int = 1
    exclude_trust_threshold: float = 0.25
    scale: RatingScale = field(default_factory=lambda: DEFAULT_SCALE)

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 0.5:
            raise ValidationError(
                f"quantile must be in (0, 0.5), got {self.quantile}"
            )
        if self.max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not 0.0 <= self.exclude_trust_threshold <= 1.0:
            raise ValidationError(
                "exclude_trust_threshold must be in [0, 1], got "
                f"{self.exclude_trust_threshold}"
            )


class BetaFilterScheme(AggregationScheme):
    """Majority-rule beta filtering with cumulative beta trust."""

    name = "BF"
    metric_prefix = "bf"

    def __init__(self, config: BetaFilterConfig = BetaFilterConfig()) -> None:
        super().__init__()
        self.config = config

    # ------------------------------------------------------------------ #

    def _normalize(self, values: np.ndarray) -> np.ndarray:
        scale = self.config.scale
        return (np.asarray(values, dtype=float) - scale.minimum) / scale.width

    def filter_window(self, values: np.ndarray) -> np.ndarray:
        """Return the keep-mask after majority filtering of one window.

        A window with a single rating is never filtered (there is no
        majority to conflict with).
        """
        x = self._normalize(values)
        return self._filter(x, np.array([0, x.size]))

    def _filter(self, x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Keep-mask of every window ``x[bounds[k]:bounds[k + 1]]`` at once.

        Each round takes each active window's majority, then tests every
        rating of those windows in one CDF call, made once per distinct
        (window, value) pair and spread back to the pair's ratings.  A
        window leaves the loop once a round finds nothing to remove, or
        would remove its last rating (a majority of zero is undefined):
        either way it has reached a fixed point.
        """
        sizes = np.diff(bounds)
        window_of = np.repeat(np.arange(sizes.size), sizes)
        order = np.lexsort((x, window_of))
        first = np.ones(x.size, dtype=bool)
        first[1:] = (window_of[order][1:] != window_of[order][:-1]) | (
            x[order][1:] != x[order][:-1]
        )
        pair_of = np.empty(x.size, dtype=np.intp)
        pair_of[order] = np.cumsum(first) - 1
        pair_window, pair_x = window_of[order[first]], x[order[first]]
        keep = np.ones(x.size, dtype=bool)
        active = sizes > 1
        q = self.config.quantile
        for _ in range(self.config.max_iterations):
            if not active.any():
                break
            majority = np.zeros(sizes.size)
            for k in np.flatnonzero(active):
                window = slice(bounds[k], bounds[k + 1])
                majority[k] = x[window][keep[window]].mean()
            # Ratings of settled windows get NaN, which no test flags.
            live = active[pair_window]
            cdf = np.full(pair_x.size, np.nan)
            cdf[live] = evidence_cdf(majority[pair_window[live]], pair_x[live])
            cdf = cdf[pair_of]
            incompatible = keep & ((cdf < q) | (cdf > 1.0 - q))
            n_out = np.bincount(window_of, incompatible, sizes.size)
            n_kept = np.bincount(window_of, keep, sizes.size)
            active &= (n_out > 0) & (n_kept > n_out)
            keep &= ~(incompatible & active[window_of])
        return keep

    # ------------------------------------------------------------------ #

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
        cuts = window_cuts(dataset, period_days, start_day, end_day)
        n_months = len(month_windows(start_day, end_day, period_days))
        n_products = len(cuts)
        raters, rater_codes = dataset.rater_codes
        # Lay every (month, product) window out month-major, so each
        # month's ratings are one slice: trust accumulates month by month
        # across ALL products (a rater filtered on one is distrusted on all).
        spans = [
            (dataset[pid].values, rater_codes[pid], cut[w], cut[w + 1])
            for w in range(n_months)
            for pid, cut in cuts.items()
        ]
        bounds = np.cumsum([0] + [hi - lo for _, _, lo, hi in spans])
        values = np.concatenate([np.empty(0)] + [v[lo:hi] for v, _, lo, hi in spans])
        codes = np.concatenate(
            [np.empty(0, np.intp)] + [c[lo:hi] for _, c, lo, hi in spans]
        )
        keep = self._filter(self._normalize(values), bounds)
        kept = np.zeros(len(raters), dtype=int)
        filtered = np.zeros(len(raters), dtype=int)
        scores = {pid: np.full(n_months, np.nan) for pid in cuts}
        for w in range(n_months):
            month = slice(bounds[w * n_products], bounds[(w + 1) * n_products])
            kept += np.bincount(codes[month][keep[month]], minlength=len(raters))
            filtered += np.bincount(codes[month][~keep[month]], minlength=len(raters))
            trust = (kept + 1) / (kept + filtered + 2)
            trusted = trust >= self.config.exclude_trust_threshold
            for i, pid in enumerate(cuts):
                k = w * n_products + i
                window = slice(bounds[k], bounds[k + 1])
                usable = keep[window] & trusted[codes[window]]
                if usable.any():
                    scores[pid][w] = values[window][usable].mean()
        return scores

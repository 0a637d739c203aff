"""Rating aggregation schemes.

The three defense configurations evaluated in the paper (Section V-A):

- :class:`~repro.aggregation.simple.SimpleAveragingScheme` (**SA**) --
  plain averaging, no unfair-rating defense.
- :class:`~repro.aggregation.beta_filter.BetaFilterScheme` (**BF**) --
  the representative majority-rule defense: Whitby-Jøsang beta-function
  filtering plus beta trust.
- :class:`~repro.aggregation.pscheme.PScheme` (**P**) -- the paper's
  proposed signal-based system: joint detectors, trust manager, rating
  filter, and trust-weighted aggregation (Eq. 7).

All schemes implement
``monthly_scores(dataset, period_days, start_day, end_day)`` and plug into
the MP metric (:mod:`repro.marketplace.mp`).
"""

from repro.aggregation.base import AggregationScheme, month_windows
from repro.aggregation.beta_filter import BetaFilterConfig, BetaFilterScheme
from repro.aggregation.pscheme import PScheme, PSchemeConfig
from repro.aggregation.simple import SimpleAveragingScheme
from repro.aggregation.weighted import trust_weighted_average

#: The three defenses by the names the CLI, the engine's tasks and the
#: experiments select them with, in the paper's order.
SCHEMES = {"P": PScheme, "SA": SimpleAveragingScheme, "BF": BetaFilterScheme}

__all__ = [
    "SCHEMES",
    "AggregationScheme",
    "month_windows",
    "BetaFilterConfig",
    "BetaFilterScheme",
    "PScheme",
    "PSchemeConfig",
    "SimpleAveragingScheme",
    "trust_weighted_average",
]

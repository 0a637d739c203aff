"""Rating-system substrate: products, raters, fair data, challenge rules.

The paper collected real rating data for nine flat-panel TVs from a
shopping website and layered a human-subject *Rating Challenge* on top.
Neither the product data nor the 251 human submissions are public, so this
package provides the calibrated synthetic equivalents (see DESIGN.md,
"substitutions"):

- :mod:`repro.marketplace.product` / :mod:`repro.marketplace.rater` --
  typed product and rater profiles, including the default nine-TV lineup.
- :mod:`repro.marketplace.fair_ratings` -- the honest-rater data generator
  (ratings in [0, 5] with mean ~4, non-stationary Poisson arrivals).
- :mod:`repro.marketplace.mp` -- the Manipulation Power (MP) metric used to
  score challenge submissions.
- :mod:`repro.marketplace.challenge` -- the Rating Challenge: product set,
  50 biased raters, boost-2 / downgrade-2 objective, submission validation,
  evaluation, and leaderboards.
- :mod:`repro.marketplace.io` -- CSV rating datasets and JSON attack
  submissions.

Detection quality against ground truth is scored in
:mod:`repro.obs.quality`.
"""

from repro.marketplace.challenge import (
    ChallengeConfig,
    LeaderboardEntry,
    RatingChallenge,
)
from repro.marketplace.fair_ratings import FairRatingConfig, FairRatingGenerator
from repro.marketplace.mp import MPResult, manipulation_power, monthly_deltas
from repro.marketplace.product import Product, default_tv_lineup
from repro.marketplace.rater import RaterProfile, build_rater_pool

__all__ = [
    "ChallengeConfig",
    "LeaderboardEntry",
    "RatingChallenge",
    "FairRatingConfig",
    "FairRatingGenerator",
    "MPResult",
    "manipulation_power",
    "monthly_deltas",
    "Product",
    "default_tv_lineup",
    "RaterProfile",
    "build_rater_pool",
]

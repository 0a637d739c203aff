"""Trust substrate: beta-function trust and the paper's trust manager.

- :mod:`repro.trust.beta` -- the beta reputation primitives of Jøsang and
  Ismail: evidence counts ``(S, F)`` mapping to a trust value
  ``(S + 1) / (S + F + 2)``.
- :mod:`repro.trust.manager` -- Procedure 1: the trust manager that turns
  per-epoch suspicious-rating counts into per-rater trust trajectories.
"""

from repro.trust.beta import beta_trust_value
from repro.trust.manager import TrustManager, TrustSnapshot

__all__ = ["beta_trust_value", "TrustManager", "TrustSnapshot"]

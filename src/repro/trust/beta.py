"""Beta-function trust primitives (Jøsang & Ismail's beta reputation).

Trust in a rater is derived from evidence counts: ``S`` "good" events and
``F`` "bad" events map to the expected value of a Beta(S+1, F+1)
distribution:

    trust = (S + 1) / (S + F + 2)

With no evidence the trust is 0.5 -- exactly the initial trust value the
paper assigns to all raters.  In the P-scheme, a good event is a rating
that survives the suspicious-rating detectors, a bad event is a rating
marked suspicious (Procedure 1).  The BF-scheme uses the same mapping with
"removed by the majority-rule filter" as the bad event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

__all__ = ["BetaEvidence", "beta_trust_value"]


def beta_trust_value(successes, failures):
    """The beta-expected trust ``(S + 1) / (S + F + 2)``.

    Accepts fractional evidence (some schemes weight evidence), and
    numpy arrays of it elementwise; negative evidence is invalid.
    """
    if np.any(np.less(successes, 0)) or np.any(np.less(failures, 0)):
        raise ValidationError(
            f"evidence counts must be >= 0, got S={successes}, F={failures}"
        )
    return (successes + 1.0) / (successes + failures + 2.0)


@dataclass
class BetaEvidence:
    """Mutable evidence accumulator for one rater.

    Attributes
    ----------
    successes:
        Count ``S`` of good events (ratings not marked suspicious).
    failures:
        Count ``F`` of bad events (ratings marked suspicious / filtered).
    """

    successes: float = 0.0
    failures: float = 0.0

    def __post_init__(self) -> None:
        if self.successes < 0 or self.failures < 0:
            raise ValidationError(
                f"evidence counts must be >= 0, got S={self.successes}, "
                f"F={self.failures}"
            )

    @property
    def trust(self) -> float:
        """Current beta trust value."""
        return beta_trust_value(self.successes, self.failures)

    @property
    def total(self) -> float:
        """Total evidence observed."""
        return self.successes + self.failures

    def record(self, good: float, bad: float) -> None:
        """Accumulate ``good`` successes and ``bad`` failures."""
        if good < 0 or bad < 0:
            raise ValidationError(
                f"evidence increments must be >= 0, got good={good}, bad={bad}"
            )
        self.successes += good
        self.failures += bad

    def copy(self) -> "BetaEvidence":
        """An independent copy of the accumulator."""
        return BetaEvidence(self.successes, self.failures)

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

import numpy as np

from repro.errors import ValidationError

__all__ = ["beta_trust_value"]


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

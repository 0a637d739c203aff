"""Trust-weighted rating aggregation -- paper Eq. 7.

Given ratings ``r_i`` from raters with trust ``T_i``, the aggregate is

    R_ag = sum_i r_i * max(T_i - 0.5, 0) / sum_i max(T_i - 0.5, 0)

so raters at or below the neutral trust 0.5 contribute nothing.  When every
weight is zero (all raters neutral or distrusted -- e.g. the very first
epoch, before any trust is established), the paper's formula is undefined;
we fall back to the plain mean, which equals the formula's limit when all
raters share the same trust.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import EmptyDataError, ValidationError

__all__ = ["trust_weighted_average"]


def trust_weighted_average(
    values: Sequence[float], trusts: Sequence[float], neutral: float = 0.5
) -> float:
    """Eq. 7 aggregation of ``values`` with rater ``trusts``.

    ``neutral`` is the trust level that carries zero weight (0.5 in the
    paper).  Raises :class:`~repro.errors.EmptyDataError` for empty input.
    """
    values_arr = np.asarray(values, dtype=float)
    trusts_arr = np.asarray(trusts, dtype=float)
    if values_arr.size == 0:
        raise EmptyDataError("cannot aggregate zero ratings")
    if values_arr.size != trusts_arr.size:
        raise ValidationError(
            f"{values_arr.size} values but {trusts_arr.size} trust values"
        )
    if (trusts_arr < 0).any() or (trusts_arr > 1).any():
        raise ValidationError("trust values must lie in [0, 1]")
    weights = np.maximum(trusts_arr - neutral, 0.0)
    total = float(weights.sum())
    if total <= 0.0:
        return float(values_arr.mean())
    return float((values_arr * weights).sum() / total)

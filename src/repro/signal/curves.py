"""Sliding-window indicator-curve construction.

Each detector in the paper produces a curve of a test statistic versus
time, built by sliding a window over the rating stream:

- **MC curve** (Section IV-B.2): Gaussian mean-change statistic.  The paper
  states windows are constructed "either by making them contain the same
  number of ratings or have the same time duration"; the challenge deploy
  used 30-*day* MC windows, so both variants are provided.
- **ARC curve** (Section IV-C.2): Poisson rate-change statistic over the
  daily-count series, centre ``k' = k + D``, shrinking windows at edges.
- **HC curve** (Section IV-D): two-cluster balance ``min(n1/n2, n2/n1)``
  over rating-count windows.
- **ME curve** (Section IV-E): normalized AR model error over rating-count
  windows.

All constructors return a :class:`Curve`: aligned arrays of evaluation
times, evaluation indices (index into the underlying series), and
statistic values.

Every builder runs on the vectorized fast path, with no Python-level
statistic call per centre, and produces **bit-identical** values to the
per-window formulation:

- MC means come from one window-means pass that groups windows by
  length.  :func:`mean_change_curves_by_time` builds the curves of a
  whole batch of streams in that one pass (the joint detector's batch
  does so); a single stream is a batch of one.
- ARC half-window sums come from one prefix sum of the daily counts,
  exact because the counts are whole numbers.
- HC and ME reduce ``sliding_window_view`` stacks row by row.

See :mod:`repro.signal.rolling` for how the guarantee is kept and
``tests/property/test_incremental_curves.py`` for the exact-equality
pinning against the retained naive references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ValidationError
from repro.signal.ar import sliding_ar_normalized_errors
from repro.signal.rolling import (
    centered_half_widths,
    mean_change_stats,
    rate_change_stats_equal_halves,
    two_cluster_balance,
)
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "Curve",
    "mean_change_curve_by_count",
    "mean_change_curve_by_time",
    "mean_change_curves_by_time",
    "arrival_rate_curve",
    "histogram_change_curve",
    "histogram_change_curve_from_stats",
    "model_error_curve",
    "model_error_curve_from_errors",
]


@dataclass(frozen=True)
class Curve:
    """An indicator curve: a statistic evaluated along a rating stream.

    Attributes
    ----------
    kind:
        Which detector produced the curve (``"MC"``, ``"ARC"``, ``"H-ARC"``,
        ``"L-ARC"``, ``"HC"``, ``"ME"``).
    times:
        Evaluation times (days), one per point.
    indices:
        For rating-indexed curves: the rating index at the window centre.
        For day-indexed curves (ARC): the day index.  Aligned with ``times``.
    values:
        The statistic values.
    """

    kind: str
    times: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (self.times.size == self.indices.size == self.values.size):
            raise ValidationError("curve arrays must be aligned")
        for arr in (self.times, self.indices, self.values):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def is_empty(self) -> bool:
        """Whether the curve has no evaluation points."""
        return self.values.size == 0

    def max_value(self) -> float:
        """Largest statistic on the curve (``0.0`` for an empty curve)."""
        return float(self.values.max()) if self.values.size else 0.0

    def above(self, threshold: float) -> np.ndarray:
        """Boolean mask of points with ``value > threshold``."""
        return self.values > threshold

    def below(self, threshold: float) -> np.ndarray:
        """Boolean mask of points with ``value < threshold``."""
        return self.values < threshold


def _empty_curve(kind: str) -> Curve:
    return Curve(
        kind=kind,
        times=np.array([], dtype=float),
        indices=np.array([], dtype=int),
        values=np.array([], dtype=float),
    )


def mean_change_curve_by_count(
    times: np.ndarray, values: np.ndarray, half_width: int
) -> Curve:
    """MC curve with rating-count windows of half-width ``half_width``.

    ``MC(k)`` tests a mean change between ratings ``[k-W, k)`` and
    ``[k, k+W)`` (shrinking symmetrically near the edges), evaluated for
    every centre ``k`` in ``1 .. n-1``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    half_width = check_positive_int(half_width, "half_width")
    if values.size < 2:
        return _empty_curve("MC")
    centers, halves = centered_half_widths(values.size, half_width)
    stats = mean_change_stats(values, centers - halves, halves, centers, halves)
    return Curve(
        kind="MC",
        times=times[centers],
        indices=centers,
        values=stats,
    )


def mean_change_curves_by_time(
    times: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window_days: float,
) -> List[Curve]:
    """MC curves of a batch of streams, with ``window_days``-day windows.

    ``times`` and ``values`` hold the streams back to back; stream ``j``
    is rows ``bounds[j][0]:bounds[j][1]``.  At each rating index ``k`` of
    a stream, the two halves are that stream's ratings in
    ``[t(k) - window_days/2, t(k))`` and ``[t(k), t(k) + window_days/2)``.
    Centres where either half is empty get statistic ``0`` (no evidence of
    change is obtainable there); a stream of fewer than two ratings gets
    an empty curve.

    The halves are located with two ``searchsorted`` sweeps per stream
    (equivalent to the historical two-pointer scan).  The half means of
    *all* streams then come from one :func:`~repro.signal.rolling.window_means`
    call, which groups the windows by length across the batch; each row is
    reduced on its own, so every curve is bit-identical to building it
    from its stream alone.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_days = check_positive(window_days, "window_days")
    half = window_days / 2.0
    los, his, centers = [], [], []
    for start, stop in bounds:
        t = times[start:stop]
        los.append(np.searchsorted(t, t - half, side="left") + start)
        his.append(np.searchsorted(t, t + half, side="left") + start)
        centers.append(np.arange(start, stop))
    if not centers:
        return []
    lo = np.concatenate(los)
    hi = np.concatenate(his)
    center = np.concatenate(centers)
    first_len = center - lo
    second_len = hi - center
    valid = (first_len > 0) & (second_len > 0)
    stats = np.zeros(times.size, dtype=float)
    stats[center[valid]] = mean_change_stats(
        values, lo[valid], first_len[valid], center[valid], second_len[valid]
    )
    return [
        Curve(
            kind="MC",
            times=times[start:stop].copy(),
            indices=np.arange(stop - start),
            values=stats[start:stop],
        )
        if stop - start >= 2
        else _empty_curve("MC")
        for start, stop in bounds
    ]


def mean_change_curve_by_time(
    times: np.ndarray, values: np.ndarray, window_days: float
) -> Curve:
    """MC curve of one stream with fixed-duration windows of
    ``window_days`` days: :func:`mean_change_curves_by_time` over a batch
    of one."""
    times = np.asarray(times, dtype=float)
    (curve,) = mean_change_curves_by_time(
        times, values, [(0, times.size)], window_days
    )
    return curve


def arrival_rate_curve(
    days: np.ndarray,
    counts: np.ndarray,
    half_width_days: int,
    kind: str = "ARC",
    total_llr: bool = True,
) -> Curve:
    """ARC curve over a daily-count series with half-width ``D`` days.

    ``ARC(k')`` is the Poisson GLRT statistic between counts
    ``[k'-D, k')`` and ``[k', k'+D)``; edge windows shrink symmetrically
    (Section IV-C.2).  ``days`` holds the day index of each count.

    With ``total_llr=True`` (default) each point is the *total*
    log-likelihood ratio of its window (statistic times window length),
    which keeps one absolute threshold valid across window sizes; with
    ``False`` it is the paper's per-day form (Eq. 5 left-hand side).

    Raises :class:`~repro.errors.ValidationError` on negative counts, and
    on counts that are not whole numbers or total ``2**53`` or more: the
    half-window sums come from one prefix sum, which is exact only there.
    """
    days = np.asarray(days, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if days.size != counts.size:
        raise ValidationError("days and counts must be aligned")
    half_width_days = check_positive_int(half_width_days, "half_width_days")
    if counts.size < 2:
        return _empty_curve(kind)
    if np.any(counts < 0):
        raise ValidationError("daily counts must be non-negative")
    centers, halves = centered_half_widths(counts.size, half_width_days)
    stats = rate_change_stats_equal_halves(counts, centers, halves, total_llr)
    return Curve(
        kind=kind,
        times=days[centers],
        indices=centers,
        values=stats,
    )


def _full_window_centers(n: int, window: int) -> np.ndarray:
    """Centre indices of the length-``window`` sliding windows of a
    length-``n`` series (window start + ``window // 2``)."""
    return np.arange(0, n - window + 1) + window // 2


def histogram_change_curve_from_stats(
    times: np.ndarray, stats: np.ndarray, window_ratings: int
) -> Curve:
    """Assemble an HC :class:`Curve` from precomputed balance statistics.

    ``stats[i]`` is the balance of the window starting at rating ``i``;
    used by the per-stream builder below and by the joint detector's
    cross-stream batch, which computes all streams' balances in one
    clustering pass.
    """
    times = np.asarray(times, dtype=float)
    centers = _full_window_centers(times.size, window_ratings)
    return Curve(
        kind="HC",
        times=times[centers],
        indices=centers,
        values=np.asarray(stats, dtype=float),
    )


def histogram_change_curve(
    times: np.ndarray, values: np.ndarray, window_ratings: int
) -> Curve:
    """HC curve: two-cluster balance over rating-count windows.

    Within each window of ``window_ratings`` ratings (sliding by one), the
    values are split into two single-linkage clusters of sizes ``n1, n2``
    and ``HC = min(n1/n2, n2/n1)``.  A window whose values collapse into a
    single cluster gets ``HC = 0``.  The curve is indexed by the window's
    centre rating.  Values near ``1`` mean a balanced bimodal histogram --
    the signature of a sizeable block of unfair ratings far from the fair
    mode.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_ratings = check_positive_int(window_ratings, "window_ratings", minimum=2)
    n = values.size
    if n < window_ratings:
        return _empty_curve("HC")
    stats = two_cluster_balance(sliding_window_view(values, window_ratings))
    return histogram_change_curve_from_stats(times, stats, window_ratings)


def model_error_curve_from_errors(
    times: np.ndarray, errors: np.ndarray, window_ratings: int
) -> Curve:
    """Assemble an ME :class:`Curve` from precomputed normalized errors.

    ``errors[i]`` belongs to the window starting at rating ``i``; the
    joint detector's cross-stream batch solves every stream's AR normal
    equations in one pass and hands the per-stream error slices here.
    """
    times = np.asarray(times, dtype=float)
    centers = _full_window_centers(times.size, window_ratings)
    return Curve(
        kind="ME",
        times=times[centers],
        indices=centers,
        values=np.asarray(errors, dtype=float),
    )


def model_error_curve(
    times: np.ndarray, values: np.ndarray, window_ratings: int, order: int = 4
) -> Curve:
    """ME curve: normalized AR model error over rating-count windows.

    Low model error means the window contains a predictable signal, i.e.
    likely collaborative unfair ratings (Section IV-E).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_ratings = check_positive_int(window_ratings, "window_ratings", minimum=2)
    order = check_positive_int(order, "order")
    if window_ratings < 2 * order:
        raise ValidationError(
            f"window_ratings={window_ratings} too small for AR({order}) covariance fit"
        )
    if values.size < window_ratings:
        return _empty_curve("ME")
    errors = sliding_ar_normalized_errors(values, window_ratings, order)
    return model_error_curve_from_errors(times, errors, window_ratings)

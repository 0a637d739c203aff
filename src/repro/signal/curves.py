"""Sliding-window indicator-curve construction.

Each detector in the paper produces a curve of a test statistic versus
time, built by sliding a window over the rating stream:

- **MC curve** (Section IV-B.2): Gaussian mean-change statistic over
  fixed-duration windows.  The paper allows windows of equal rating count
  or equal duration; the challenge deploy used 30-*day* MC windows, which
  is the variant built here.
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
per-window formulation.  MC, HC and ME each have one builder that takes
a whole batch of streams, held back to back in one pair of columns with
one ``(start, stop)`` row range per stream; the single-stream functions
are that builder over a batch of one:

- :func:`mean_change_curves_by_time` gets every half-window mean of the
  batch from one window-means pass that groups windows by length.
- :func:`histogram_change_curves` clusters the windows of every stream
  in one stacked :func:`~repro.signal.rolling.two_cluster_balance` call.
- :func:`model_error_curves` solves the AR normal equations of every
  window of every stream as one stacked LAPACK batch.
- ARC half-window sums come from one prefix sum of the daily counts,
  exact because the counts are whole numbers.

Each window is reduced on its own, so a stream's curve does not depend
on the other streams of its batch.

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
from repro.signal.ar import (
    fit_ar_covariance,
    normalized_errors_from_operands,
    sliding_ar_operands,
)
from repro.signal.rolling import (
    centered_half_widths,
    mean_change_stats,
    rate_change_stats_equal_halves,
    sliding_vars,
    two_cluster_balance,
)
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "Curve",
    "mean_change_curve_by_time",
    "mean_change_curves_by_time",
    "arrival_rate_curve",
    "histogram_change_curve",
    "histogram_change_curves",
    "model_error_curve",
    "model_error_curves",
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


def _window_curves(
    kind: str,
    times: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window: int,
    stats: np.ndarray,
) -> List[Curve]:
    """One curve per ``bounds`` entry from per-window statistics.

    ``stats`` holds one value per length-``window`` window of each stream
    at least ``window`` ratings long, stream after stream.  Each point
    sits at its window's centre rating (window start + ``window // 2``);
    a shorter stream gets an empty curve.
    """
    curves = []
    cursor = 0
    for start, stop in bounds:
        count = stop - start - window + 1
        if count <= 0:
            curves.append(_empty_curve(kind))
            continue
        centers = np.arange(count) + window // 2
        curves.append(
            Curve(
                kind=kind,
                times=times[start + centers],
                indices=centers,
                values=stats[cursor : cursor + count],
            )
        )
        cursor += count
    return curves


def histogram_change_curves(
    times: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window_ratings: int,
) -> List[Curve]:
    """HC curves of a batch of streams: two-cluster balance over
    rating-count windows.

    ``times`` and ``values`` hold the streams back to back; stream ``j``
    is rows ``bounds[j][0]:bounds[j][1]``.  Within each window of
    ``window_ratings`` ratings of a stream (sliding by one), the values
    are split into two single-linkage clusters of sizes ``n1, n2`` and
    ``HC = min(n1/n2, n2/n1)``; a window whose values collapse into a
    single cluster gets ``HC = 0``.  Each point sits at its window's
    centre rating, and a stream shorter than the window gets an empty
    curve.  Values near ``1`` mean a balanced bimodal histogram -- the
    signature of a sizeable block of unfair ratings far from the fair
    mode.

    The windows of every stream are stacked into one matrix and clustered
    in one :func:`~repro.signal.rolling.two_cluster_balance` call, which
    reduces each row on its own.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_ratings = check_positive_int(window_ratings, "window_ratings", minimum=2)
    stacks = [
        sliding_window_view(values[start:stop], window_ratings)
        for start, stop in bounds
        if stop - start >= window_ratings
    ]
    balances = two_cluster_balance(np.concatenate(stacks)) if stacks else np.empty(0)
    return _window_curves("HC", times, bounds, window_ratings, balances)


def histogram_change_curve(
    times: np.ndarray, values: np.ndarray, window_ratings: int
) -> Curve:
    """HC curve of one stream: :func:`histogram_change_curves` over a
    batch of one."""
    times = np.asarray(times, dtype=float)
    (curve,) = histogram_change_curves(
        times, values, [(0, times.size)], window_ratings
    )
    return curve


def _stream_model_errors(x, operands, window: int, order: int) -> np.ndarray:
    """Normalized model errors of one stream's windows: one stacked solve,
    else one pseudo-inverse-safe fit per window."""
    try:
        return normalized_errors_from_operands(*operands, order)
    except np.linalg.LinAlgError:
        return np.asarray(
            [
                fit_ar_covariance(x[s : s + window], order).normalized_error
                for s in range(x.size - window + 1)
            ],
            dtype=float,
        )


def model_error_curves(
    times: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window_ratings: int,
    order: int,
) -> Tuple[List[Curve], bool]:
    """ME curves of a batch of streams: normalized AR model error over
    rating-count windows.

    Streams are laid out as for :func:`histogram_change_curves`.  Each
    window of ``window_ratings`` ratings is fit with an AR(``order``)
    model by the covariance method; low model error means the window
    contains a predictable signal, i.e. likely collaborative unfair
    ratings (Section IV-E).  Each point sits at its window's centre
    rating, and a stream shorter than the window gets an empty curve.

    The normal equations of every window of every stream are solved as
    one stacked LAPACK batch.  When any window is singular (e.g. constant
    values), that batch fails and each stream is solved on its own; a
    stream with a singular window is then fit window by window, where the
    pseudo-inverse handles the singularity.  Every value equals the
    per-window :func:`~repro.signal.ar.fit_ar_covariance` bit for bit.

    Returns the curves, one per ``bounds`` entry, and whether the stacked
    solve fell back.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_ratings = check_positive_int(window_ratings, "window_ratings", minimum=2)
    order = check_positive_int(order, "order")
    if window_ratings < 2 * order:
        raise ValidationError(
            f"window_ratings={window_ratings} too small for AR({order}) covariance fit"
        )
    streams = [
        values[start:stop] for start, stop in bounds if stop - start >= window_ratings
    ]
    if not streams:
        return _window_curves("ME", times, bounds, window_ratings, np.empty(0)), False
    operands = [
        (
            *sliding_ar_operands(x, window_ratings, order),
            sliding_vars(x, window_ratings),
        )
        for x in streams
    ]
    try:
        errors = normalized_errors_from_operands(
            *(np.concatenate(column) for column in zip(*operands)), order
        )
        fell_back = False
    except np.linalg.LinAlgError:
        errors = np.concatenate(
            [
                _stream_model_errors(x, stream_operands, window_ratings, order)
                for x, stream_operands in zip(streams, operands)
            ]
        )
        fell_back = True
    return _window_curves("ME", times, bounds, window_ratings, errors), fell_back


def model_error_curve(
    times: np.ndarray, values: np.ndarray, window_ratings: int, order: int = 4
) -> Curve:
    """ME curve of one stream: :func:`model_error_curves` over a batch of
    one."""
    times = np.asarray(times, dtype=float)
    (curve,), _ = model_error_curves(
        times, values, [(0, times.size)], window_ratings, order
    )
    return curve

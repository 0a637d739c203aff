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
per-window formulation.  MC, HC, ME and ARC each have one builder that
takes a whole batch of streams, held back to back in one pair of columns
with one ``(start, stop)`` row range per stream; the single-stream
functions are that builder over a batch of one.  The MC, HC and ME
builders pick, per stream, the windows (HC, ME) or centres (MC) to
compute, gather all of them from the batch's values in one pass, and
write each stream's curve in one assembly step:

- :func:`mean_change_curves_by_time` gets every half-window mean from
  one :func:`~repro.signal.rolling.window_means` pass: windows whose
  ratings all lie on the half-star grid from one exact prefix sum, the
  others grouped by length.
- :func:`histogram_change_curves` clusters the gathered windows in one
  stacked :func:`~repro.signal.rolling.two_cluster_balance` call.
- :func:`model_error_curves` solves the AR normal equations of the
  gathered windows as one stacked LAPACK batch
  (:func:`~repro.signal.ar.model_errors`).
- :func:`arrival_rate_curves` counts the days of every stream and value
  band (H-ARC, L-ARC) with one ``np.bincount`` and builds every curve of
  every scale from one prefix sum over all those counts, exact because
  the counts are whole numbers.  It is cheap, so it builds every stream
  whole; :func:`arrival_rate_curve` is the same statistic over one given
  count series.

Each window is reduced on its own, so a stream's curve does not depend
on the other streams of its batch, nor on which of its own windows are
computed together.

Reuse (the copy rule)
---------------------
The MC, HC and ME builders may also take, per stream, the curve values
of a stream it grew from and the positions of the rows added since
(``reuse``; see :attr:`~repro.types.RatingStream.lineage`).  Let
``c[i]`` count the added rows before position ``i``.  A curve point
whose rows hold no added row -- the HC/ME window ``[s, s + W)`` with
``c[s + W] == c[s]``, or the MC centre ``k`` with halves ``[lo, k)`` and
``[k, hi)`` and ``c[hi] == c[lo]`` -- reads exactly the rows the base
read at point ``i - c[i]``, in the same order, because inserting rows
moves every later row by the same count and a stream's order is its
time order.  Its value is then the base's, bit for bit, and is copied;
every other point is computed.  With no added rows (a stream's own
cached curve) every point is copied.  A base curve that is empty (a
base shorter than the window) is no help, and the stream is built
whole.

See :mod:`repro.signal.rolling` for how the guarantee is kept and
``tests/property/test_incremental_curves.py`` for the exact-equality
pinning against the retained naive references.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ValidationError
from repro.signal.ar import fit_ar_covariance, model_errors
from repro.signal.rolling import (
    centered_half_widths,
    day_counts,
    mean_change_stats,
    rate_change_stats_equal_halves,
    two_cluster_balance,
)
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "ArrivalSeries",
    "Curve",
    "Reuse",
    "mean_change_curve_by_time",
    "mean_change_curves_by_time",
    "arrival_rate_curve",
    "arrival_rate_curves",
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


#: Per stream of a batch: ``(base values, added)`` -- the curve values of
#: the stream it grew from and the increasing positions of the rows
#: added since -- or ``None`` to compute every point.
Reuse = Optional[Tuple[np.ndarray, np.ndarray]]

#: One stream's points: ``(computed, copied, copied values)``.
_Plan = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _plan(rows: int, first: np.ndarray, stop: np.ndarray, reuse: Reuse) -> _Plan:
    """Which points of a ``rows``-row stream to compute.

    Point ``i`` reads rows ``first[i]:stop[i]``.  It is copied from the
    base's point ``i - c[i]`` when none of those rows was added (see the
    module docstring), else computed.
    """
    points = np.arange(first.size)
    if reuse is None or reuse[0].size == 0:
        return points, points[:0], np.empty(0)
    base, added = reuse
    before = np.searchsorted(added, np.arange(rows + 1))
    changed = before[stop] > before[first]
    kept = points[~changed]
    return points[changed], kept, base[kept - before[kept]]


def _assemble(plans: Sequence[_Plan], stats: np.ndarray) -> List[np.ndarray]:
    """Each stream's curve values: its computed points from ``stats``
    (stream after stream, in plan order), the rest copied."""
    out = []
    cursor = 0
    for computed, kept, copied in plans:
        values = np.empty(computed.size + kept.size)
        values[computed] = stats[cursor : cursor + computed.size]
        values[kept] = copied
        cursor += computed.size
        out.append(values)
    return out


def mean_change_curves_by_time(
    times: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window_days: float,
    reuse: Optional[Sequence[Reuse]] = None,
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
    (equivalent to the historical two-pointer scan).  ``reuse`` (one
    :data:`Reuse` per stream) copies every centre whose halves hold no
    added row.  The half means of the other centres of *all* streams
    come from one :func:`~repro.signal.rolling.window_means` call, which
    groups the windows by length across the batch; each row is reduced
    on its own, so every curve is bit-identical to building it from its
    stream alone.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_days = check_positive(window_days, "window_days")
    half = window_days / 2.0
    plans, los, his, centers = [], [], [], []
    for (start, stop), prior in zip(bounds, reuse or repeat(None)):
        t = times[start:stop]
        lo = np.searchsorted(t, t - half, side="left")
        hi = np.searchsorted(t, t + half, side="left")
        k = np.arange(t.size)
        plan = _plan(t.size, np.minimum(lo, k), np.maximum(hi, k + 1), prior)
        computed = plan[0]
        plans.append(plan)
        los.append(lo[computed] + start)
        his.append(hi[computed] + start)
        centers.append(computed + start)
    if not plans:
        return []
    lo = np.concatenate(los)
    hi = np.concatenate(his)
    center = np.concatenate(centers)
    first_len = center - lo
    second_len = hi - center
    valid = (first_len > 0) & (second_len > 0)
    stats = np.zeros(center.size, dtype=float)
    stats[valid] = mean_change_stats(
        values, lo[valid], first_len[valid], center[valid], second_len[valid]
    )
    return [
        Curve(
            kind="MC",
            times=times[start:stop].copy(),
            indices=np.arange(stop - start),
            values=curve_values,
        )
        if stop - start >= 2
        else _empty_curve("MC")
        for (start, stop), curve_values in zip(bounds, _assemble(plans, stats))
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


@dataclass(frozen=True)
class ArrivalSeries:
    """One stream's daily-count series of one ARC kind, and its curves.

    ``counts[i]`` is the number of the kind's ratings ``r`` with
    ``days[i] <= r.time < days[i] + 1``; ``curves`` holds one ARC curve
    over those counts per half width, in the order they were asked for.
    """

    days: np.ndarray
    counts: np.ndarray
    curves: Tuple[Curve, ...]


#: One ARC kind of a batch: ``(kind, lower, upper)``, where a rating of
#: stream ``j`` counts when ``lower[j] < value < upper[j]``.
Band = Tuple[str, np.ndarray, np.ndarray]


def arrival_rate_curves(
    times: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    bands: Sequence[Band],
    half_widths: Sequence[int],
) -> List[Tuple[ArrivalSeries, ...]]:
    """ARC series and curves of a batch of streams, one per value band.

    ``times`` and ``values`` hold the streams back to back; stream ``j``
    is rows ``bounds[j][0]:bounds[j][1]``.  Its days run from
    ``floor(t_first)`` up to ``ceil(t_last + 1e-9)`` (at least one day),
    the same grid for every band, so its curves stay aligned.  Every
    band of every stream is counted with one
    :func:`~repro.signal.rolling.day_counts` call, and every curve of
    every scale comes from one prefix sum over all those counts (exact,
    see :mod:`repro.signal.rolling`), so each curve equals
    :func:`arrival_rate_curve` of its series (total log-likelihood
    ratios) bit for bit.

    Returns one tuple per stream holding one :class:`ArrivalSeries` per
    band.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    half_widths = [check_positive_int(h, "half_width_days") for h in half_widths]
    starts = np.array([start for start, _ in bounds], dtype=np.int64)
    sizes = np.array([stop - start for start, stop in bounds], dtype=np.int64)
    filled = np.flatnonzero(sizes)
    first_days = np.zeros(sizes.size)
    num_days = np.zeros(sizes.size, dtype=np.int64)
    first_days[filled] = np.floor(times[starts[filled]])
    last_days = np.ceil(times[starts[filled] + sizes[filled] - 1] + 1e-9)
    num_days[filled] = np.maximum(last_days - first_days[filled], 1.0)
    # Every row of the batch, stream after stream, and its stream.
    stream_of = np.repeat(np.arange(sizes.size), sizes)
    rows = np.arange(stream_of.size) + np.repeat(
        starts - (np.cumsum(sizes) - sizes), sizes
    )
    value = values[rows]
    # Series ``j * len(bands) + k`` is band ``k`` of stream ``j``.
    owners, picked = [], []
    for k, (_, lower, upper) in enumerate(bands):
        lower = np.broadcast_to(np.asarray(lower, dtype=float), sizes.shape)
        upper = np.broadcast_to(np.asarray(upper, dtype=float), sizes.shape)
        inside = (lower[stream_of] < value) & (value < upper[stream_of])
        owners.append(stream_of[inside] * len(bands) + k)
        picked.append(times[rows[inside]])
    series_days = np.repeat(num_days, len(bands))
    counts = day_counts(
        np.concatenate([np.empty(0)] + picked),
        np.concatenate([np.empty(0, dtype=np.intp)] + owners),
        np.repeat(first_days, len(bands)),
        series_days,
    )
    # Centres 1 .. n-1 of every n-day series, as flat count positions,
    # then every scale's equal halves, shrunk at the series' edges.
    points = np.maximum(series_days - 1, 0)
    first_points = np.concatenate(([0], np.cumsum(points)))
    point_of = np.repeat(np.arange(series_days.size), points)
    local = np.arange(point_of.size) - first_points[point_of] + 1
    edge = np.minimum(local, series_days[point_of] - local)
    offsets = np.concatenate(([0], np.cumsum(series_days)))
    stats = rate_change_stats_equal_halves(
        counts,
        np.tile(offsets[point_of] + local, len(half_widths)),
        np.concatenate([np.minimum(h, edge) for h in half_widths]),
        total_llr=True,
    ).reshape(len(half_widths), -1)
    offsets, first_points = offsets.tolist(), first_points.tolist()
    counts.setflags(write=False)
    out = []
    # A stream's bands share its day grid, so its series share their
    # (read-only) days, and its curves their times and indices.
    for j, (first, n) in enumerate(zip(first_days.tolist(), num_days.tolist())):
        days = np.arange(n) + int(first)
        days.setflags(write=False)
        centers = np.arange(1, n)
        centers_at = days[1:].astype(float)
        per_band = []
        for s, (kind, _, _) in enumerate(bands, start=j * len(bands)):
            at = slice(first_points[s], first_points[s + 1])
            curves = tuple(
                Curve(kind, centers_at, centers, scale[at])
                if n >= 2
                else _empty_curve(kind)
                for scale in stats
            )
            counts_s = counts[offsets[s] : offsets[s + 1]]
            per_band.append(ArrivalSeries(days, counts_s, curves))
        out.append(tuple(per_band))
    return out


def _gather_windows(
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window: int,
    reuse: Optional[Sequence[Reuse]],
) -> Tuple[List[_Plan], np.ndarray]:
    """Each stream's plan over its length-``window`` windows, and the
    ``(windows, window)`` matrix of the windows to compute, stream after
    stream, gathered in one pass."""
    plans, starts = [], [np.empty(0, dtype=np.intp)]
    for (start, stop), prior in zip(bounds, reuse or repeat(None)):
        first = np.arange(max(stop - start - window + 1, 0))
        plans.append(_plan(stop - start, first, first + window, prior))
        starts.append(plans[-1][0] + start)
    flat = np.concatenate(starts)
    if flat.size == 0:
        return plans, np.empty((0, window))
    return plans, sliding_window_view(values, window)[flat]


def _window_curves(
    kind: str,
    times: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window: int,
    plans: Sequence[_Plan],
    stats: np.ndarray,
) -> List[Curve]:
    """One curve per ``bounds`` entry from the computed window statistics.

    Each point sits at its window's centre rating (window start +
    ``window // 2``); a stream shorter than the window gets an empty
    curve.
    """
    curves = []
    for (start, stop), curve_values in zip(bounds, _assemble(plans, stats)):
        if curve_values.size == 0:
            curves.append(_empty_curve(kind))
            continue
        centers = np.arange(curve_values.size) + window // 2
        curves.append(
            Curve(
                kind=kind,
                times=times[start + centers],
                indices=centers,
                values=curve_values,
            )
        )
    return curves


def histogram_change_curves(
    times: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window_ratings: int,
    reuse: Optional[Sequence[Reuse]] = None,
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

    ``reuse`` (one :data:`Reuse` per stream) copies every window that
    holds no added row.  The other windows of every stream are gathered
    into one matrix and clustered in one
    :func:`~repro.signal.rolling.two_cluster_balance` call, which reduces
    each row on its own.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_ratings = check_positive_int(window_ratings, "window_ratings", minimum=2)
    plans, windows = _gather_windows(values, bounds, window_ratings, reuse)
    balances = two_cluster_balance(windows)
    return _window_curves("HC", times, bounds, window_ratings, plans, balances)


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


def _fitted_errors(windows: np.ndarray, order: int) -> np.ndarray:
    """One stream's gathered windows: one stacked solve, else one
    pseudo-inverse-safe fit per window."""
    try:
        return model_errors(windows, order)
    except np.linalg.LinAlgError:
        return np.asarray(
            [fit_ar_covariance(window, order).normalized_error for window in windows],
            dtype=float,
        )


def model_error_curves(
    times: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    window_ratings: int,
    order: int,
    reuse: Optional[Sequence[Reuse]] = None,
) -> Tuple[List[Curve], bool]:
    """ME curves of a batch of streams: normalized AR model error over
    rating-count windows.

    Streams are laid out as for :func:`histogram_change_curves`.  Each
    window of ``window_ratings`` ratings is fit with an AR(``order``)
    model by the covariance method; low model error means the window
    contains a predictable signal, i.e. likely collaborative unfair
    ratings (Section IV-E).  Each point sits at its window's centre
    rating, and a stream shorter than the window gets an empty curve.

    ``reuse`` (one :data:`Reuse` per stream) copies every window that
    holds no added row; a copied window is never re-solved.  The other
    windows of every stream are gathered in one pass, and their normal
    equations are solved as one stacked LAPACK batch.  When any of them
    is singular (e.g. constant values), that batch fails and each
    stream's gathered windows are solved on their own; a stream with a
    singular window is then fit window by window, where the
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
    plans, windows = _gather_windows(values, bounds, window_ratings, reuse)
    try:
        errors = model_errors(windows, order)
        fell_back = False
    except np.linalg.LinAlgError:
        cuts = np.cumsum([computed.size for computed, _, _ in plans])[:-1]
        errors = np.concatenate(
            [_fitted_errors(part, order) for part in np.split(windows, cuts)]
        )
        fell_back = True
    curves = _window_curves("ME", times, bounds, window_ratings, plans, errors)
    return curves, fell_back


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

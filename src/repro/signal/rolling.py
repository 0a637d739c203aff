"""Vectorized window-statistic kernels (bit-identical fast path).

The kernels behind :mod:`repro.signal.curves` compute the statistics of
many windows -- of one stream or of a whole batch of streams -- in a few
vectorized passes, instead of one Python-level call per window centre.
The curve builders hand them only the windows that need computing: the
rating-count windows are gathered as rows of one matrix with a single
``sliding_window_view(values, width)[starts]``, whatever streams and
positions they come from, and the rest of a curve is copied from the
stream it grew from (the copy rule of :mod:`repro.signal.curves`).  A
copied value is bit-identical because it reduced the same rows, in the
same order, with the same kernel -- and every kernel here reduces each
window on its own, so which other windows share its pass cannot change
its bits.

Bit-identical by construction
-----------------------------
The detection pipeline's determinism contracts (telemetry parity, ledger
digests, cached detection reports) require the fast path to produce the
*exact same bits* as the per-window loops it replaces, not merely values
within tolerance.  Two different arguments keep that guarantee:

- **Rating values are reduced row by row.**  A prefix-sum mean of real
  rating values differs from ``window.mean()`` in the last ulp, because
  sequential accumulation rounds differently from numpy's pairwise
  reduction.  So :func:`window_means` gathers the windows of one length
  into a row matrix and reduces each row with the same pairwise
  summation the 1-D slice uses: row ``i`` equals
  ``values[start:start+length].mean()`` bitwise.  The ME builder's
  per-window variances come the same way, from the gathered window
  rows.  (``np.add.reduceat`` is *not* bit-equal: it rounds differently
  on many windows.)
- **Daily counts are whole numbers, so prefix sums are exact.**  Every
  partial sum of whole numbers below ``2**53`` is itself exactly
  representable, so a sum comes out the same in any order.  One
  ``cumsum`` of the counts therefore gives every half-window sum of the
  ARC statistic exactly, and ``sum / h`` is the very value ``mean()``
  returns.  :func:`rate_change_stats_equal_halves` rejects counts that
  are not whole numbers or whose total reaches ``2**53``; inside that
  domain no tolerance is needed.

On top of those means, the GLRT combiners mirror the scalar expression
trees of :func:`repro.signal.glrt.gaussian_mean_change_statistic` and
:func:`repro.signal.poisson.poisson_rate_change_statistic` operation for
operation (same associativity, same ufunc loops), so elementwise IEEE
arithmetic reproduces the scalar results.  ``two_cluster_balance`` sorts
whole window stacks at once; cluster sizes depend only on the sorted
value sequence and the arg-max of the adjacent gaps, both of which are
algorithm-independent.

The equivalences are pinned by ``tests/property/test_incremental_curves.py``
with ``np.array_equal`` (no tolerance) against retained naive reference
implementations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "window_means",
    "centered_half_widths",
    "mean_change_stats",
    "rate_change_stats_equal_halves",
    "two_cluster_balance",
]


def window_means(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Means of the windows ``values[starts[i] : starts[i] + lengths[i]]``.

    Windows are grouped by length; each distinct length costs one gather
    into a ``(windows, length)`` row matrix and one row-wise mean, so
    ``out[i] == values[starts[i]:starts[i] + lengths[i]].mean()`` bit for
    bit.  Windows of different streams of a concatenated batch may be
    mixed freely, because each row is reduced on its own.  Every length
    must be at least 1.
    """
    values = np.asarray(values, dtype=float)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.empty(starts.size, dtype=float)
    if starts.size == 0:
        return out
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    cuts = np.flatnonzero(sorted_lengths[1:] != sorted_lengths[:-1]) + 1
    bounds = [0, *cuts.tolist(), order.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = order[lo:hi]
        length = int(sorted_lengths[lo])
        # What ``.mean(axis=1)`` computes, without its per-call set-up:
        # numpy's mean is the pairwise ``add.reduce`` divided by the count.
        gathered = values[starts[rows, None] + np.arange(length)]
        out[rows] = np.add.reduce(gathered, axis=1) / length
    return out


def centered_half_widths(n: int, half_width: int) -> tuple:
    """``(centers, halves)`` for every valid change-point centre.

    Vectorized equivalent of :func:`repro.utils.windows.centered_windows`
    for the symmetric-shrink case: centres run ``1 .. n-1`` and each
    window is ``[c - h, c + h)`` with ``h = min(half_width, c, n - c)``
    (always ``>= 1``, so both halves are non-empty).
    """
    if n < 2:
        empty = np.empty(0, dtype=int)
        return empty, empty
    centers = np.arange(1, n)
    halves = np.minimum(half_width, np.minimum(centers, n - centers))
    return centers, halves


def mean_change_stats(
    values: np.ndarray,
    first_starts: np.ndarray,
    first_lengths: np.ndarray,
    second_starts: np.ndarray,
    second_lengths: np.ndarray,
) -> np.ndarray:
    """Gaussian mean-change statistics of window pairs.

    Element ``i`` is what
    :func:`~repro.signal.glrt.gaussian_mean_change_statistic` computes for
    ``values[a:a+m]`` against ``values[b:b+n]``, where ``a, m`` and
    ``b, n`` are the ``i``-th first and second starts and lengths.  The
    means of both halves of every pair come from one :func:`window_means`
    call.
    """
    pairs = first_lengths.size
    means = window_means(
        values,
        np.concatenate((first_starts, second_starts)),
        np.concatenate((first_lengths, second_lengths)),
    )
    diff = means[:pairs] - means[pairs:]
    # Same expression tree as the scalar statistic:
    # 2.0 * (n1 * n2) / (n1 + n2) * diff * diff.
    coefficient = (
        2.0 * (first_lengths * second_lengths) / (first_lengths + second_lengths)
    )
    return coefficient * diff * diff


def _xlogx_vec(means: np.ndarray) -> np.ndarray:
    """Vectorized ``x ln x`` with the ``0 ln 0 = 0`` convention."""
    out = np.zeros(means.size, dtype=float)
    positive = means > 0.0
    out[positive] = means[positive] * np.log(means[positive])
    return out


def rate_change_stats_equal_halves(
    counts: np.ndarray,
    centers: np.ndarray,
    halves: np.ndarray,
    total_llr: bool,
) -> np.ndarray:
    """Poisson rate-change statistics at ``centers`` with equal halves.

    Matches :func:`~repro.signal.poisson.poisson_rate_change_statistic`
    applied to ``counts[c-h:c]`` vs ``counts[c:c+h]`` for every centre.
    One prefix sum gives every half-window sum, and all centres are
    evaluated in one elementwise pass.  The sums are exact only for whole
    numbers with a total below ``2**53`` (see the module docstring), so
    any other ``counts`` raise :class:`~repro.errors.ValidationError`.
    """
    counts = np.asarray(counts, dtype=float)
    prefix = np.concatenate(([0.0], np.cumsum(counts)))
    # NaN fails both comparisons, infinity the second.
    if not (np.all(counts == np.floor(counts)) and prefix[-1] < 2.0**53):
        raise ValidationError(
            "daily counts must be whole numbers with a total below 2**53"
        )
    h = halves
    mean1 = (prefix[centers] - prefix[centers - h]) / h
    mean2 = (prefix[centers + h] - prefix[centers]) / h
    total_days = h + h
    pooled = (h * mean1 + h * mean2) / total_days
    statistic = (
        (h / total_days) * _xlogx_vec(mean1)
        + (h / total_days) * _xlogx_vec(mean2)
        - _xlogx_vec(pooled)
    )
    statistic = np.maximum(statistic, 0.0)
    if total_llr:
        statistic = statistic * total_days
    return statistic


def two_cluster_balance(windows: np.ndarray) -> np.ndarray:
    """HC balance ``min(n1/n2, n2/n1)`` for a stack of value windows.

    ``windows`` is ``(num_windows, width)``; each row is clustered exactly
    like :func:`repro.signal.clustering.two_cluster_split_1d`: split the
    sorted row at its *last* largest adjacent gap, ``0.0`` when all values
    coincide.  Rows from different streams may be stacked freely -- each
    row is independent -- which is what lets the joint detector run one
    clustering pass for a whole dataset.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.size == 0:
        return np.empty(0, dtype=float)
    ordered = np.sort(windows, axis=1)
    gaps = np.diff(ordered, axis=1)
    max_gap = gaps.max(axis=1)
    # Last largest gap: first-max of the reversed gap rows.
    split_after = (gaps.shape[1] - 1) - np.argmax(gaps[:, ::-1], axis=1)
    n1 = split_after + 1
    n2 = windows.shape[1] - n1
    balance = np.minimum(n1 / n2, n2 / n1)
    return np.where(max_gap <= 0.0, 0.0, balance)

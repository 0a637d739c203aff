"""Plain per-window and per-series references for the library's kernels.

The detectors compute every indicator curve with the batched kernels of
:mod:`repro.signal.rolling` and :mod:`repro.signal.curves`.  The tests pin
those kernels, bit for bit, against the straightforward forms kept here:

- :func:`gaussian_mean_change_statistic` -- the mean-change GLRT energy of
  one window pair (paper Eq. 1), which
  :func:`~repro.signal.rolling.mean_change_stats` computes for many pairs.
- :func:`poisson_rate_change_statistic` -- the rate-change GLRT of one
  window pair (paper Eqs. 2-5), which
  :func:`~repro.signal.rolling.rate_change_stats_equal_halves` computes
  for every centre of a count series.
- :func:`two_cluster_split_1d` and :func:`single_linkage_two_clusters` --
  the two-cluster single-linkage cut of one window (the Matlab
  ``clusterdata()`` stand-in), which
  :func:`~repro.signal.rolling.two_cluster_balance` applies to a stack of
  windows.
- :func:`shrink_to_bounds` and :func:`centered_windows` -- the paper's
  shrinking edge windows, one centre at a time.
- :func:`arrival_rate_curve` -- the ARC curve of one daily-count series,
  which :func:`~repro.signal.curves.arrival_rate_curves` builds for every
  series of a batch.
- :func:`detect_u_shape` -- peaks and U-shape of a curve in one call.
- :class:`BetaEvidence` -- one rater's evidence counts, which
  :class:`~repro.trust.manager.TrustManager` keeps as columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import EmptyDataError, ValidationError
from repro.signal.curves import Curve, _empty_curve
from repro.signal.peaks import UShape, find_peaks, u_shape_from_peaks
from repro.signal.rolling import rate_change_stats_equal_halves
from repro.trust.beta import beta_trust_value
from repro.utils.validation import check_positive_int


# --------------------------------------------------------------------- #
# Gaussian mean-change GLRT (paper Eq. 1)
# --------------------------------------------------------------------- #


def gaussian_mean_change_statistic(x1: np.ndarray, x2: np.ndarray) -> float:
    """Return the mean-change energy statistic for two sample halves.

    ``2 * n1 * n2 / (n1 + n2) * (mean(x1) - mean(x2))^2`` -- the paper's
    ``MC(k)`` value, generalized to unbalanced halves.  Raises
    :class:`~repro.errors.EmptyDataError` if either half is empty, because
    a change point with no samples on one side is undefined.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    n1, n2 = x1.size, x2.size
    if n1 == 0 or n2 == 0:
        raise EmptyDataError("both window halves need at least one rating")
    diff = float(x1.mean() - x2.mean())
    return 2.0 * (n1 * n2) / (n1 + n2) * diff * diff


# --------------------------------------------------------------------- #
# Poisson rate-change GLRT (paper Eqs. 2-5)
# --------------------------------------------------------------------- #


def _xlogx(value: float) -> float:
    return value * np.log(value) if value > 0.0 else 0.0


def poisson_rate_change_statistic(
    y1: np.ndarray, y2: np.ndarray, total: bool = False
) -> float:
    """Return the left-hand side of paper Eq. 5 for two day-count halves.

    The statistic is non-negative (it is a scaled Kullback-Leibler
    divergence between the split model and the pooled model) and zero when
    both halves have identical sample rates.

    With ``total=True`` the statistic is multiplied by the window length
    ``a + b``, turning it into the total log-likelihood ratio
    ``ln(p[Y; lam1_hat, lam2_hat] / p[Y; lam_hat])``.  Under H0 the total
    LLR is asymptotically ``chi^2_1 / 2`` *independent of the window
    size*, which makes one absolute detection threshold valid for both
    full-size and edge-shrunk windows -- and makes slow-but-sustained rate
    changes (significant only over long windows) detectable.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    a, b = y1.size, y2.size
    if a == 0 or b == 0:
        raise EmptyDataError("both window halves need at least one day of counts")
    if np.any(y1 < 0) or np.any(y2 < 0):
        raise EmptyDataError("daily counts must be non-negative")
    total_days = a + b
    mean1 = float(y1.mean())
    mean2 = float(y2.mean())
    pooled = (a * mean1 + b * mean2) / total_days
    statistic = (
        (a / total_days) * _xlogx(mean1)
        + (b / total_days) * _xlogx(mean2)
        - _xlogx(pooled)
    )
    # Clamp tiny negative values caused by floating-point cancellation.
    statistic = max(float(statistic), 0.0)
    if total:
        statistic *= total_days
    return statistic


# --------------------------------------------------------------------- #
# Single-linkage two-cluster cut (Matlab ``clusterdata()``)
# --------------------------------------------------------------------- #


def two_cluster_split_1d(values: np.ndarray) -> np.ndarray:
    """Two-cluster single-linkage labels for 1-D ``values``.

    Returns an integer array of 0/1 labels aligned with ``values``.
    Cluster 0 is the cluster containing the smallest value.  For ``n == 1``
    the single point gets label 0 (there is no second cluster; callers that
    need two non-empty clusters must check sizes).  All-equal samples place
    everything in cluster 0.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyDataError("cannot cluster an empty sample")
    labels = np.zeros(arr.size, dtype=int)
    if arr.size == 1:
        return labels
    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    gaps = np.diff(sorted_vals)
    if gaps.size == 0 or float(gaps.max()) <= 0.0:
        return labels  # all values identical: one cluster
    # Last largest gap (see two_cluster_balance for the tie-breaking rationale).
    split_after = int(gaps.size - 1 - np.argmax(gaps[::-1]))
    labels_sorted = np.zeros(arr.size, dtype=int)
    labels_sorted[split_after + 1 :] = 1
    labels[order] = labels_sorted
    return labels


class _UnionFind:
    """Minimal union-find over ``n`` items with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.components = n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[max(ri, rj)] = min(ri, rj)
        self.components -= 1
        return True


def single_linkage_two_clusters(values: np.ndarray) -> np.ndarray:
    """General single-linkage agglomeration cut at two clusters.

    Merges the closest pair of clusters repeatedly (cluster distance =
    minimum pairwise point distance) until exactly two clusters remain.
    Returned labels use 0 for the cluster containing the smallest value.
    Quadratic in the sample size; prefer :func:`two_cluster_split_1d` for
    1-D data (they are equivalent there).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyDataError("cannot cluster an empty sample")
    n = arr.size
    labels = np.zeros(n, dtype=int)
    if n == 1:
        return labels
    if float(arr.max()) == float(arr.min()):
        # All-equal data forms a single cluster (any 2-cluster cut would
        # split at distance zero, which is no histogram change at all).
        return labels
    # All pairwise distances, sorted ascending; single linkage is Kruskal.
    ii, jj = np.triu_indices(n, k=1)
    dists = np.abs(arr[ii] - arr[jj])
    order = np.argsort(dists, kind="stable")
    uf = _UnionFind(n)
    for idx in order:
        if uf.components <= 2:
            break
        uf.union(int(ii[idx]), int(jj[idx]))
    if uf.components == 1:  # pragma: no cover - cannot happen with n >= 2
        return labels
    roots = [uf.find(i) for i in range(n)]
    # Cluster 0 must contain the smallest value.
    smallest_root = roots[int(np.argmin(arr))]
    labels = np.asarray([0 if r == smallest_root else 1 for r in roots], dtype=int)
    # Degenerate all-equal data collapses to one component before the loop
    # exits; in that case every root equals smallest_root and labels are 0.
    return labels


# --------------------------------------------------------------------- #
# Shrinking edge windows (Sections IV-B.2 and IV-C.2)
# --------------------------------------------------------------------- #


def shrink_to_bounds(center: int, half_width: int, n: int) -> Tuple[int, int]:
    """Return the largest symmetric half-open window around ``center``.

    The window is ``[center - h, center + h)`` with ``h`` as large as
    possible subject to ``h <= half_width`` and the window fitting inside
    ``[0, n)``.  At the very edges the window degenerates to a width-2
    window when possible, and to an empty window for ``n < 2``.

    The "centre" convention matches the paper's curves: the first half of
    the window is ``[center - h, center)`` and the second half is
    ``[center, center + h)``, so the tested change point sits *between*
    sample ``center - 1`` and sample ``center``.
    """
    half_width = check_positive_int(half_width, "half_width")
    if n < 2:
        return (0, 0)
    if not 1 <= center <= n - 1:
        # A change point needs at least one sample on each side.
        return (0, 0)
    h = min(half_width, center, n - center)
    return (center - h, center + h)


def centered_windows(n: int, half_width: int) -> List[Tuple[int, int, int]]:
    """Return ``(center, start, stop)`` for every valid change-point centre.

    Centres run over ``1 .. n-1`` (a change point must have at least one
    sample on each side).  Windows shrink symmetrically near the edges per
    :func:`shrink_to_bounds`.
    """
    half_width = check_positive_int(half_width, "half_width")
    out: List[Tuple[int, int, int]] = []
    for center in range(1, max(n, 1)):
        start, stop = shrink_to_bounds(center, half_width, n)
        if stop - start >= 2:
            out.append((center, start, stop))
    return out


# --------------------------------------------------------------------- #
# The ARC curve of one count series
# --------------------------------------------------------------------- #


def centered_half_widths(n: int, half_width: int) -> tuple:
    """``(centers, halves)`` for every valid change-point centre.

    Vectorized equivalent of :func:`centered_windows` for the
    symmetric-shrink case: centres run ``1 .. n-1`` and each window is
    ``[c - h, c + h)`` with ``h = min(half_width, c, n - c)`` (always
    ``>= 1``, so both halves are non-empty).
    """
    if n < 2:
        empty = np.empty(0, dtype=int)
        return empty, empty
    centers = np.arange(1, n)
    halves = np.minimum(half_width, np.minimum(centers, n - centers))
    return centers, halves


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


# --------------------------------------------------------------------- #
# U-shape of a curve in one call
# --------------------------------------------------------------------- #


def detect_u_shape(
    curve: Curve, threshold: float, min_separation: int = 2
) -> Optional[UShape]:
    """Detect a U-shape: two significant peaks with a valley between.

    :func:`~repro.signal.peaks.u_shape_from_peaks` over the peaks
    :func:`~repro.signal.peaks.find_peaks` finds with ``threshold`` and
    ``min_separation``.
    """
    return u_shape_from_peaks(curve, find_peaks(curve, threshold, min_separation))


# --------------------------------------------------------------------- #
# One rater's beta evidence
# --------------------------------------------------------------------- #


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

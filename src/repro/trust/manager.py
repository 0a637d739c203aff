"""The trust manager of the P-scheme (paper Procedure 1).

At a sequence of update epochs ``t_hat(1) < t_hat(2) < ...`` the manager
looks at every rating any rater provided (across **all** products) since
the previous epoch, counts how many of those ratings the detectors marked
suspicious, and folds the counts into each rater's beta evidence:

    F_i += f_i                 (suspicious ratings this epoch)
    S_i += n_i - f_i           (clean ratings this epoch)
    T_i  = (S_i + 1) / (S_i + F_i + 2)

Unknown raters read the manager's ``initial_trust``: 0.5 by default, the
paper's initial trust value and what zero evidence gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.trust.beta import beta_trust_value
from repro.types import RatingDataset

__all__ = ["TrustSnapshot", "TrustManager"]


@dataclass(frozen=True)
class TrustSnapshot:
    """Per-rater trust as of one epoch.

    ``trust`` maps every rater seen so far to its trust, in first-sighting
    order: by epoch, then product, then position.  A snapshot from
    :meth:`TrustManager.run` also carries ``by_code``: the trust of every
    rater of the dataset it ran on, indexed by the dataset's rater codes
    (:attr:`~repro.types.RatingDataset.rater_codes`), with the manager's
    initial trust for raters not seen yet.
    """

    epoch_time: float
    trust: Mapping[str, float]
    by_code: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def value(self, rater_id: str, default: float = 0.5) -> float:
        """Trust of ``rater_id`` at this epoch (``default`` if unseen)."""
        return self.trust.get(rater_id, default)


class TrustManager:
    """Implements Procedure 1 over a dataset plus suspicious-rating marks.

    Usage::

        manager = TrustManager()
        snapshots = manager.run(dataset, marks, epoch_times)
        trust_at_end = snapshots[-1]

    ``marks`` maps each product id to a boolean array aligned with that
    product's stream: ``True`` where the joint detector marked the rating
    suspicious.  A product without marks counts as clean.

    ``forgetting_factor`` enables the standard beta-reputation fading
    extension (Jøsang-Ismail): before each epoch's counts are folded in,
    the accumulated evidence is multiplied by the factor, so old behaviour
    matters exponentially less than recent behaviour.  1.0 (the default,
    and the paper's Procedure 1) never forgets; values below 1 let both
    honest raters recover from false alarms and attackers "redeem"
    themselves -- the trade-off the fading literature studies.

    Evidence is held as two float arrays, ``S`` and ``F``, with one row
    per rater in first-sighting order; :meth:`run`, :meth:`record_epoch`,
    :meth:`trust_of` and :meth:`snapshot` all read and write them.
    """

    def __init__(
        self,
        initial_trust: float = 0.5,
        forgetting_factor: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 < initial_trust < 1.0:
            raise ValidationError(
                f"initial_trust must be in (0, 1), got {initial_trust}"
            )
        if not 0.0 < forgetting_factor <= 1.0:
            raise ValidationError(
                f"forgetting_factor must be in (0, 1], got {forgetting_factor}"
            )
        self.initial_trust = initial_trust
        self.forgetting_factor = forgetting_factor
        self._registry = registry
        self.reset()

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics sink in effect (injected, else the global one)."""
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Drop all accumulated evidence."""
        self._rows: Dict[str, int] = {}
        self._successes = np.zeros(0)
        self._failures = np.zeros(0)

    def trust_of(self, rater_id: str) -> float:
        """Current trust for ``rater_id`` (initial trust when unseen)."""
        row = self._rows.get(rater_id)
        if row is None:
            return self.initial_trust
        return float(beta_trust_value(self._successes[row], self._failures[row]))

    def record_epoch(self, counts: Mapping[str, Tuple[int, int]]) -> None:
        """Fold one epoch's ``{rater: (n_i, f_i)}`` counts into evidence.

        ``n_i`` is the number of ratings rater ``i`` provided during the
        epoch and ``f_i`` how many of those were marked suspicious.  With
        a forgetting factor below 1, *all* raters' accumulated evidence is
        faded first (a rater silent this epoch still fades).
        """
        for rater_id, (n_i, f_i) in counts.items():
            if f_i > n_i:
                raise ValidationError(
                    f"rater {rater_id!r}: suspicious count {f_i} exceeds "
                    f"rating count {n_i}"
                )
            if f_i < 0:
                raise ValidationError(
                    f"rater {rater_id!r}: suspicious count {f_i} is negative"
                )
        if self.forgetting_factor < 1.0:
            self._successes *= self.forgetting_factor
            self._failures *= self.forgetting_factor
        for rater_id in counts:
            self._rows.setdefault(rater_id, len(self._rows))
        grown = np.zeros(len(self._rows) - self._successes.size)
        self._successes = np.concatenate([self._successes, grown])
        self._failures = np.concatenate([self._failures, grown])
        for rater_id, (n_i, f_i) in counts.items():
            row = self._rows[rater_id]
            self._successes[row] += n_i - f_i
            self._failures[row] += f_i

    def snapshot(self, epoch_time: float) -> TrustSnapshot:
        """Freeze the current per-rater trust values."""
        values = beta_trust_value(self._successes, self._failures).tolist()
        return TrustSnapshot(epoch_time, dict(zip(self._rows, values)))

    # ------------------------------------------------------------------ #

    def run(
        self,
        dataset: RatingDataset,
        marks: Mapping[str, np.ndarray],
        epoch_times: Sequence[float],
    ) -> List[TrustSnapshot]:
        """Execute Procedure 1 over ``dataset`` and return epoch snapshots.

        ``epoch_times`` must be finite and strictly increasing; epoch ``k``
        covers ratings with ``t_hat(k-1) <= time < t_hat(k)`` (the first
        epoch covers everything before ``t_hat(1)``; ratings at or after
        the last epoch time are not counted).  Returns one snapshot per
        epoch, taken *after* that epoch's update.

        Every rating's epoch comes from one ``np.searchsorted`` over the
        epoch times, each epoch's ``n_i`` and ``f_i`` from one
        ``np.bincount`` over the dataset's rater codes
        (:attr:`~repro.types.RatingDataset.rater_codes`).  The counts are
        integers and every rater is faded before it is added to, as in
        :meth:`record_epoch`, so the trust values are the same to the bit.
        """
        times = list(epoch_times)
        edges = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(edges)):
            raise ValidationError(f"epoch_times must be finite, got {times}")
        if np.any(np.diff(edges) <= 0):
            raise ValidationError("epoch_times must be strictly increasing")
        raters, codes = dataset.rater_codes
        n_epochs, n_raters = len(times), len(raters)
        # Every rating of every product, product-major.
        columns = [(np.zeros(0), np.zeros(0, np.intp), np.zeros(0, bool))]
        for product_id in dataset:
            stream = dataset[product_id]
            mask = marks.get(product_id)
            mask = (
                np.zeros(len(stream), bool) if mask is None
                else np.asarray(mask, dtype=bool)
            )
            if mask.size != len(stream):
                raise ValidationError(
                    f"marks for {product_id!r} have length {mask.size}, "
                    f"stream has {len(stream)}"
                )
            columns.append((stream.times, codes[product_id], mask))
        times_all, code, marked = (np.concatenate(c) for c in zip(*columns))
        # A rating's epoch is the number of epoch times at or before it;
        # n_epochs means it is not counted.
        epoch = np.searchsorted(edges, times_all, "right")
        position = np.flatnonzero(epoch < n_epochs)
        epoch, code, marked = epoch[position], code[position], marked[position]
        key = epoch * n_raters + code
        n = np.bincount(key, minlength=n_epochs * n_raters).reshape(n_epochs, n_raters)
        f = np.bincount(key[marked], minlength=n_epochs * n_raters).reshape(
            n_epochs, n_raters
        )
        # Evidence rows in first-sighting order (epoch, then product, then
        # position): the raters seen by the end of epoch k are the first
        # seen[k] rows.
        never = n_epochs * times_all.size
        first = np.full(n_raters, never)
        np.minimum.at(first, code, epoch * times_all.size + position)
        rows = np.argsort(first)[: np.count_nonzero(first < never)]
        seen = np.searchsorted(first[rows], times_all.size * np.arange(1, n_epochs + 1))
        good, bad = (n - f)[:, rows], f[:, rows]
        ids = [raters[row] for row in rows.tolist()]
        successes, failures = np.zeros(rows.size), np.zeros(rows.size)
        snapshots: List[TrustSnapshot] = []
        for k, epoch_time in enumerate(times):
            if self.forgetting_factor < 1.0:
                successes *= self.forgetting_factor
                failures *= self.forgetting_factor
            successes += good[k]
            failures += bad[k]
            values = beta_trust_value(successes[: seen[k]], failures[: seen[k]])
            by_code = np.full(n_raters, self.initial_trust)
            by_code[rows[: seen[k]]] = values
            by_code.setflags(write=False)
            snapshots.append(
                TrustSnapshot(epoch_time, dict(zip(ids, values.tolist())), by_code)
            )
        self._rows = dict(zip(ids, range(len(ids))))
        self._successes, self._failures = successes, failures
        registry = self.registry
        if registry.enabled:
            # Procedure 1 telemetry: how many epochs ran, how many raters
            # hold evidence, and where the final trust mass sits.
            registry.inc("trust.epochs", n_epochs)
            registry.inc("trust.runs")
            registry.set_gauge("trust.raters", float(len(ids)))
            if snapshots:
                registry.histogram("trust.value").observe_many(
                    snapshots[-1].trust.values()
                )
        return snapshots

"""P-scheme: the paper's signal-based reliable rating aggregation system.

The four-step pipeline of Section IV-A:

1. **Raw rating analysis** -- the four detectors (MC, H/L-ARC, HC, ME) run
   over every product stream.
2. **Joint detection** -- Path 1 / Path 2 integration marks suspicious
   ratings (:class:`~repro.detectors.integration.JointDetector`).
3. **Trust manager** -- Procedure 1 converts per-epoch suspicious counts
   into per-rater beta trust (:class:`~repro.trust.manager.TrustManager`);
   epochs coincide with the monthly score periods.
4. **Filter + aggregation** -- highly suspicious ratings (marked suspicious
   *and* from a rater whose trust fell below the filter threshold) are
   removed; the remaining ratings are combined by the trust-weighted
   average of Eq. 7, under which raters at or below neutral trust (0.5)
   carry no weight.

An optional second pass (``two_pass=True``) re-runs detection with the
first pass's trust feeding the trust-moderated MC segment rule (Section
IV-B.3 condition 2), then recomputes trust -- capturing the feedback loop
between detection and trust at roughly double the cost.

Detection on a given stream is independent of the rest of the dataset, so
per-stream detection reports are cached by content fingerprint; evaluating
hundreds of challenge submissions against the same fair world only pays
for the attacked products.  Whole results go through the scores cache all
schemes share (:meth:`AggregationScheme.cached_scores`).  Whether that
claim holds in practice is observable: both caches report
hits/misses/evictions into the active metrics registry
(``pscheme.report_cache.*``, ``pscheme.scores_cache.*``) and each pipeline
stage is timed under
``span.pscheme.monthly_scores.{detect,trust,aggregate}.seconds``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.aggregation.base import AggregationScheme, month_windows, window_cuts
from repro.aggregation.weighted import trust_weighted_average
from repro.detectors.base import DetectorConfig
from repro.detectors.integration import JointDetector
from repro.errors import ValidationError
from repro.obs import span
from repro.obs.registry import MetricsRegistry
from repro.trust.manager import TrustManager
from repro.types import RatingDataset

__all__ = ["PSchemeConfig", "PScheme"]


@dataclass(frozen=True)
class PSchemeConfig:
    """Tunables of the P-scheme.

    Attributes
    ----------
    detector:
        Detection-stage configuration (windows, thresholds).
    initial_trust:
        Trust assigned to unseen raters (paper: 0.5).
    filter_trust_threshold:
        "Highly suspicious" filter: a rating is dropped when it is marked
        suspicious and its rater's trust is below this value.  Suspicious
        ratings from better-trusted raters stay in (they are probably the
        fair collateral of an imprecise interval) and are merely
        down-weighted by Eq. 7.
    two_pass:
        Re-run detection with first-pass trust (see module docstring).
    forgetting_factor:
        Evidence fading per epoch (1.0 = the paper's Procedure 1, no
        fading; below 1 lets trust recover -- see
        :class:`~repro.trust.manager.TrustManager`).
    use_trust_weights:
        Ablation switch.  ``True`` (default) runs the full pipeline:
        trust-moderated filtering plus Eq. 7 weighting.  ``False`` reduces
        the scheme to *filter-only*: every rating the detectors marked is
        dropped and the survivors are averaged without trust -- isolating
        how much the trust layer contributes beyond raw detection.
    cache_size:
        Number of ``monthly_scores`` results kept (FIFO).
    """

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    initial_trust: float = 0.5
    filter_trust_threshold: float = 0.4
    two_pass: bool = False
    use_trust_weights: bool = True
    forgetting_factor: float = 1.0
    cache_size: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_trust < 1.0:
            raise ValidationError(
                f"initial_trust must be in (0, 1), got {self.initial_trust}"
            )
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ValidationError(
                f"forgetting_factor must be in (0, 1], got {self.forgetting_factor}"
            )
        if not 0.0 <= self.filter_trust_threshold <= 1.0:
            raise ValidationError(
                "filter_trust_threshold must be in [0, 1], got "
                f"{self.filter_trust_threshold}"
            )
        if self.cache_size < 0:
            raise ValidationError(f"cache_size must be >= 0, got {self.cache_size}")


class PScheme(AggregationScheme):
    """The proposed reliable rating aggregation system.

    ``registry`` injects a metrics sink for this scheme's telemetry
    (cache counters, stage timings); ``None`` uses the globally active
    registry at call time.  The injected registry also feeds the embedded
    :class:`JointDetector` and :class:`TrustManager`.
    """

    name = "P"
    metric_prefix = "pscheme"

    def __init__(
        self,
        config: Optional[PSchemeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else PSchemeConfig()
        self._registry = registry
        self.detector = JointDetector(self.config.detector, registry=registry)
        self._report_cache: "OrderedDict" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Detection with per-stream caching
    # ------------------------------------------------------------------ #

    def detect(
        self,
        dataset: RatingDataset,
        trust_lookup: Optional[Callable[[str], float]] = None,
    ) -> Dict[str, np.ndarray]:
        """Suspicious-rating masks per product.

        Results are cached per stream only for the trust-free pass (with a
        trust lookup the result depends on dataset-wide state).  Returned
        arrays are write-protected: cached masks are shared across calls,
        so a mutating caller would otherwise corrupt every later cache
        hit.  Copy before modifying.

        Detection itself runs through the joint detector's batched fast
        path: on the trust-free pass only the cache-missing streams are
        re-bundled into a dataset and analyzed together, so a warm cache
        pays one batched pass over the attacked products only.
        """
        registry = self.registry
        if trust_lookup is not None:
            reports = self.detector.analyze_batch(dataset, trust_lookup)
            marks: Dict[str, np.ndarray] = {}
            for product_id in dataset:
                mask = reports[product_id].suspicious
                mask.setflags(write=False)
                marks[product_id] = mask
            return marks
        marks = {}
        keys: Dict[str, tuple] = {}
        missing = []
        for product_id in dataset:
            stream = dataset[product_id]
            key = stream.fingerprint
            keys[product_id] = key
            cached = self._report_cache.get(key)
            if cached is None:
                missing.append(stream)
            else:
                marks[product_id] = cached
        evicted = 0
        if missing:
            reports = self.detector.analyze_batch(RatingDataset(missing))
            for stream in missing:
                mask = reports[stream.product_id].suspicious
                mask.setflags(write=False)
                self._report_cache[keys[stream.product_id]] = mask
                while len(self._report_cache) > max(4 * self.config.cache_size, 64):
                    self._report_cache.popitem(last=False)
                    evicted += 1
                marks[stream.product_id] = mask
        for name, count in (
            ("hits", len(dataset) - len(missing)),
            ("misses", len(missing)),
            ("evictions", evicted),
        ):
            if count:
                registry.inc(f"pscheme.report_cache.{name}", count)
        return {product_id: marks[product_id] for product_id in dataset}

    # ------------------------------------------------------------------ #

    def _trust_and_marks(self, dataset: RatingDataset, epoch_times, registry):
        """Run detection + Procedure 1, optionally with the feedback pass."""
        with span("detect", registry):
            marks = self.detect(dataset)
        manager = TrustManager(
            self.config.initial_trust, self.config.forgetting_factor,
            registry=registry,
        )
        with span("trust", registry):
            snapshots = manager.run(dataset, marks, epoch_times)
        if self.config.two_pass:
            final = snapshots[-1]
            lookup = lambda rid: final.value(rid, self.config.initial_trust)  # noqa: E731
            with span("detect", registry):
                marks = self.detect(dataset, trust_lookup=lookup)
            manager = TrustManager(
                self.config.initial_trust, self.config.forgetting_factor,
                registry=registry,
            )
            with span("trust", registry):
                snapshots = manager.run(dataset, marks, epoch_times)
        return marks, snapshots

    def monthly_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, np.ndarray]:
        return self.cached_scores(
            dataset,
            period_days,
            start_day,
            end_day,
            lambda: self._scores(dataset, period_days, start_day, end_day),
            self.config.cache_size,
        )

    def _scores(self, dataset, period_days, start_day, end_day):
        registry = self.registry
        with span("pscheme.monthly_scores", registry):
            windows = month_windows(start_day, end_day, period_days)
            epoch_times = [hi for _, hi in windows]
            marks, snapshots = self._trust_and_marks(
                dataset, epoch_times, registry
            )
            with span("aggregate", registry):
                cuts = window_cuts(dataset, period_days, start_day, end_day)
                return self._aggregate(dataset, cuts, marks, snapshots)

    def _aggregate(self, dataset, cuts, marks, snapshots):
        """Step 4: filter highly suspicious ratings, combine per Eq. 7.

        Window ``i`` of a product is the slice ``cuts[p][i]:cuts[p][i + 1]``
        of its time-sorted stream.  Each rating's trust is its window's
        snapshot indexed by the rating's rater code, and the filter is
        applied to a whole product at once; only Eq. 7's sums are taken
        window by window.
        """
        _, codes = dataset.rater_codes
        if self.config.use_trust_weights:
            by_code = np.stack([s.by_code for s in snapshots])
        scores: Dict[str, np.ndarray] = {}
        for product_id, cut in cuts.items():
            values = dataset[product_id].values[cut[0]:cut[-1]]
            suspicious = marks[product_id][cut[0]:cut[-1]]
            bounds = (cut - cut[0]).tolist()
            if self.config.use_trust_weights:
                window = np.repeat(np.arange(cut.size - 1), cut[1:] - cut[:-1])
                trusts = by_code[window, codes[product_id][cut[0]:cut[-1]]]
                keep = ~(suspicious & (trusts < self.config.filter_trust_threshold))
            else:
                # Filter-only ablation: drop marked ratings, plain mean.
                keep = ~suspicious
            series = np.full(cut.size - 1, np.nan)
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                kept = keep[lo:hi]
                if not kept.any():
                    continue
                if self.config.use_trust_weights:
                    series[i] = trust_weighted_average(
                        values[lo:hi][kept], trusts[lo:hi][kept]
                    )
                else:
                    series[i] = float(values[lo:hi][kept].mean())
            scores[product_id] = series
        return scores

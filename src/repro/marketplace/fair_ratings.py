"""Fair (honest) rating data generator.

Substitute for the paper's real nine-TV dataset.  The generator reproduces
the statistical features the paper's pipeline actually consumes:

- values on the 0..5 scale, fair mean around 4 (Section V-B),
- Poisson-process arrivals with gentle non-stationarity -- a weekly cycle
  and a slow popularity trend -- so the false-alarm behaviour of the
  arrival-rate detector is genuinely exercised (Section IV-F notes that
  fair ratings vary in mean and arrival rate even without attacks),
- per-rater leniency and noise, so majority-rule filters see realistic
  dispersion,
- optional value quantisation (half-star steps by default, like most
  shopping sites).

The generator is deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.marketplace.product import Product, default_tv_lineup
from repro.marketplace.rater import RaterProfile, activity_weights, build_rater_pool
from repro.types import DEFAULT_SCALE, RatingScale, RatingDataset, RatingStream
from repro.utils.rng import SeedLike, resolve_rng, spawn_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["FairRatingConfig", "FairRatingGenerator"]


@dataclass(frozen=True)
class FairRatingConfig:
    """Parameters of the fair-rating world.

    Attributes
    ----------
    start_day / duration_days:
        The challenge window proper; the paper's challenge spanned roughly
        82 days (April 25 to July 15, 2007).
    history_days:
        Pre-challenge rating history generated *before* ``start_day``
        (attacks are not allowed there).  Real products carry a rating
        history, and the change detectors need that baseline: an attack
        running from the first day of the challenge is still an abrupt
        change relative to the history.
    base_arrivals_per_day:
        Catalogue-average fair ratings per product per day, before the
        popularity multiplier.
    weekly_amplitude:
        Relative amplitude of the weekly arrival cycle (0 disables).
    trend_amplitude:
        Relative amplitude of a slow sinusoidal popularity drift across the
        whole window (0 disables).
    value_step:
        Quantisation step for rating values (``None`` keeps values
        continuous; 0.5 mimics half-star widgets; 1.0 whole stars).
    rater_pool_size:
        Number of distinct honest raters shared across all products.
    """

    start_day: float = 0.0
    duration_days: float = 82.0
    history_days: float = 45.0
    base_arrivals_per_day: float = 6.0
    weekly_amplitude: float = 0.25
    trend_amplitude: float = 0.15
    value_step: Optional[float] = 0.5
    rater_pool_size: int = 400
    scale: RatingScale = field(default_factory=lambda: DEFAULT_SCALE)

    def __post_init__(self) -> None:
        # NaN and inf pass plain comparisons; an infinite window never
        # finishes sampling, and a NaN one silently samples nothing.
        if not math.isfinite(self.start_day):
            raise ValidationError(f"start_day must be finite, got {self.start_day!r}")
        check_positive(self.duration_days, "duration_days")
        check_non_negative(self.history_days, "history_days")
        check_positive(self.base_arrivals_per_day, "base_arrivals_per_day")
        if not 0 <= self.weekly_amplitude < 1:
            raise ValidationError(
                f"weekly_amplitude must be in [0, 1), got {self.weekly_amplitude}"
            )
        if not 0 <= self.trend_amplitude < 1:
            raise ValidationError(
                f"trend_amplitude must be in [0, 1), got {self.trend_amplitude}"
            )
        if self.value_step is not None and self.value_step <= 0:
            raise ValidationError(f"value_step must be > 0 or None, got {self.value_step}")
        if self.rater_pool_size < 1:
            raise ValidationError(
                f"rater_pool_size must be >= 1, got {self.rater_pool_size}"
            )

    @property
    def history_start_day(self) -> float:
        """Where the pre-challenge history begins."""
        return self.start_day - self.history_days

    @property
    def end_day(self) -> float:
        """Exclusive end of the observation window."""
        return self.start_day + self.duration_days


class FairRatingGenerator:
    """Generates a :class:`~repro.types.RatingDataset` of honest ratings.

    Parameters
    ----------
    products:
        Catalogue to generate ratings for; defaults to the nine-TV lineup.
    config:
        World parameters; defaults match the paper's challenge setting.
    seed:
        Root seed; the generator is fully reproducible from it.
    rater_pool:
        Optional pre-built honest-rater pool (built from the seed
        otherwise).
    """

    def __init__(
        self,
        products: Optional[Sequence[Product]] = None,
        config: Optional[FairRatingConfig] = None,
        seed: SeedLike = None,
        rater_pool: Optional[List[RaterProfile]] = None,
    ) -> None:
        self.products = list(products) if products is not None else default_tv_lineup()
        if not self.products:
            raise ValidationError("at least one product is required")
        self.config = config if config is not None else FairRatingConfig()
        self._rng = resolve_rng(seed)
        if rater_pool is not None:
            self.rater_pool = list(rater_pool)
        else:
            self.rater_pool = build_rater_pool(
                self.config.rater_pool_size, seed=spawn_rng(self._rng, 1)[0]
            )
        self._weights = activity_weights(self.rater_pool)

    # ------------------------------------------------------------------ #

    def _daily_rate(self, product: Product, day: float) -> float:
        """Expected fair-rating arrivals for ``product`` on ``day``."""
        cfg = self.config
        weekly = 1.0 + cfg.weekly_amplitude * np.sin(2.0 * np.pi * day / 7.0)
        total_span = cfg.history_days + cfg.duration_days
        phase = (day - cfg.history_start_day) / total_span
        trend = 1.0 + cfg.trend_amplitude * np.sin(2.0 * np.pi * phase)
        return cfg.base_arrivals_per_day * product.popularity * weekly * trend

    def _sample_times(self, product: Product, rng: np.random.Generator) -> np.ndarray:
        """Arrival times via day-wise thinned Poisson sampling."""
        cfg = self.config
        times: List[float] = []
        day = np.floor(cfg.history_start_day)
        while day < cfg.end_day:
            rate = self._daily_rate(product, day + 0.5)
            count = int(rng.poisson(rate))
            if count:
                offsets = rng.uniform(0.0, 1.0, count)
                for off in offsets:
                    t = day + off
                    if cfg.history_start_day <= t < cfg.end_day:
                        times.append(float(t))
            day += 1.0
        return np.sort(np.asarray(times, dtype=float))

    def _quantize(self, values: np.ndarray) -> np.ndarray:
        step = self.config.value_step
        if step is None:
            return values
        return np.round(values / step) * step

    def generate_stream(self, product: Product, rng: np.random.Generator) -> RatingStream:
        """Generate the fair stream for a single product."""
        times = self._sample_times(product, rng)
        n = times.size
        rater_idx = rng.choice(len(self.rater_pool), size=n, p=self._weights)
        leniency = np.asarray([self.rater_pool[i].leniency for i in rater_idx])
        noise_std = np.asarray([self.rater_pool[i].noise_std for i in rater_idx])
        total_std = np.sqrt(product.opinion_std**2 + noise_std**2)
        raw = product.true_quality + leniency + rng.normal(0.0, 1.0, n) * total_std
        values = self.config.scale.clip(self._quantize(raw))
        rater_ids = [self.rater_pool[i].rater_id for i in rater_idx]
        return RatingStream(product.product_id, times, values, rater_ids)

    def generate(self) -> RatingDataset:
        """Generate the full fair dataset (all products)."""
        child_rngs = spawn_rng(self._rng, len(self.products))
        streams = [
            self.generate_stream(product, rng)
            for product, rng in zip(self.products, child_rngs)
        ]
        return RatingDataset(streams)

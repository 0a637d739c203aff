"""The Rating Challenge (paper Section III).

Rules reproduced here:

- a catalogue of nine similar products with real (here: synthetic) fair
  ratings over the challenge window;
- each participant controls **50 biased raters** and decides when each
  rater rates, which products, and with what values;
- each biased rater rates a given product **at most once** (the
  aggregation model of Eq. 7 assumes one rating per rater per object);
- the objective is to boost up to two products and downgrade up to two
  others;
- submissions are scored by the MP metric (30-day periods, top two
  monthly deviations per product) under a chosen aggregation scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackSubmission
from repro.errors import ChallengeRuleError, ValidationError
from repro.marketplace.fair_ratings import FairRatingConfig, FairRatingGenerator
from repro.marketplace.mp import MPResult, manipulation_power
from repro.marketplace.product import Product, default_tv_lineup
from repro.types import DEFAULT_SCALE, Rating, RatingDataset, RatingScale, RatingStream
from repro.utils.rng import SeedLike

__all__ = ["ChallengeConfig", "RatingChallenge", "LeaderboardEntry"]


@dataclass(frozen=True)
class ChallengeConfig:
    """Static parameters of a Rating Challenge instance."""

    n_biased_raters: int = 50
    max_boost_products: int = 2
    max_downgrade_products: int = 2
    period_days: float = 30.0
    biased_rater_prefix: str = "attacker"
    scale: RatingScale = field(default_factory=lambda: DEFAULT_SCALE)

    def __post_init__(self) -> None:
        if self.n_biased_raters < 1:
            raise ValidationError(
                f"n_biased_raters must be >= 1, got {self.n_biased_raters}"
            )
        if self.max_boost_products < 0 or self.max_downgrade_products < 0:
            raise ValidationError("product limits must be >= 0")
        if self.period_days <= 0:
            raise ValidationError(f"period_days must be > 0, got {self.period_days}")

    @property
    def max_attacked_products(self) -> int:
        """Upper bound on distinct products a submission may touch."""
        return self.max_boost_products + self.max_downgrade_products

    def biased_rater_ids(self) -> Tuple[str, ...]:
        """The rater ids the participant controls."""
        width = max(2, len(str(self.n_biased_raters - 1)))
        return tuple(
            f"{self.biased_rater_prefix}_{i:0{width}d}"
            for i in range(self.n_biased_raters)
        )


@dataclass(frozen=True)
class LeaderboardEntry:
    """One row of a challenge leaderboard."""

    rank: int
    submission_id: str
    strategy: str
    total_mp: float
    per_product: Dict[str, float]


class RatingChallenge:
    """A runnable instance of the paper's Rating Challenge.

    Parameters
    ----------
    products / fair_config / seed:
        Forwarded to :class:`FairRatingGenerator` when ``fair_dataset`` is
        not supplied.
    fair_dataset:
        Pre-generated fair data (lets several challenges share one world).
    config:
        Challenge rules.
    """

    def __init__(
        self,
        products: Optional[Sequence[Product]] = None,
        fair_config: Optional[FairRatingConfig] = None,
        config: Optional[ChallengeConfig] = None,
        seed: SeedLike = None,
        fair_dataset: Optional[RatingDataset] = None,
    ) -> None:
        self.products = list(products) if products is not None else default_tv_lineup()
        self.fair_config = fair_config if fair_config is not None else FairRatingConfig()
        self.config = config if config is not None else ChallengeConfig()
        if fair_dataset is not None:
            self.fair_dataset = fair_dataset
        else:
            generator = FairRatingGenerator(
                products=self.products, config=self.fair_config, seed=seed
            )
            self.fair_dataset = generator.generate()
        # When the whole world is a pure function of an integer seed
        # (all-default construction), record it: the parallel engine uses
        # it to rebuild this challenge identically in worker processes.
        reconstructible = (
            products is None
            and fair_config is None
            and config is None
            and fair_dataset is None
            and isinstance(seed, int)
            and not isinstance(seed, bool)
        )
        self.seed: Optional[int] = int(seed) if reconstructible else None
        self._biased_ids = set(self.config.biased_rater_ids())
        self._product_ids = {p.product_id for p in self.products}

    # ------------------------------------------------------------------ #
    # Time span
    # ------------------------------------------------------------------ #

    @property
    def start_day(self) -> float:
        """Challenge window start (from the fair-rating config)."""
        return self.fair_config.start_day

    @property
    def end_day(self) -> float:
        """Challenge window end (exclusive)."""
        return self.fair_config.end_day

    # ------------------------------------------------------------------ #
    # Rule validation
    # ------------------------------------------------------------------ #

    def validate(self, submission: AttackSubmission) -> None:
        """Raise :class:`~repro.errors.ChallengeRuleError` on any violation.

        Checks: attacked products exist and are at most the boost+downgrade
        budget; rater ids are the participant's biased raters; each biased
        rater rates each product at most once; times lie in the challenge
        window; values lie on the rating scale.
        """
        if len(submission.streams) > self.config.max_attacked_products:
            raise ChallengeRuleError(
                f"submission attacks {len(submission.streams)} products; the "
                f"challenge allows at most {self.config.max_attacked_products}"
            )
        for product_id, stream in submission.streams.items():
            if product_id not in self._product_ids:
                raise ChallengeRuleError(
                    f"product {product_id!r} is not part of the challenge"
                )
            seen_raters = set()
            for rating in stream:
                if rating.rater_id not in self._biased_ids:
                    raise ChallengeRuleError(
                        f"rater {rating.rater_id!r} is not one of the "
                        f"{self.config.n_biased_raters} biased raters"
                    )
                if rating.rater_id in seen_raters:
                    raise ChallengeRuleError(
                        f"rater {rating.rater_id!r} rates product "
                        f"{product_id!r} more than once"
                    )
                seen_raters.add(rating.rater_id)
                if not self.start_day <= rating.time < self.end_day:
                    raise ChallengeRuleError(
                        f"rating at day {rating.time:.2f} is outside the "
                        f"challenge window [{self.start_day}, {self.end_day})"
                    )
                if not self.config.scale.contains(rating.value):
                    raise ChallengeRuleError(
                        f"rating value {rating.value} is outside the scale "
                        f"[{self.config.scale.minimum}, {self.config.scale.maximum}]"
                    )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def attacked_dataset(self, submission: AttackSubmission) -> RatingDataset:
        """Fair data with the submission's unfair ratings merged in."""
        return self.fair_dataset.merge(submission.as_dict())

    def evaluate(
        self, submission: AttackSubmission, scheme, validate: bool = True
    ) -> MPResult:
        """Score one submission under ``scheme`` (any aggregation scheme)."""
        if validate:
            self.validate(submission)
        return manipulation_power(
            scheme,
            self.attacked_dataset(submission),
            self.fair_dataset,
            period_days=self.config.period_days,
            start_day=self.start_day,
            end_day=self.end_day,
        )

    def replay_online(
        self,
        scheme,
        submission: Optional[AttackSubmission] = None,
        validate: bool = True,
        registry=None,
        monitor_drift: bool = True,
        series_recorder=None,
    ):
        """Stream the challenge world through an online rating system.

        The (optionally attacked) dataset's time-sorted streams are cut
        at :attr:`start_day` by index.  The prefixes seed the system as
        pre-challenge history (calibrating the drift monitor).  The
        suffixes are ordered as ``sorted`` orders :class:`~repro.types.
        Rating` records, by one ``np.lexsort`` over their columns; each
        becomes a ``Rating`` once and is submitted.  Then every epoch
        that fits *completely* inside the challenge window is closed.  A
        trailing partial window stays accumulating: checking drift over a
        window the data only partly covers zero-pads the daily arrival
        counts, which systematically inflates the dispersion statistic
        and false-alarms on fair worlds.  Returns the
        :class:`~repro.online.system.OnlineRatingSystem` with its epoch
        reports -- the operational (drift/alert) view of the same world
        the batch evaluator scores.
        """
        from repro.online.system import OnlineRatingSystem

        if submission is not None and validate:
            self.validate(submission)
        dataset = (
            self.attacked_dataset(submission)
            if submission is not None
            else self.fair_dataset
        )
        # Streams are time-sorted, so one index cuts each at start_day.
        history: List[RatingStream] = []
        live: List[Tuple[RatingStream, int]] = []
        for stream in dataset.streams():
            cut = int(np.searchsorted(stream.times, self.start_day))
            if cut:
                history.append(stream.head(cut))
            if cut < len(stream):
                live.append((stream, cut))
        system = OnlineRatingSystem(
            scheme,
            start_day=self.start_day,
            period_days=self.config.period_days,
            history=RatingDataset(history) if history else None,
            registry=registry,
            monitor_drift=monitor_drift,
            series_recorder=series_recorder,
        )
        system.submit_many(_live_ratings(live))
        while system.current_epoch_end <= self.end_day:
            system.close_epoch()
        return system

    def leaderboard(
        self,
        submissions: Sequence[AttackSubmission],
        scheme,
        validate: bool = True,
        results: Optional[Sequence[MPResult]] = None,
    ) -> List[LeaderboardEntry]:
        """Rank submissions by total MP under ``scheme`` (descending).

        ``results`` (aligned with ``submissions``) skips re-evaluation --
        used when MP values were already computed, e.g. by the parallel
        evaluation engine.
        """
        if results is None:
            results = [
                self.evaluate(submission, scheme, validate=validate)
                for submission in submissions
            ]
        results = sorted(
            zip(submissions, results), key=lambda pair: -pair[1].total
        )
        return [
            LeaderboardEntry(
                rank=i + 1,
                submission_id=submission.submission_id,
                strategy=submission.strategy,
                total_mp=result.total,
                per_product=dict(result.per_product),
            )
            for i, (submission, result) in enumerate(results)
        ]


def _python_ranks(ids: List[str]) -> np.ndarray:
    """Rank of each id in Python's string order, as ``sorted`` ranks it.

    The ids stay Python strings: a numpy ``U`` array would drop trailing
    NULs and tie ``"a\x00"`` with ``"a"``.
    """
    rank = {key: i for i, key in enumerate(sorted(set(ids)))}
    return np.fromiter(map(rank.__getitem__, ids), dtype=np.intp, count=len(ids))


def _live_ratings(parts: Sequence[Tuple[RatingStream, int]]) -> List[Rating]:
    """Every ``(stream, cut)`` part's ratings from ``cut`` on, sorted.

    One stable ``np.lexsort`` over the columns reproduces ``sorted`` over
    ``Rating`` records, whose order is ``(time, rater_id, product_id,
    value)``: full ties keep dataset order.  Each ``Rating`` is built
    once, already in order.
    """
    if not parts:
        return []
    lengths = [len(stream) - cut for stream, cut in parts]
    product_ids = [stream.product_id for stream, _ in parts]
    raters = [rater for stream, cut in parts for rater in stream.rater_ids[cut:]]
    times = np.concatenate([stream.times[cut:] for stream, cut in parts])
    values = np.concatenate([stream.values[cut:] for stream, cut in parts])
    unfair = np.concatenate([stream.unfair[cut:] for stream, cut in parts])
    part_of = np.repeat(np.arange(len(parts)), lengths)
    order = np.lexsort(
        (values, _python_ranks(product_ids)[part_of], _python_ranks(raters), times)
    )
    return list(
        map(
            Rating,
            times[order].tolist(),
            map(raters.__getitem__, order.tolist()),
            map(product_ids.__getitem__, part_of[order].tolist()),
            values[order].tolist(),
            unfair[order].tolist(),
        )
    )

"""The composite attack generator -- paper Section V-E, Figure 8.

Pipeline, mirroring the figure:

1. **Rating value set generator** -- sample unfair values from the chosen
   (bias, variance) point (:mod:`repro.attacks.value_models`).
2. **Rating time set generator** -- sample unfair rating times from the
   chosen arrival model (:mod:`repro.attacks.time_models`).
3. **Value & time mapper** -- combine the two sets, optionally applying
   Procedure 3 correlation with the fair rating sequence
   (:mod:`repro.attacks.correlation`).
4. **Parameter controller** -- sweep or optimize the parameters against a
   rating system's observed attack effect (the Procedure 2 search lives in
   :mod:`repro.attacks.optimizer`; :meth:`AttackGenerator.optimize_values`
   wires it up).

The output is a valid challenge :class:`~repro.attacks.base.AttackSubmission`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.attacks.base import AttackSubmission, ProductTarget, build_attack_stream
from repro.attacks.correlation import (
    heuristic_correlation_match,
    identity_match,
    random_match,
)
from repro.attacks.time_models import TimeModel, UniformWindow
from repro.attacks.value_models import ValueSetSpec, generate_value_set
from repro.errors import AttackSpecError
from repro.types import DEFAULT_SCALE, RatingDataset, RatingScale
from repro.utils.rng import SeedLike, resolve_rng

__all__ = ["AttackSpec", "AttackGenerator"]

_CORRELATION_MODES = ("identity", "random", "heuristic")


@dataclass(frozen=True)
class AttackSpec:
    """One point in attack-parameter space, applied to every target.

    Attributes
    ----------
    bias_magnitude:
        Absolute mean shift; the sign is taken from each target's
        direction (+1 boost, -1 downgrade).
    std:
        Standard deviation of the unfair values.
    n_ratings:
        Unfair ratings per attacked product (at most the number of biased
        raters, since a rater rates a product once).
    time_model:
        Arrival model for the unfair rating times.
    correlation:
        ``"identity"``, ``"random"``, or ``"heuristic"`` (Procedure 3).
    value_step:
        Optional quantisation of unfair values.
    """

    bias_magnitude: float
    std: float
    n_ratings: int = 50
    time_model: TimeModel = field(default_factory=lambda: UniformWindow(0.0, 60.0))
    correlation: str = "identity"
    value_step: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bias_magnitude < 0:
            raise AttackSpecError(
                f"bias_magnitude must be >= 0, got {self.bias_magnitude}"
            )
        if self.n_ratings < 1:
            raise AttackSpecError(f"n_ratings must be >= 1, got {self.n_ratings}")
        if self.correlation not in _CORRELATION_MODES:
            raise AttackSpecError(
                f"correlation must be one of {_CORRELATION_MODES}, "
                f"got {self.correlation!r}"
            )


class AttackGenerator:
    """Generates challenge submissions from attack specifications.

    Parameters
    ----------
    fair_dataset:
        The fair ratings the attacker can observe (the challenge hands the
        participants the full dataset).  Used for the fair means that
        anchor bias, and for Procedure 3 correlation.
    rater_ids:
        The biased rater ids the attacker controls.
    scale:
        The rating scale values must respect.
    seed:
        Root seed for reproducible generation.
    """

    def __init__(
        self,
        fair_dataset: RatingDataset,
        rater_ids: Sequence[str],
        scale: Optional[RatingScale] = None,
        seed: SeedLike = None,
    ) -> None:
        if not rater_ids:
            raise AttackSpecError("at least one biased rater id is required")
        self.fair_dataset = fair_dataset
        self.rater_ids = tuple(rater_ids)
        self.scale = scale if scale is not None else DEFAULT_SCALE
        self._rng = resolve_rng(seed)
        self._counter = itertools.count()

    # ------------------------------------------------------------------ #

    def _map_values(self, spec: AttackSpec, product_id: str, times, values):
        if spec.correlation == "identity":
            return identity_match(times, values)
        if spec.correlation == "random":
            return random_match(times, values, seed=self._rng)
        fair_stream = self.fair_dataset[product_id]
        return heuristic_correlation_match(times, values, fair_stream)

    def generate_stream(self, target: ProductTarget, spec: AttackSpec):
        """The unfair stream for a single product target."""
        if target.product_id not in self.fair_dataset:
            raise AttackSpecError(
                f"product {target.product_id!r} is not in the fair dataset"
            )
        if spec.n_ratings > len(self.rater_ids):
            raise AttackSpecError(
                f"{spec.n_ratings} ratings requested but only "
                f"{len(self.rater_ids)} biased raters are available"
            )
        fair_mean = self.fair_dataset[target.product_id].mean_value()
        value_spec = ValueSetSpec(
            bias=target.direction * spec.bias_magnitude, std=spec.std
        )
        values = generate_value_set(
            spec.n_ratings,
            fair_mean,
            value_spec,
            scale=self.scale,
            seed=self._rng,
            value_step=spec.value_step,
        )
        times = spec.time_model.sample(spec.n_ratings, self._rng)
        times, values = self._map_values(spec, target.product_id, times, values)
        raters = list(self.rater_ids[: spec.n_ratings])
        self._rng.shuffle(raters)
        return build_attack_stream(target.product_id, times, values, raters)

    def generate(
        self,
        targets: Sequence[ProductTarget],
        spec: AttackSpec,
        submission_id: Optional[str] = None,
        per_target_specs: Optional[Dict[str, AttackSpec]] = None,
    ) -> AttackSubmission:
        """A full submission: one unfair stream per target.

        ``per_target_specs`` optionally overrides the spec for specific
        product ids (e.g. different timing for boost and downgrade
        targets).
        """
        if not targets:
            raise AttackSpecError("at least one product target is required")
        seen: set = set()
        streams = {}
        for target in targets:
            if target.product_id in seen:
                raise AttackSpecError(
                    f"duplicate target for product {target.product_id!r}"
                )
            seen.add(target.product_id)
            target_spec = (per_target_specs or {}).get(target.product_id, spec)
            streams[target.product_id] = self.generate_stream(target, target_spec)
        if submission_id is None:
            submission_id = f"generated_{next(self._counter):04d}"
        return AttackSubmission(
            submission_id=submission_id,
            streams=streams,
            strategy="generator",
            params={
                "bias_magnitude": spec.bias_magnitude,
                "std": spec.std,
                "n_ratings": spec.n_ratings,
                "correlation": spec.correlation,
                "time_model": type(spec.time_model).__name__,
                "targets": {t.product_id: t.direction for t in targets},
            },
        )

    # ------------------------------------------------------------------ #

    def evaluator(
        self,
        targets: Sequence[ProductTarget],
        challenge,
        scheme,
        base_spec: Optional[AttackSpec] = None,
        randomize_timing: bool = True,
        min_duration: float = 30.0,
    ):
        """An ``evaluate(bias, std) -> MP`` closure for Procedure 2.

        Binds this generator, a challenge, and a defense scheme so the
        region search (:func:`repro.attacks.optimizer.heuristic_region_search`)
        can probe (bias, variance) points.

        With ``randomize_timing=True`` (default) each probe samples a fresh
        attack window and rating count -- Procedure 2 says to "randomly
        generate m set of unfair rating data" at the centre point, and only
        bias and variance are pinned by the search; the non-value
        dimensions are part of the random generation.  With ``False``,
        ``base_spec`` supplies fixed timing for every probe (useful for
        ablations isolating the value dimensions).
        """
        template = base_spec if base_spec is not None else AttackSpec(1.0, 0.5)
        span = challenge.end_day - challenge.start_day
        max_raters = len(self.rater_ids)

        def sample_spec(bias_magnitude: float, std: float) -> AttackSpec:
            if not randomize_timing:
                time_model = template.time_model
                n_ratings = template.n_ratings
            else:
                duration = float(
                    self._rng.uniform(min(min_duration, span - 2.0), span - 2.0)
                )
                start = challenge.start_day + float(
                    self._rng.uniform(0.0, span - duration)
                )
                time_model = UniformWindow(start, duration)
                low = min(max(10, int(0.8 * max_raters)), max_raters)
                n_ratings = int(self._rng.integers(low, max_raters + 1))
            return AttackSpec(
                bias_magnitude=abs(bias_magnitude),
                std=std,
                n_ratings=n_ratings,
                time_model=time_model,
                correlation=template.correlation,
                value_step=template.value_step,
            )

        def evaluate(bias_magnitude: float, std: float) -> float:
            submission = self.generate(targets, sample_spec(bias_magnitude, std))
            return challenge.evaluate(submission, scheme).total

        return evaluate

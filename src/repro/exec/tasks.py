"""Pickleable, deterministic work units for the evaluation engine.

Every headline artifact of the paper is a fan-out over independent MP
evaluations: the Figures 2-4 surfaces and the E7 comparison evaluate each
``(submission, scheme)`` pair, Procedure 2 and the landscape sweep probe
``(bias, sigma)`` points, and the sensitivity sweeps probe detector
thresholds.  Each unit is expressed here as a frozen dataclass
:class:`EvalTask` that

- carries only value-like fields, so it pickles cheaply into a pool
  worker and fingerprints stably for the MP cache
  (:meth:`EvalTask.fingerprint`);
- derives any randomness it needs from
  :func:`~repro.exec.hashing.derive_seed` over its own identity, so its
  result is bit-identical whether it runs inline, chunked, or in another
  process, in any order;
- rebuilds the expensive shared world (challenge, population, scheme)
  through a process-local registry.  In the parent process the registry
  is pre-seeded by :func:`share_context` / :func:`share_challenge`;
  forked pool workers inherit it for free, and spawn-style workers
  rebuild deterministically from the recorded seeds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.attacks.time_models import TimeModel
from repro.errors import ValidationError
from repro.exec.hashing import derive_seed, stable_fingerprint

__all__ = [
    "EvalTask",
    "PopulationEvalTask",
    "RegionProbeTask",
    "LandscapeProbeTask",
    "SensitivityTask",
    "share_context",
    "get_shared_context",
    "share_challenge",
    "get_shared_challenge",
    "get_shared_scheme",
    "region_probe_batch",
    "hermetic_schemes",
    "hermetic_schemes_active",
]

#: Process-local registry of expensive shared objects, keyed by the seeds
#: that rebuild them.  Forked workers inherit the parent's entries; fresh
#: processes lazily reconstruct (deterministically) from the keys.
_SHARED: Dict[tuple, object] = {}

#: When True, tasks build a *fresh* scheme per run instead of sharing the
#: process-local instance.  Results are unchanged (scheme caches are pure
#: memoization) but telemetry becomes topology-invariant: cache hit/miss
#: counts no longer depend on how tasks were packed onto processes.
_HERMETIC = False


@contextmanager
def hermetic_schemes(enabled: bool = True) -> Iterator[None]:
    """Run a block with per-task (non-shared) scheme instances.

    The execution engine wraps each captured task in this when
    ``hermetic_telemetry`` is on, so a sweep's merged metrics are
    bit-identical at any worker count -- at the cost of giving up
    cross-task report-cache amortization inside each process.
    """
    global _HERMETIC
    previous = _HERMETIC
    _HERMETIC = bool(enabled)
    try:
        yield
    finally:
        _HERMETIC = previous


def hermetic_schemes_active() -> bool:
    """Whether tasks should build fresh (non-shared) scheme instances."""
    return _HERMETIC


def share_context(context) -> None:
    """Register an :class:`~repro.experiments.context.ExperimentContext`.

    Call before dispatching :class:`PopulationEvalTask`\\ s so the serial
    path and fork-started workers reuse the already-built world instead
    of regenerating it.
    """
    _SHARED[("context", int(context.seed), int(context.population_size))] = context


def get_shared_context(seed: int, population_size: int):
    """The shared context for ``(seed, population_size)`` (built on miss)."""
    key = ("context", int(seed), int(population_size))
    context = _SHARED.get(key)
    if context is None:
        from repro.experiments.context import ExperimentContext

        context = ExperimentContext(seed=seed, population_size=population_size)
        _SHARED[key] = context
    return context


def share_challenge(challenge, seed=None) -> None:
    """Register a default-constructed challenge under its root seed."""
    seed = seed if seed is not None else getattr(challenge, "seed", None)
    if seed is None:
        raise ValidationError(
            "challenge is not reconstructible from a seed; build it as "
            "RatingChallenge(seed=...) to use the parallel engine"
        )
    _SHARED[("challenge", int(seed))] = challenge


def get_shared_challenge(seed: int):
    """The shared challenge for ``seed`` (default-constructed on miss)."""
    key = ("challenge", int(seed))
    challenge = _SHARED.get(key)
    if challenge is None:
        from repro.marketplace.challenge import RatingChallenge

        challenge = RatingChallenge(seed=int(seed))
        _SHARED[key] = challenge
    return challenge


def get_shared_scheme(scope: tuple, scheme_name: str):
    """A per-process scheme instance for ``scheme_name`` within ``scope``.

    Sharing one instance per process lets each scheme's content-keyed
    caches amortize across the tasks of one sweep, exactly as the serial
    loop shares the context's instance: the P-scheme's report cache, and
    the scores cache of every scheme, which scores the fair world once
    per instance instead of once per task.  Results never depend on the
    cache state (the caches are pure memoization), so this cannot break
    serial/parallel bit-identity.
    """
    factory = _scheme_factory(scheme_name)
    if _HERMETIC:
        return factory()
    key = ("scheme", scope, scheme_name)
    scheme = _SHARED.get(key)
    if scheme is None:
        scheme = factory()
        _SHARED[key] = scheme
    return scheme


def _scheme_factory(scheme_name: str):
    from repro.aggregation import SCHEMES

    if scheme_name not in SCHEMES:
        raise ValidationError(
            f"unknown scheme {scheme_name!r}; expected one of {sorted(SCHEMES)}"
        )
    return SCHEMES[scheme_name]


# --------------------------------------------------------------------- #
# Work units
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class EvalTask:
    """One deterministic MP evaluation.

    Subclasses are frozen dataclasses whose fields fully determine the
    result; :attr:`fingerprint` hashes the class name plus every field,
    which is the cache key and the basis for derived RNG seeds.
    """

    @property
    def fingerprint(self) -> str:
        """Stable content hash of this task (class + all fields)."""
        return stable_fingerprint(self)

    def run(self):
        """Execute the task and return its (pickleable) result."""
        raise NotImplementedError


@dataclass(frozen=True)
class PopulationEvalTask(EvalTask):
    """Score population submission ``index`` under one scheme.

    The world and population are rebuilt (or fetched from the shared
    registry) from ``(root_seed, population_size)``, so the result is a
    pure function of the fields -- identical in every process.
    """

    root_seed: int
    population_size: int
    scheme_name: str
    index: int

    def run(self):
        context = get_shared_context(self.root_seed, self.population_size)
        submission = context.population[self.index]
        if _HERMETIC:
            scheme = _scheme_factory(self.scheme_name)()
        else:
            scheme = context.scheme(self.scheme_name)
        return context.challenge.evaluate(submission, scheme, validate=False)


@dataclass(frozen=True)
class RegionProbeTask(EvalTask):
    """One Procedure 2 probe: attack at ``(bias, std)``, return total MP.

    The probe's random draws (timing window, rating count, values) come
    from an RNG seeded by ``derive_seed(seed_root, bias, std, trial)``,
    which is what makes a parallel region search reproduce the serial
    one round for round.
    """

    challenge_seed: int
    scheme_name: str
    targets: Tuple  # of ProductTarget
    bias: float
    std: float
    trial: int
    seed_root: int

    def run(self) -> float:
        from repro.attacks.generator import AttackGenerator

        challenge = get_shared_challenge(self.challenge_seed)
        scheme = get_shared_scheme(
            ("challenge", self.challenge_seed), self.scheme_name
        )
        rng = np.random.default_rng(
            derive_seed(self.seed_root, "region-probe", self.bias, self.std, self.trial)
        )
        generator = AttackGenerator(
            challenge.fair_dataset,
            challenge.config.biased_rater_ids(),
            scale=challenge.config.scale,
            seed=rng,
        )
        evaluate = generator.evaluator(list(self.targets), challenge, scheme)
        return float(evaluate(self.bias, self.std))


@dataclass(frozen=True)
class LandscapeProbeTask(EvalTask):
    """One landscape grid point: best MP over ``probes`` fresh attacks."""

    challenge_seed: int
    scheme_name: str
    bias: float
    std: float
    probes: int
    n_ratings: int
    time_model: TimeModel  # a frozen dataclass (UniformWindow et al.)
    targets: Tuple  # of ProductTarget
    seed_root: int

    def run(self) -> float:
        from repro.attacks.generator import AttackGenerator, AttackSpec

        challenge = get_shared_challenge(self.challenge_seed)
        scheme = get_shared_scheme(
            ("challenge", self.challenge_seed), self.scheme_name
        )
        rng = np.random.default_rng(
            derive_seed(self.seed_root, "landscape", self.bias, self.std)
        )
        generator = AttackGenerator(
            challenge.fair_dataset,
            challenge.config.biased_rater_ids(),
            scale=challenge.config.scale,
            seed=rng,
        )
        spec = AttackSpec(
            bias_magnitude=abs(float(self.bias)),
            std=float(self.std),
            n_ratings=self.n_ratings,
            time_model=self.time_model,
        )
        best = 0.0
        for _ in range(self.probes):
            submission = generator.generate(list(self.targets), spec)
            result = challenge.evaluate(submission, scheme, validate=False)
            best = max(best, result.total)
        return best


@dataclass(frozen=True)
class SensitivityTask(EvalTask):
    """One sensitivity-sweep point: measure a detector config value."""

    parameter: str
    value: float
    n_fair_worlds: int
    n_attacks: int
    attack_bias: float
    attack_std: float
    attack_ratings: int
    attack_duration: float
    seed: int

    def run(self):
        from repro.experiments.sensitivity import measure_operating_point

        return measure_operating_point(
            self.parameter,
            self.value,
            n_fair_worlds=self.n_fair_worlds,
            n_attacks=self.n_attacks,
            attack_bias=self.attack_bias,
            attack_std=self.attack_std,
            attack_ratings=self.attack_ratings,
            attack_duration=self.attack_duration,
            seed=self.seed,
        )


# --------------------------------------------------------------------- #
# Batch adapters
# --------------------------------------------------------------------- #


def region_probe_batch(
    evaluator,
    challenge_seed: int,
    scheme_name: str,
    targets: Sequence,
    seed_root: int,
) -> Callable[[Sequence[Tuple[float, float, int]]], List[float]]:
    """A Procedure 2 ``probe_batch`` backed by ``evaluator``.

    The returned callable maps ``[(bias, std, count), ...]`` requests to
    subarea scores (max MP over ``count`` probes), dispatching every
    probe of a round through the evaluator in one shot -- the whole
    round parallelizes, and cached probes are never regenerated.
    """
    targets = tuple(targets)

    def probe_batch(requests: Sequence[Tuple[float, float, int]]) -> List[float]:
        tasks: List[RegionProbeTask] = []
        spans: List[Tuple[int, int]] = []
        for bias, std, count in requests:
            start = len(tasks)
            tasks.extend(
                RegionProbeTask(
                    challenge_seed=int(challenge_seed),
                    scheme_name=scheme_name,
                    targets=targets,
                    bias=float(bias),
                    std=float(std),
                    trial=trial,
                    seed_root=int(seed_root),
                )
                for trial in range(count)
            )
            spans.append((start, len(tasks)))
        values = evaluator.map(tasks)
        return [max(values[start:stop]) for start, stop in spans]

    return probe_batch

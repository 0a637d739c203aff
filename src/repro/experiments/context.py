"""Shared world + population + cached evaluations for the experiments.

All of the paper's evaluation figures are computed over the same objects:
one fair-rating world, one population of challenge submissions, and the
three defense schemes.  Building them is the expensive part (the P-scheme
runs five detectors per product per submission), so the context constructs
everything lazily and memoizes MP results per scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.aggregation import SCHEMES
from repro.attacks.base import AttackSubmission
from repro.attacks.population import PopulationConfig, generate_population
from repro.errors import ValidationError
from repro.exec import MPCache, ParallelEvaluator, PopulationEvalTask, share_context
from repro.marketplace.challenge import RatingChallenge
from repro.marketplace.mp import MPResult

__all__ = ["ExperimentContext"]


@dataclass
class ExperimentContext:
    """Lazily built world, population, schemes, and MP evaluations.

    Parameters
    ----------
    seed:
        Root seed for the fair world (population uses ``seed + 1``).
    population_size:
        Number of synthetic challenge submissions (251 reproduces the
        paper; tests use smaller populations).
    workers:
        Worker processes for population evaluation; ``0`` (default)
        evaluates inline.  Parallel results are bit-identical to serial
        ones (see :mod:`repro.exec`).
    cache_dir:
        Optional directory for the persistent MP cache; re-running the
        same experiment turns evaluations into disk reads.
    hermetic_telemetry:
        Build per-task scheme instances when telemetry is collected, so
        merged metrics are bit-identical at any worker count (see
        :class:`~repro.exec.ParallelEvaluator`).  Off by default.
    """

    seed: int = 2008
    population_size: int = 251
    workers: int = 0
    cache_dir: Optional[str] = None
    hermetic_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValidationError(
                f"population_size must be >= 1, got {self.population_size}"
            )
        self._challenge: Optional[RatingChallenge] = None
        self._population: Optional[List[AttackSubmission]] = None
        self._schemes: Dict[str, object] = {}
        self._results: Dict[str, Dict[str, MPResult]] = {}
        self._evaluator: Optional[ParallelEvaluator] = None

    # ------------------------------------------------------------------ #

    @property
    def challenge(self) -> RatingChallenge:
        """The challenge world (built on first use)."""
        if self._challenge is None:
            self._challenge = RatingChallenge(seed=self.seed)
        return self._challenge

    @property
    def population(self) -> List[AttackSubmission]:
        """The synthetic submission population (built on first use)."""
        if self._population is None:
            config = PopulationConfig(size=self.population_size)
            self._population = generate_population(
                self.challenge, config, seed=self.seed + 1
            )
        return self._population

    def scheme(self, name: str):
        """A shared scheme instance by name (``"P"``, ``"SA"``, ``"BF"``)."""
        if name not in SCHEMES:
            raise ValidationError(
                f"unknown scheme {name!r}; expected {tuple(SCHEMES)}"
            )
        if name not in self._schemes:
            self._schemes[name] = SCHEMES[name]()
        return self._schemes[name]

    # ------------------------------------------------------------------ #

    @property
    def evaluator(self) -> ParallelEvaluator:
        """The task evaluator backing :meth:`results_for` (built lazily)."""
        if self._evaluator is None:
            cache = MPCache(cache_dir=self.cache_dir) if self.cache_dir else None
            self._evaluator = ParallelEvaluator(
                workers=self.workers,
                cache=cache,
                hermetic_telemetry=self.hermetic_telemetry,
            )
        return self._evaluator

    def close(self) -> None:
        """Release the evaluator's worker pool, if one was started."""
        if self._evaluator is not None:
            self._evaluator.close()

    def results_for(self, scheme_name: str) -> Dict[str, MPResult]:
        """MP results of the whole population under one scheme (cached).

        Each submission is one :class:`~repro.exec.tasks.PopulationEvalTask`;
        with ``workers > 0`` the population fans out across processes, and
        with ``cache_dir`` set repeated runs replay from disk.  Either way
        the values are bit-identical to the plain serial loop.
        """
        if scheme_name not in self._results:
            self.scheme(scheme_name)  # validates the name eagerly
            population = self.population  # build world before forking
            share_context(self)
            tasks = [
                PopulationEvalTask(
                    root_seed=self.seed,
                    population_size=self.population_size,
                    scheme_name=scheme_name,
                    index=index,
                )
                for index in range(len(population))
            ]
            values = self.evaluator.map(tasks)
            self._results[scheme_name] = {
                submission.submission_id: value
                for submission, value in zip(population, values)
            }
        return self._results[scheme_name]

    def max_total_mp(self, scheme_name: str) -> float:
        """The population's best total MP under one scheme."""
        results = self.results_for(scheme_name)
        return max(result.total for result in results.values())

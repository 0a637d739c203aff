"""The benchmark's three workloads, driven through the public ``repro`` API.

A workload has two halves:

- ``prepare(seed, size)`` builds its inputs from the seed: the challenge
  world and, where the workload needs one, the submission population.
  This is the set-up the ``setup_s`` metric times.
- ``run_pass(inputs, oplog)`` runs one pass of ops over those inputs.
  :class:`OpLog` times every op at its boundary, counts the ops that
  raise, and keeps a short summary of each op's output for checking.

Every pass does the same work: schemes, report caches and the engine's
shared state start cold, as in a fresh process.  Everything runs in this
process (``workers=0``), on one thread.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.aggregation import PScheme
from repro.attacks.base import ProductTarget
from repro.attacks.optimizer import SearchArea, heuristic_region_search
from repro.exec import (
    ParallelEvaluator,
    PopulationEvalTask,
    RegionProbeTask,
    region_probe_batch,
    share_challenge,
)
from repro.exec import tasks as exec_tasks
from repro.experiments.context import ExperimentContext
from repro.marketplace.challenge import RatingChallenge

#: Inputs per pass at each scale: submissions for ``headline`` and
#: ``online``, probes per subarea for ``search``.
SIZES = {
    "headline": {"full": 20, "tiny": 3},
    "search": {"full": 2, "tiny": 1},
    "online": {"full": 20, "tiny": 2},
}

SCHEMES = ("P", "SA", "BF")

#: Procedure 2's default area of the (bias, sigma) plane.
SEARCH_AREA = SearchArea(bias_min=-4.0, bias_max=0.0, std_min=0.0, std_max=2.0)


class ForcedOpFailure(RuntimeError):
    """Raised in place of an op when a test asks for a failing op."""


def sha(payload: Any) -> str:
    """Short content digest of a JSON-able payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class OpLog:
    """Times ops at their boundary and records each op's output summary.

    An op that raises is counted in :attr:`failed`, its latency and
    output are recorded as ``None``, and the run goes on.  ``fail_op``
    makes the op with that index raise :class:`ForcedOpFailure` instead
    of running; the benchmark's self-test uses it.
    """

    def __init__(self, fail_op: Optional[int] = None) -> None:
        self.fail_op = fail_op
        self.attempted = 0
        self.failed = 0
        self.latencies: List[Optional[float]] = []
        self.outputs: List[Any] = []
        self.errors: List[str] = []

    def call(
        self,
        summarize: Callable[[Any], Any],
        failure_value: Any,
        fn: Callable,
        *args,
        **kwargs,
    ):
        """Run one op; return its value, or ``failure_value`` if it raised."""
        index = self.attempted
        self.attempted += 1
        start = perf_counter()
        try:
            if index == self.fail_op:
                raise ForcedOpFailure(f"op {index} forced to fail")
            value = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failed += 1
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            self.latencies.append(None)
            self.outputs.append(None)
            return failure_value
        self.latencies.append(perf_counter() - start)
        self.outputs.append(summarize(value))
        return value

    @contextmanager
    def timing(
        self, task_cls: type, summarize: Callable[[Any], Any], failure_value: Any
    ) -> Iterator[None]:
        """Time every ``task_cls.run`` call made inside the block as one op."""
        original = task_cls.__dict__["run"]

        def run(task):
            return self.call(summarize, failure_value, original, task)

        task_cls.run = run
        try:
            yield
        finally:
            task_cls.run = original

    def mark_failed(self, index: int, why: str) -> None:
        """Count a completed op whose output failed its check."""
        self.failed += 1
        self.latencies[index] = None
        self.errors.append(f"op {index}: output check failed: {why}")


# --------------------------------------------------------------------- #
# headline
# --------------------------------------------------------------------- #


class Headline:
    """The paper's E7 comparison: a population scored under P, SA and BF.

    One op is one (submission, scheme) MP evaluation, a
    :class:`~repro.exec.PopulationEvalTask` run by
    ``ExperimentContext(workers=0).results_for``.
    """

    name = "headline"

    def prepare(self, seed: int, size: int) -> ExperimentContext:
        context = ExperimentContext(seed=seed, population_size=size, workers=0)
        context.population  # builds the world, then the population
        return context

    @staticmethod
    def summarize(result) -> float:
        return float(result.total)

    def run_pass(self, context: ExperimentContext, oplog: OpLog) -> Dict[str, Any]:
        with oplog.timing(PopulationEvalTask, self.summarize, None):
            for scheme in SCHEMES:
                context.results_for(scheme)
        return {"evaluator_workers": context.evaluator.workers}

    def check_pass(self, outputs: List[Any], extra: Dict[str, Any]) -> List[str]:
        """The paper's shape: the P-scheme's best MP is below SA's and BF's."""
        size = len(outputs) // len(SCHEMES)
        best = {}
        for i, scheme in enumerate(SCHEMES):
            totals = [v for v in outputs[i * size : (i + 1) * size] if v is not None]
            best[scheme] = max(totals) if totals else float("nan")
        if not (best["P"] < best["SA"] and best["P"] < best["BF"]):
            return [f"P-scheme max MP {best['P']} is not below SA/BF {best}"]
        return []

    def pass_digest(self, outputs: List[Any], extra: Dict[str, Any]) -> str:
        return sha(outputs)


# --------------------------------------------------------------------- #
# search
# --------------------------------------------------------------------- #


@dataclass
class SearchInputs:
    seed: int
    probes: int
    challenge: RatingChallenge
    targets: Tuple[ProductTarget, ...]


class Search:
    """Procedure 2 against the P-scheme, through the ``repro.exec`` engine.

    One op is one :class:`~repro.exec.RegionProbeTask`: generate an
    attack on the four lowest-volume products, validate it, score its MP.
    """

    name = "search"

    def prepare(self, seed: int, size: int) -> SearchInputs:
        challenge = RatingChallenge(seed=seed)
        fair = challenge.fair_dataset
        by_volume = sorted(fair.product_ids, key=lambda pid: len(fair[pid]))
        targets = (
            ProductTarget(by_volume[0], -1),
            ProductTarget(by_volume[1], -1),
            ProductTarget(by_volume[2], +1),
            ProductTarget(by_volume[3], +1),
        )
        return SearchInputs(seed, size, challenge, targets)

    @staticmethod
    def summarize(value) -> float:
        return float(value)

    def run_pass(self, inputs: SearchInputs, oplog: OpLog) -> Dict[str, Any]:
        # Start from the engine state of a fresh process: no shared scheme
        # (so the P-scheme's report cache is cold) and only this world.
        exec_tasks._SHARED.clear()
        share_challenge(inputs.challenge, seed=inputs.seed)
        evaluator = ParallelEvaluator(workers=0)
        with oplog.timing(RegionProbeTask, self.summarize, float("nan")):
            result = heuristic_region_search(
                None,
                SEARCH_AREA,
                n_subareas=4,
                probes_per_subarea=inputs.probes,
                probe_batch=region_probe_batch(
                    evaluator,
                    challenge_seed=inputs.seed,
                    scheme_name="P",
                    targets=inputs.targets,
                    seed_root=inputs.seed + 5,
                ),
            )
        trajectory = [
            [list(r.scores), r.best_index, list(r.best_subarea.center)]
            for r in result.rounds
        ]
        return {
            "trajectory": trajectory,
            "best_mp": result.best_mp,
            "requests": 4 * len(result.rounds) + 1,
            "evaluator_workers": evaluator.workers,
        }

    def check_pass(self, outputs: List[Any], extra: Dict[str, Any]) -> List[str]:
        best = extra["best_mp"]
        if not best >= 0.0 or best == float("inf"):
            return [f"best_mp {best} is not a finite non-negative MP"]
        return []

    def pass_digest(self, outputs: List[Any], extra: Dict[str, Any]) -> str:
        return sha([extra["trajectory"], extra["best_mp"]])


# --------------------------------------------------------------------- #
# online
# --------------------------------------------------------------------- #


class Online:
    """Online replays of population submissions with the drift monitor on.

    One op is one ``RatingChallenge.replay_online`` with a fresh
    P-scheme: ingest every live rating in time order, then close every
    complete epoch.
    """

    name = "online"

    def prepare(self, seed: int, size: int) -> ExperimentContext:
        context = ExperimentContext(seed=seed, population_size=size, workers=0)
        context.population
        return context

    @staticmethod
    def summarize(system) -> str:
        epochs = [
            [r.epoch_index, sorted((k, float(v).hex()) for k, v in r.scores.items())]
            for r in system.reports
        ]
        warnings = sum(len(r.drift_warnings) for r in system.reports)
        return f"{sha(epochs)}/{warnings}"

    def run_pass(self, context: ExperimentContext, oplog: OpLog) -> Dict[str, Any]:
        challenge = context.challenge
        for submission in context.population:
            # Population submissions obey the challenge rules by
            # construction, so the replay skips re-validation, as the
            # headline's evaluations do.
            oplog.call(
                self.summarize,
                None,
                challenge.replay_online,
                PScheme(),
                submission,
                validate=False,
                monitor_drift=True,
            )
        return {}

    def check_pass(self, outputs: List[Any], extra: Dict[str, Any]) -> List[str]:
        return []

    def pass_digest(self, outputs: List[Any], extra: Dict[str, Any]) -> str:
        return sha(outputs)


WORKLOADS = {w.name: w for w in (Headline(), Search(), Online())}

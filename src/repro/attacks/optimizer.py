"""Procedure 2: heuristic search for the strongest attack region.

The paper's heuristic explores the variance-bias plane from the attacker's
point of view:

1. start with the whole plane of interest (e.g. bias 0..-4, sigma 0..2),
2. divide the current area into ``N`` (possibly overlapping) subareas,
3. probe each subarea by generating ``m`` unfair rating sets at its centre
   point and recording the maximum MP achieved,
4. recurse into the best subarea until it is smaller than a threshold.

Figure 5 visualises the shrinking rectangles; the paper reports the found
region (centre around bias -2.3, sigma 1.56 against the P-scheme) beats
every human submission.  :func:`heuristic_region_search` reproduces the
procedure for any ``evaluate(bias, std) -> MP`` callback -- defenses are
pluggable, exactly as in the attack generator's parameter controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import AttackSpecError
from repro.obs import get_logger
from repro.obs.registry import MetricsRegistry, get_registry
from repro.utils.validation import check_positive_int

logger = get_logger(__name__)

__all__ = ["SearchArea", "SearchRound", "RegionSearchResult", "heuristic_region_search"]


@dataclass(frozen=True)
class SearchArea:
    """An axis-aligned rectangle in the (bias, sigma) plane."""

    bias_min: float
    bias_max: float
    std_min: float
    std_max: float

    def __post_init__(self) -> None:
        if self.bias_max < self.bias_min:
            raise AttackSpecError("bias_max must be >= bias_min")
        if self.std_max < self.std_min:
            raise AttackSpecError("std_max must be >= std_min")
        if self.std_min < 0:
            raise AttackSpecError("std_min must be >= 0")

    @property
    def bias_width(self) -> float:
        """Extent along the bias axis."""
        return self.bias_max - self.bias_min

    @property
    def std_width(self) -> float:
        """Extent along the sigma axis."""
        return self.std_max - self.std_min

    @property
    def center(self) -> Tuple[float, float]:
        """``(bias, std)`` centre point of the area."""
        return (
            (self.bias_min + self.bias_max) / 2.0,
            (self.std_min + self.std_max) / 2.0,
        )

    def subdivide(self, n: int = 4, overlap: float = 0.25) -> List["SearchArea"]:
        """Split into an (approximately square) grid of ``n`` subareas.

        Each subarea is expanded by ``overlap`` (fraction of its size) on
        every side and clipped to the parent, so neighbouring subareas
        overlap -- the paper notes its subareas may overlap, which keeps a
        maximum sitting on a grid line reachable from both sides.
        """
        n = check_positive_int(n, "n")
        if not 0.0 <= overlap < 1.0:
            raise AttackSpecError(f"overlap must be in [0, 1), got {overlap}")
        rows = max(1, int(round(n**0.5)))
        cols = max(1, (n + rows - 1) // rows)
        cell_bias = self.bias_width / cols
        cell_std = self.std_width / rows
        subareas: List[SearchArea] = []
        for row in range(rows):
            for col in range(cols):
                if len(subareas) >= n:
                    break
                b_lo = self.bias_min + col * cell_bias
                b_hi = b_lo + cell_bias
                s_lo = self.std_min + row * cell_std
                s_hi = s_lo + cell_std
                pad_b = overlap * cell_bias
                pad_s = overlap * cell_std
                subareas.append(
                    SearchArea(
                        bias_min=max(self.bias_min, b_lo - pad_b),
                        bias_max=min(self.bias_max, b_hi + pad_b),
                        std_min=max(self.std_min, s_lo - pad_s),
                        std_max=min(self.std_max, s_hi + pad_s),
                    )
                )
        return subareas

    def smaller_than(self, bias_width: float, std_width: float) -> bool:
        """Whether the area fits inside the given size thresholds."""
        return self.bias_width <= bias_width and self.std_width <= std_width


@dataclass(frozen=True)
class SearchRound:
    """One round of the Procedure 2 loop (for the Figure 5 trace)."""

    area: SearchArea
    subareas: Tuple[SearchArea, ...]
    scores: Tuple[float, ...]
    best_index: int

    @property
    def best_subarea(self) -> SearchArea:
        """The subarea the next round recursed into."""
        return self.subareas[self.best_index]

    @property
    def best_score(self) -> float:
        """The winning subarea's probe MP."""
        return self.scores[self.best_index]


@dataclass(frozen=True)
class RegionSearchResult:
    """Outcome of the full Procedure 2 search."""

    rounds: Tuple[SearchRound, ...]
    final_area: SearchArea
    best_mp: float

    @property
    def best_point(self) -> Tuple[float, float]:
        """Centre ``(bias, std)`` of the final area."""
        return self.final_area.center


def heuristic_region_search(
    evaluate: Optional[Callable[[float, float], float]],
    initial_area: SearchArea,
    n_subareas: int = 4,
    probes_per_subarea: int = 10,
    min_bias_width: float = 0.5,
    min_std_width: float = 0.25,
    max_rounds: int = 12,
    overlap: float = 0.25,
    final_probes: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
    probe_batch: Optional[
        Callable[[Sequence[Tuple[float, float, int]]], List[float]]
    ] = None,
) -> RegionSearchResult:
    """Run Procedure 2 over ``evaluate``.

    ``evaluate(bias, std)`` generates one unfair rating set at that point
    and returns its MP; it is called ``probes_per_subarea`` times per
    subarea and the *maximum* is the subarea's score (paper line 7).
    The search stops when the focused area is smaller than the width
    thresholds, or after ``max_rounds``.

    After the search converges, the output region's centre is probed
    ``final_probes`` more times (default: ``2 * probes_per_subarea``) --
    the procedure's deliverable is the *region*, and the attacker will
    keep drawing attacks from it, so the reported ``best_mp`` includes
    this exploitation phase.

    Because subareas overlap, centre points can recur across rounds, so
    each distinct ``(bias, std, probe count)`` request is evaluated once
    per search and replays afterwards (counted as ``search.memo.hits``).
    When ``probe_batch`` is given -- e.g. from
    :func:`repro.exec.region_probe_batch` -- each round's un-memoized
    requests are scored in one batched call, letting a parallel evaluator
    fan the whole round out at once; ``evaluate`` may then be ``None``.

    Every probe (one MP evaluation) is counted into the metrics
    ``registry`` (``search.probes``); ``None`` uses the globally active
    registry.  The serial path times each probe (``search.probe_seconds``)
    and observes its MP (``search.probe_mp``).  The batched path observes
    ``search.probe_mp`` once per *request* and times nothing itself: the
    evaluator times the batch (the ``exec.map`` span).
    """
    probes_per_subarea = check_positive_int(probes_per_subarea, "probes_per_subarea")
    max_rounds = check_positive_int(max_rounds, "max_rounds")
    if evaluate is None and probe_batch is None:
        raise AttackSpecError("provide evaluate or probe_batch")
    if final_probes is None:
        final_probes = 2 * probes_per_subarea
    reg = registry if registry is not None else get_registry()
    memo: Dict[Tuple[float, float, int], float] = {}

    def probe(bias: float, std: float) -> float:
        start = perf_counter()
        mp = evaluate(bias, std)
        reg.observe("search.probe_seconds", perf_counter() - start)
        reg.inc("search.probes")
        reg.observe("search.probe_mp", float(mp))
        return mp

    def score_points(requests: List[Tuple[float, float, int]]) -> List[float]:
        """Subarea scores for ``(bias, std, count)`` requests.

        Memoized requests replay instantly; the rest go through the
        batched prober (whole round in one evaluator dispatch) or the
        serial ``probe`` loop.  Both paths compute ``max`` over ``count``
        fresh attacks, so the memo only elides *repeated* work.
        """
        scores: List[float] = [0.0] * len(requests)
        pending: List[int] = []
        for i, request in enumerate(requests):
            if request in memo:
                scores[i] = memo[request]
                reg.inc("search.memo.hits")
            else:
                pending.append(i)
        if pending and probe_batch is not None:
            values = probe_batch([requests[i] for i in pending])
            for i, value in zip(pending, values):
                reg.inc("search.probes", requests[i][2])
                reg.observe("search.probe_mp", float(value))
                scores[i] = float(value)
        elif pending:
            for i in pending:
                bias, std, count = requests[i]
                scores[i] = float(max(probe(bias, std) for _ in range(count)))
        for i in pending:
            memo[requests[i]] = scores[i]
        return scores

    area = initial_area
    rounds: List[SearchRound] = []
    best_mp = float("-inf")
    for _ in range(max_rounds):
        if area.smaller_than(min_bias_width, min_std_width):
            break
        subareas = area.subdivide(n_subareas, overlap=overlap)
        scores = score_points(
            [(*sub.center, probes_per_subarea) for sub in subareas]
        )
        best_index = int(max(range(len(scores)), key=scores.__getitem__))
        rounds.append(
            SearchRound(
                area=area,
                subareas=tuple(subareas),
                scores=tuple(scores),
                best_index=best_index,
            )
        )
        best_mp = max(best_mp, scores[best_index])
        area = subareas[best_index]
        reg.inc("search.rounds")
        logger.debug(
            "round=%d best_score=%.4f center=(%.2f, %.2f)",
            len(rounds), scores[best_index], *area.center,
        )
    if final_probes > 0:
        exploitation = score_points([(*area.center, final_probes)])[0]
        best_mp = max(best_mp, float(exploitation))
    if best_mp == float("-inf"):
        # No rounds ran and no final probes were requested: probe once.
        best_mp = score_points([(*area.center, probes_per_subarea)])[0]
    reg.set_gauge("search.best_mp", float(best_mp))
    return RegionSearchResult(
        rounds=tuple(rounds), final_area=area, best_mp=float(best_mp)
    )

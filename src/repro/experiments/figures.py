"""Runners for every figure/result of the paper's evaluation section."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.bias_variance import Region, SubmissionPoint, VarianceBiasAnalysis
from repro.analysis.correlation_exp import CorrelationExperiment, CorrelationRow
from repro.analysis.reporting import format_series, format_table
from repro.analysis.time_domain import TimeDomainAnalysis, TimePoint
from repro.attacks.base import ProductTarget
from repro.attacks.generator import AttackGenerator, AttackSpec
from repro.attacks.optimizer import (
    RegionSearchResult,
    SearchArea,
    heuristic_region_search,
)
from repro.attacks.time_models import ConcentratedBurst, EvenlySpaced, UniformWindow
from repro.detectors.integration import JointDetector
from repro.exec import region_probe_batch, share_challenge
from repro.experiments.context import ExperimentContext
from repro.obs.quality import ConfusionCounts, Scorecard, score_detection

__all__ = [
    "BiasVarianceFigure",
    "RegionSearchFigure",
    "TimeAnalysisFigure",
    "CorrelationFigure",
    "HeadlineComparison",
    "OperatingPoints",
    "run_bias_variance_figure",
    "run_region_search_figure",
    "run_time_analysis_figure",
    "run_correlation_figure",
    "run_headline_comparison",
    "run_operating_points",
]


# --------------------------------------------------------------------- #
# E1-E3 / Figures 2-4
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BiasVarianceFigure:
    """One variance-bias scatter (Figure 2, 3, or 4)."""

    scheme_name: str
    product_id: str
    points: Tuple[SubmissionPoint, ...]
    winner_region_counts: Dict[Region, int]
    dominant_region: Optional[Region]
    winner_centroid: Optional[Tuple[float, float]]

    def to_text(self, max_points: int = 30) -> str:
        """Render the marked points and the region summary."""
        marked = [p for p in self.points if p.marks]
        marked.sort(key=lambda p: -p.product_mp)
        rows = [
            (p.submission_id, p.strategy, p.bias, p.std, p.product_mp, p.color)
            for p in marked[:max_points]
        ]
        table = format_table(
            ["submission", "strategy", "bias", "std", "MP", "color"],
            rows,
            title=(
                f"Variance-bias plot, {self.scheme_name}-scheme, "
                f"product {self.product_id} (marked submissions)"
            ),
        )
        counts = ", ".join(
            f"{region.value}={count}"
            for region, count in self.winner_region_counts.items()
            if count
        )
        dominant = self.dominant_region.value if self.dominant_region else "none"
        summary = (
            f"LMP winners by region: {counts or 'none'}\n"
            f"dominant winner region: {dominant}"
        )
        if self.winner_centroid:
            summary += (
                f"\nwinner centroid: bias={self.winner_centroid[0]:.2f}, "
                f"std={self.winner_centroid[1]:.2f}"
            )
        return table + "\n" + summary


def run_bias_variance_figure(
    context: ExperimentContext,
    scheme_name: str,
    product_id: str = "tv1",
    top_n: int = 10,
) -> BiasVarianceFigure:
    """Figures 2-4: the variance-bias scatter under one scheme."""
    analysis = VarianceBiasAnalysis(top_n=top_n)
    points = analysis.build_points(
        context.population,
        context.results_for(scheme_name),
        context.challenge.fair_dataset,
        product_id,
    )
    return BiasVarianceFigure(
        scheme_name=scheme_name,
        product_id=product_id,
        points=tuple(points),
        winner_region_counts=analysis.winner_region_counts(points),
        dominant_region=analysis.dominant_winner_region(points),
        winner_centroid=analysis.mean_winner_point(points),
    )


# --------------------------------------------------------------------- #
# E4 / Figure 5
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RegionSearchFigure:
    """Figure 5: the Procedure 2 shrinking-rectangle trace."""

    scheme_name: str
    search: RegionSearchResult
    population_max_mp: float

    @property
    def beats_population(self) -> bool:
        """The paper's key claim: the found region beats every submission."""
        return self.search.best_mp > self.population_max_mp

    def to_text(self) -> str:
        rows = []
        for i, round_ in enumerate(self.search.rounds):
            bias, std = round_.best_subarea.center
            rows.append(
                (
                    i + 1,
                    round_.area.bias_width,
                    round_.area.std_width,
                    bias,
                    std,
                    round_.best_score,
                )
            )
        table = format_table(
            ["round", "bias width", "std width", "best bias", "best std", "best MP"],
            rows,
            title=f"Procedure 2 region search against the {self.scheme_name}-scheme",
        )
        bias, std = self.search.best_point
        return (
            table
            + f"\nfinal region centre: bias={bias:.3f}, std={std:.3f}, "
            f"best MP={self.search.best_mp:.3f}\n"
            f"population max MP={self.population_max_mp:.3f} "
            f"(beaten: {self.beats_population})"
        )


def run_region_search_figure(
    context: ExperimentContext,
    scheme_name: str = "P",
    probes_per_subarea: int = 10,
    n_subareas: int = 4,
    initial_area: Optional[SearchArea] = None,
) -> RegionSearchFigure:
    """Figure 5: run Procedure 2 against one scheme and compare with the
    population's best submission.

    The attacker targets the four lowest-volume products (fewer fair
    ratings to drown the unfair ones in -- what a profit-seeking attacker
    would pick) and, per Procedure 2, randomly draws timing for each of
    the ``m`` probes at a subarea's centre point.

    Probes run as :class:`~repro.exec.tasks.RegionProbeTask` units through
    ``context.evaluator`` (inline at ``workers=0``): each round fans out in
    one batch and every probe's randomness derives from ``(context.seed +
    5, bias, std, trial)``, so the trajectory is identical at any worker
    count and replays from ``context.cache_dir`` when one is set.
    """
    challenge = context.challenge
    if initial_area is None:
        initial_area = SearchArea(
            bias_min=-4.0, bias_max=0.0, std_min=0.0, std_max=2.0
        )
    by_volume = sorted(
        challenge.fair_dataset.product_ids,
        key=lambda pid: len(challenge.fair_dataset[pid]),
    )
    targets = [
        ProductTarget(by_volume[0], -1),
        ProductTarget(by_volume[1], -1),
        ProductTarget(by_volume[2], +1),
        ProductTarget(by_volume[3], +1),
    ]
    share_challenge(challenge, seed=context.seed)
    search = heuristic_region_search(
        None,
        initial_area,
        n_subareas=n_subareas,
        probes_per_subarea=probes_per_subarea,
        probe_batch=region_probe_batch(
            context.evaluator,
            challenge_seed=context.seed,
            scheme_name=scheme_name,
            targets=targets,
            seed_root=context.seed + 5,
        ),
    )
    return RegionSearchFigure(
        scheme_name=scheme_name,
        search=search,
        population_max_mp=context.max_total_mp(scheme_name),
    )


# --------------------------------------------------------------------- #
# E5 / Figure 6
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TimeAnalysisFigure:
    """Figure 6: MP versus average unfair-rating interval."""

    scheme_name: str
    product_id: str
    points: Tuple[TimePoint, ...]
    bin_centers: np.ndarray
    max_envelope: np.ndarray
    mean_envelope: np.ndarray
    best_interval: float
    interior_optimum: bool

    def to_text(self) -> str:
        series = format_series(
            (
                f"MP vs average rating interval, {self.scheme_name}-scheme, "
                f"product {self.product_id} (max envelope)"
            ),
            list(self.bin_centers),
            list(self.max_envelope),
            x_label="interval (days)",
            y_label="max MP",
        )
        return (
            series
            + f"\nbest interval ~= {self.best_interval:.2f} days "
            f"(interior optimum: {self.interior_optimum})"
        )


def run_time_analysis_figure(
    context: ExperimentContext,
    scheme_name: str = "P",
    product_id: str = "tv1",
    n_bins: int = 8,
    max_interval: float = 8.0,
) -> TimeAnalysisFigure:
    """Figure 6: the time-domain scatter and its envelope."""
    analysis = TimeDomainAnalysis(n_bins=n_bins, max_interval=max_interval)
    points = analysis.build_points(
        context.population, context.results_for(scheme_name), product_id
    )
    centers, max_mp, mean_mp = analysis.binned_envelope(points)
    return TimeAnalysisFigure(
        scheme_name=scheme_name,
        product_id=product_id,
        points=tuple(points),
        bin_centers=centers,
        max_envelope=max_mp,
        mean_envelope=mean_mp,
        best_interval=analysis.best_interval(points),
        interior_optimum=analysis.is_interior_optimum(points),
    )


# --------------------------------------------------------------------- #
# E6 / Figure 7
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CorrelationFigure:
    """Figure 7: ordering-strategy comparison on top-MP datasets."""

    scheme_name: str
    rows: Tuple[CorrelationRow, ...]
    heuristic_win_fraction: float

    def to_text(self) -> str:
        table_rows = [
            (
                i,
                row.submission_id,
                row.original_mp,
                row.heuristic_mp,
                row.random_mean,
                row.heuristic_wins,
            )
            for i, row in enumerate(self.rows)
        ]
        table = format_table(
            ["id", "submission", "original", "heuristic", "random(mean)", "heur wins"],
            table_rows,
            title=(
                f"Order-strategy comparison, {self.scheme_name}-scheme "
                "(top MP datasets)"
            ),
        )
        return (
            table
            + f"\nheuristic beats original on "
            f"{self.heuristic_win_fraction:.0%} of datasets"
        )


def run_correlation_figure(
    context: ExperimentContext,
    scheme_name: str = "P",
    top_n: int = 10,
    random_shuffles: int = 5,
) -> CorrelationFigure:
    """Figure 7: heuristic vs original vs random ordering."""
    experiment = CorrelationExperiment(top_n=top_n, random_shuffles=random_shuffles)
    rows = experiment.run(
        context.challenge,
        context.population,
        context.results_for(scheme_name),
        context.scheme(scheme_name),
        seed=context.seed + 7,
    )
    return CorrelationFigure(
        scheme_name=scheme_name,
        rows=tuple(rows),
        heuristic_win_fraction=experiment.heuristic_win_fraction(rows),
    )


# --------------------------------------------------------------------- #
# E7 / headline comparison
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class HeadlineComparison:
    """Section V-A headline: max MP under P vs SA vs BF."""

    max_mp: Dict[str, float]

    @property
    def p_to_sa_ratio(self) -> float:
        """max-MP(P) / max-MP(SA); the paper reports about 1/3."""
        return self.max_mp["P"] / self.max_mp["SA"]

    @property
    def p_to_bf_ratio(self) -> float:
        """max-MP(P) / max-MP(BF)."""
        return self.max_mp["P"] / self.max_mp["BF"]

    def to_text(self) -> str:
        rows = [(name, value) for name, value in self.max_mp.items()]
        table = format_table(
            ["scheme", "max MP"], rows, title="Maximum MP achieved by the population"
        )
        return (
            table
            + f"\nP/SA ratio: {self.p_to_sa_ratio:.2f} (paper: ~0.33)"
            + f"\nP/BF ratio: {self.p_to_bf_ratio:.2f}"
        )


def run_headline_comparison(context: ExperimentContext) -> HeadlineComparison:
    """E7: evaluate the population under all three schemes."""
    return HeadlineComparison(
        max_mp={name: context.max_total_mp(name) for name in ("P", "SA", "BF")}
    )


# --------------------------------------------------------------------- #
# E8 / detector operating points
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class OperatingPoints:
    """Detection quality on scripted attacks plus fair-data false alarms.

    ``scorecards`` (one per attack row, in order) carries the full
    ground-truth join behind each row: provenance-attributed confusion
    counts, detection latency, and bias at detection.
    """

    false_alarm_rate: float
    attack_rows: Tuple[Tuple[str, float, float], ...]  # (name, recall, collateral)
    scorecards: Tuple["Scorecard", ...] = ()

    def to_text(self) -> str:
        table = format_table(
            ["attack", "recall", "fair collateral"],
            self.attack_rows,
            title="Joint detector operating points",
        )
        text = table + f"\nfalse alarm rate on fair-only data: {self.false_alarm_rate:.4f}"
        if self.scorecards:
            latencies = [
                f"{card.detection_latency_days:.1f}d"
                if card.detection_latency_days is not None
                else "undetected"
                for card in self.scorecards
            ]
            text += f"\ndetection latency per attack: {', '.join(latencies)}"
        return text


def run_operating_points(context: ExperimentContext) -> OperatingPoints:
    """E8: exercise Figure 1's paths on scripted attacks and fair data."""
    challenge = context.challenge
    detector = JointDetector()
    # False alarms on fair-only data (one batched pass over all products).
    fair_reports = detector.analyze_batch(challenge.fair_dataset)
    fair = ConfusionCounts()
    for product_id, report in fair_reports.items():
        fair += ConfusionCounts.from_masks(
            report.suspicious, challenge.fair_dataset[product_id].unfair
        )

    generator = AttackGenerator(
        challenge.fair_dataset,
        challenge.config.biased_rater_ids(),
        scale=challenge.config.scale,
        seed=context.seed + 11,
    )
    product_ids = challenge.fair_dataset.product_ids
    span = challenge.end_day - challenge.start_day
    mid = challenge.start_day + span / 2.0
    scripted = [
        (
            "strong downgrade (path 1)",
            AttackSpec(3.0, 0.2, 50, UniformWindow(mid - 15.0, 25.0)),
        ),
        (
            "burst downgrade",
            AttackSpec(3.0, 0.3, 50, ConcentratedBurst(mid, width=2.0)),
        ),
        (
            "spread high-variance",
            AttackSpec(1.5, 1.2, 50, EvenlySpaced(challenge.start_day + 5.0, 1.4)),
        ),
    ]
    rows: List[Tuple[str, float, float]] = []
    cards: List[Scorecard] = []
    for name, spec in scripted:
        target = ProductTarget(product_ids[0], -1)
        submission = generator.generate([target], spec)
        attacked = challenge.fair_dataset.merge(submission.as_dict())
        stream = attacked[product_ids[0]]
        report = detector.analyze(stream)
        card = score_detection(stream, report)
        cards.append(card)
        rows.append((name, card.joint.recall, card.joint.false_alarm_rate))
    return OperatingPoints(
        false_alarm_rate=fair.false_alarm_rate,
        attack_rows=tuple(rows),
        scorecards=tuple(cards),
    )

"""Command-line interface to the reproduction.

Subcommands mirror the workflow of the paper's systems::

    repro-rating world      --seed 7 --out fair.csv
    repro-rating attack     --world fair.csv --target tv1:-1 --target tv3:+1 \
                            --bias 2.5 --std 0.4 --out attack.json
    repro-rating evaluate   --world fair.csv --submission attack.json --scheme P
    repro-rating detect     --world fair.csv --product tv1
    repro-rating population --seed 7 --size 25 --scheme SA
    repro-rating search     --seed 7 --scheme P --probes 4

``world`` writes fair rating data as CSV; ``attack`` builds one unfair
rating submission (JSON); ``evaluate`` scores a submission's Manipulation
Power under a defense; ``detect`` prints the joint detector's verdict for
one product (``--explain`` adds the per-rating provenance table);
``population`` simulates a challenge round with synthetic participants;
``search`` runs the Procedure 2 region search.

Every command accepts ``--seed`` for reproducibility and four globals.
``--log-level LEVEL`` sets the structured log verbosity (stderr).
``--run-dir DIR`` collects the invocation's telemetry and writes it as
one bundle in ``DIR`` (:mod:`repro.obs.export`): an appended run-ledger
record, the metrics with the sampling profile, a Perfetto trace with
the profiler lane, per-epoch series checked against the packaged alert
rules, and an HTML report.  Without it nothing is collected.
``population``, ``search`` and
``sensitivity`` always dispatch their evaluations through the
:mod:`repro.exec` engine, so every run carries a workload fingerprint;
the scaling globals ``--workers N`` (``0``, the default, runs the tasks
inline) and ``--cache-dir DIR`` fan them out over ``N`` processes and/or
replay them from a persistent MP cache, with bit-identical output at any
worker count.

Four inspection subcommands read a run directory (``--run-dir``, default
``.repro``): ``trace`` validates and summarizes its trace, ``profile``
summarizes the profile its ``metrics.json`` holds (top self-time spans
and frames) and re-exports it as speedscope JSON, ``monitor`` renders
its series as terminal sparklines plus the alert board, and ``runs
list|show|diff|check`` reads its ledger -- ``runs check`` compares the
latest run against a rolling baseline of comparable runs and exits 1
when result digests, stable metrics, wall-clock, or the alert state
regressed beyond the configured thresholds (``--allow-alerts`` waives
the alert check), and 3 when no comparable baseline exists (nothing was
checked -- distinct from "checked and clean").  ``alerts`` validates and
lists alert-rule files (``--check`` for exit-status-only validation).

Detection quality closes the last gap: ``report --out FILE`` runs a
seeded challenge scenario end to end and writes a single self-contained
HTML (or Markdown) run report -- ground-truth scorecards with
per-detector confusion counts, an ROC sweep with an inline SVG curve,
per-epoch trust trajectories, assumption-drift warnings, ledger and
environment metadata -- with zero external asset references.  A run
directory's ``report.html`` does the same for *any* invocation,
rendering whatever its registry collected.

``lint`` runs :mod:`repro.lint`, the AST-based invariant checker that
machine-verifies the determinism contract (seeded RNGs, pickle-safe task
payloads, catalogued metric names, wall-clock hygiene, span balance,
ordered iteration near fingerprints); see ``docs/LINT.md``.  It takes
none of the global flags: everything after ``lint`` goes to
``repro.lint.main``, so ``repro-rating lint ARGS`` behaves exactly like
``python -m repro.lint ARGS``.

Exit status is 0 on success, 1 on a detected regression (``runs check``)
or a non-baselined lint finding, 2 on argument errors and on a run
directory that cannot be created or written, 3 when ``runs check``
found no comparable baseline, and 141 (128 + SIGPIPE, what a shell
reports for a tool that SIGPIPE ends) when stdout was closed before the
output was written, e.g. by ``| head``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.aggregation import SCHEMES
from repro.analysis.reporting import format_table
from repro.attacks.base import ProductTarget
from repro.attacks.generator import AttackGenerator, AttackSpec
from repro.attacks.optimizer import SearchArea, heuristic_region_search
from repro.attacks.population import PopulationConfig, generate_population
from repro.attacks.time_models import UniformWindow
from repro.detectors import JointDetector
from repro.errors import ReproError, ValidationError
from repro.marketplace.challenge import RatingChallenge
from repro.marketplace.fair_ratings import FairRatingConfig, FairRatingGenerator
from repro.marketplace.io import (
    load_dataset_csv,
    load_submission_json,
    save_dataset_csv,
    save_submission_json,
)
from repro.obs import (
    DEFAULT_RULES_PATH,
    AlertEngine,
    MetricsRegistry,
    ledger as run_ledger,
    load_rules,
    profile as obs_profile,
    render_frame,
    replay_stream,
    report_from_registry,
    set_registry,
    setup_logging,
    write_report,
)
from repro.obs.export import (
    DEFAULT_RUN_DIR,
    LEDGER_FILE,
    METRICS_FILE,
    SERIES_FILE,
    TRACE_FILE,
    RunDirectoryWriter,
)
from repro.obs.quality import ConfusionCounts
from repro.obs.trace import read_trace, summarize_trace
from repro.types import RatingDataset

__all__ = ["main", "build_parser"]

def _evaluator(args):
    """The :mod:`repro.exec` evaluator for ``--workers``/``--cache-dir``."""
    from repro.exec import MPCache, ParallelEvaluator

    cache = MPCache(cache_dir=args.cache_dir) if args.cache_dir else None
    return ParallelEvaluator(workers=args.workers, cache=cache)


def _parse_target(text: str) -> ProductTarget:
    try:
        product_id, direction_s = text.rsplit(":", 1)
        direction = int(direction_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"target must look like 'tv1:-1' or 'tv3:+1', got {text!r}"
        ) from None
    if direction not in (-1, 1):
        raise argparse.ArgumentTypeError(
            f"target direction must be -1 or +1, got {direction}"
        )
    return ProductTarget(product_id, direction)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-rating",
        description="Rating-system attack modeling (ICDCS 2008 reproduction).",
    )
    # Observability flags shared by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="structured log verbosity (stderr; default WARNING)",
    )
    common.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="write this run's telemetry bundle to DIR (ledger.jsonl, "
             "metrics.json, trace.json, series.jsonl, "
             "report.html); nothing is collected without it. trace, "
             f"profile, monitor and runs read DIR (default {DEFAULT_RUN_DIR})",
    )
    common.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for the repro.exec engine behind "
             "population/search/sensitivity; 0 = run tasks inline "
             "(default). Results are bit-identical at any worker count.",
    )
    common.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent MP-evaluation cache directory; repeated runs "
             "replay cached evaluations instead of recomputing them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    world = add_parser("world", help="generate fair rating data (CSV)")
    world.add_argument("--seed", type=int, default=0)
    world.add_argument("--out", required=True, help="output CSV path")
    world.add_argument("--duration-days", type=float, default=82.0)
    world.add_argument("--history-days", type=float, default=45.0)
    world.add_argument("--arrivals-per-day", type=float, default=6.0)

    attack = add_parser("attack", help="generate an attack submission (JSON)")
    attack.add_argument("--world", required=True, help="fair data CSV")
    attack.add_argument(
        "--target", dest="targets", action="append", type=_parse_target,
        required=True, help="product:direction, e.g. tv1:-1 (repeatable)",
    )
    attack.add_argument("--bias", type=float, default=2.0)
    attack.add_argument("--std", type=float, default=0.5)
    attack.add_argument("--n-ratings", type=int, default=50)
    attack.add_argument("--window-start", type=float, default=20.0)
    attack.add_argument("--window-days", type=float, default=40.0)
    attack.add_argument(
        "--correlation", choices=("identity", "random", "heuristic"),
        default="identity",
    )
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--out", required=True, help="output JSON path")

    evaluate = add_parser("evaluate", help="score a submission's MP")
    evaluate.add_argument("--world", required=True, help="fair data CSV")
    evaluate.add_argument("--submission", required=True, help="submission JSON")
    evaluate.add_argument(
        "--scheme", choices=sorted(SCHEMES), action="append", dest="schemes",
        help="defense scheme (repeatable; default: all three)",
    )
    evaluate.add_argument("--period-days", type=float, default=30.0)

    detect = add_parser("detect", help="run the joint detector on a product")
    detect.add_argument("--world", required=True, help="rating data CSV")
    detect.add_argument("--product", required=True)
    detect.add_argument(
        "--explain", action="store_true",
        help="print the per-rating detection provenance table "
             "(which path/detectors marked each suspicious rating)",
    )

    population = add_parser(
        "population", help="simulate a challenge round with synthetic participants"
    )
    population.add_argument("--seed", type=int, default=2008)
    population.add_argument("--size", type=int, default=25)
    population.add_argument(
        "--scheme", choices=sorted(SCHEMES), default="SA",
    )
    population.add_argument("--top", type=int, default=10)

    search = add_parser("search", help="Procedure 2 region search")
    search.add_argument("--seed", type=int, default=2008)
    search.add_argument("--scheme", choices=sorted(SCHEMES), default="SA")
    search.add_argument("--probes", type=int, default=4)
    search.add_argument("--subareas", type=int, default=4)

    ablation = add_parser(
        "ablation", help="P-scheme design ablation on the canonical attacks"
    )
    ablation.add_argument("--seed", type=int, default=2008)

    sensitivity = add_parser(
        "sensitivity", help="ROC-style sweep of one detector threshold"
    )
    sensitivity.add_argument("--parameter", required=True,
                             help="a DetectorConfig field name")
    sensitivity.add_argument(
        "--value", dest="values", action="append", type=float, required=True,
        help="threshold value to probe (repeatable)",
    )
    sensitivity.add_argument("--seed", type=int, default=0)
    sensitivity.add_argument("--fair-worlds", type=int, default=1)
    sensitivity.add_argument("--attacks", type=int, default=2)

    report = add_parser(
        "report", help="run a seeded challenge scenario and write a "
                       "self-contained HTML/Markdown run report"
    )
    report.add_argument("--seed", type=int, default=7)
    report.add_argument(
        "--size", type=int, default=5,
        help="synthetic attack submissions in the scenario (default 5)",
    )
    report.add_argument("--out", required=True, help="report output path")
    report.add_argument(
        "--title", default="Detection quality report",
        help="report title",
    )
    report.add_argument(
        "--roc-parameter", default="hc_suspicious_threshold",
        help="DetectorConfig field swept for the ROC section",
    )
    report.add_argument(
        "--roc-value", dest="roc_values", action="append", type=float,
        default=None,
        help="threshold value for the ROC sweep "
             "(repeatable; default 0.85 0.92 0.96)",
    )

    trace = add_parser(
        "trace", help="validate and summarize a run directory's trace"
    )
    trace.add_argument(
        "--top", type=int, default=10, help="longest spans to list"
    )

    profile = add_parser(
        "profile", help="inspect or re-export a run directory's profile"
    )
    profile.add_argument(
        "--top", type=int, default=10,
        help="rows in the self-time tables (default 10)",
    )
    profile.add_argument(
        "--speedscope", metavar="PATH", default=None,
        help="re-export the samples as speedscope JSON "
             "(load at https://www.speedscope.app)",
    )

    # ``lint`` declares nothing: main() hands everything after the word
    # to repro.lint.main, so both entry points parse the same flags.
    sub.add_parser(
        "lint", add_help=False,
        help="run the AST-based invariant checker (repro.lint); takes "
             "exactly the arguments of 'python -m repro.lint'",
    )

    monitor = add_parser(
        "monitor", help="render a run directory's series: sparklines + alerts"
    )
    monitor.add_argument(
        "--top", type=int, default=16, metavar="N",
        help="series rows rendered per frame (default 16)",
    )
    monitor.add_argument(
        "--width", type=int, default=32, metavar="N",
        help="sparkline width in cells (default 32)",
    )
    monitor.add_argument(
        "--select", action="append", default=None, metavar="SUBSTR",
        help="only render series whose name contains SUBSTR (repeatable)",
    )

    alerts = add_parser(
        "alerts", help="validate and list alert-rule files"
    )
    alerts.add_argument(
        "rule_files", nargs="*", metavar="PATH",
        help="rule files to inspect (default: the packaged ruleset)",
    )
    alerts.add_argument(
        "--check", action="store_true",
        help="validate only (no rule listing); exit 1 on any invalid file",
    )

    runs = add_parser(
        "runs", help="inspect a run directory's ledger (list/show/diff/check)"
    )
    runs.add_argument(
        "action", choices=("list", "show", "diff", "check"),
        help="list records, show one, diff two, or check for regressions",
    )
    runs.add_argument(
        "ids", nargs="*", metavar="RUN_ID",
        help="run id prefixes for show/diff (default: the latest run[s])",
    )
    runs.add_argument(
        "-n", "--limit", type=int, default=20,
        help="records shown by 'list' (default 20)",
    )
    runs.add_argument(
        "--window", type=int, default=5,
        help="baseline size for 'check': latest compared against up to "
             "WINDOW earlier comparable runs (default 5)",
    )
    runs.add_argument(
        "--max-timing-ratio", type=float, default=1.5,
        help="'check' flags wall-clock above RATIO x baseline median "
             "(default 1.5)",
    )
    runs.add_argument(
        "--metric-tolerance", type=float, default=0.0,
        help="'check' flags counters drifting beyond this relative "
             "tolerance (default 0 = exact)",
    )
    runs.add_argument(
        "--digest-tolerance", type=float, default=0.0,
        help="'check' flags result digests moving beyond this absolute "
             "tolerance (default 0 = exact)",
    )
    runs.add_argument(
        "--allow-alerts", action="store_true",
        help="'check' does not flag newly-firing alerts against an "
             "alert-free baseline (use when the alerts are expected)",
    )

    return parser


# --------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------- #


def _cmd_world(args) -> int:
    config = FairRatingConfig(
        duration_days=args.duration_days,
        history_days=args.history_days,
        base_arrivals_per_day=args.arrivals_per_day,
    )
    dataset = FairRatingGenerator(config=config, seed=args.seed).generate()
    save_dataset_csv(dataset, args.out)
    run_ledger.record_digest("world.ratings", dataset.total_ratings())
    print(
        f"wrote {dataset.total_ratings()} fair ratings over "
        f"{len(dataset)} products to {args.out}"
    )
    return 0


def _cmd_attack(args) -> int:
    dataset = load_dataset_csv(args.world)
    rater_ids = [f"attacker_{i:02d}" for i in range(max(args.n_ratings, 1))]
    generator = AttackGenerator(dataset, rater_ids, seed=args.seed)
    spec = AttackSpec(
        bias_magnitude=args.bias,
        std=args.std,
        n_ratings=args.n_ratings,
        time_model=UniformWindow(args.window_start, args.window_days),
        correlation=args.correlation,
    )
    submission = generator.generate(args.targets, spec, submission_id="cli_attack")
    save_submission_json(submission, args.out)
    print(
        f"wrote {submission.total_ratings()} unfair ratings "
        f"({len(submission.product_ids)} products) to {args.out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    fair = load_dataset_csv(args.world).fair_only()
    submission = load_submission_json(args.submission)
    attacked = fair.merge(submission.as_dict())
    spans = [s.time_span() for s in fair.streams() if len(s)]
    start = min(lo for lo, _ in spans)
    end = max(hi for _, hi in spans) + 1e-9
    from repro.marketplace.mp import manipulation_power

    scheme_names = args.schemes or sorted(SCHEMES)
    rows = []
    for name in scheme_names:
        result = manipulation_power(
            SCHEMES[name](), attacked, fair,
            period_days=args.period_days, start_day=start, end_day=end,
        )
        rows.append((name, result.total))
        run_ledger.record_digest(f"evaluate.{name}.total_mp", result.total)
    print(format_table(["scheme", "total MP"], rows, title="Manipulation Power"))
    return 0


def _provenance_table(stream, report) -> str:
    """The per-rating detection provenance table for ``detect --explain``."""
    rows = []
    for index in np.nonzero(report.suspicious)[0]:
        labels = report.provenance_of(int(index))
        paths = ",".join(label for label in labels if label.startswith("path"))
        detectors = ",".join(
            label for label in labels if not label.startswith("path")
        )
        rows.append(
            (
                int(index),
                float(stream.times[index]),
                float(stream.values[index]),
                stream.rater_ids[index],
                paths or "-",
                detectors or "-",
            )
        )
    if not rows:
        return "no suspicious ratings: nothing to explain"
    return format_table(
        ["idx", "day", "value", "rater", "paths", "detectors"],
        rows,
        float_format=".2f",
        title=f"Detection provenance for {stream.product_id}",
    )


def _cmd_detect(args) -> int:
    dataset = load_dataset_csv(args.world)
    if args.product not in dataset:
        print(f"error: product {args.product!r} not in {args.world}", file=sys.stderr)
        return 2
    stream = dataset[args.product]
    report = JointDetector().analyze(stream)
    run_ledger.record_digest("detect.num_suspicious", report.num_suspicious)
    print(f"product {args.product}: {len(stream)} ratings")
    print(f"suspicious ratings: {report.num_suspicious}")
    print(f"alarms: {dict(report.alarms)}")
    for label, intervals in (
        ("Path 1", report.path1_intervals),
        ("Path 2", report.path2_intervals),
    ):
        for interval in intervals:
            print(f"{label} interval: days {interval.start:.1f} to {interval.stop:.1f}")
    if len(stream) and stream.unfair.any():
        counts = ConfusionCounts.from_masks(report.suspicious, stream.unfair)
        print(f"ground-truth recall: {counts.recall:.0%}")
    if args.explain:
        print(_provenance_table(stream, report))
    return 0


def _cmd_population(args) -> int:
    from repro.experiments.context import ExperimentContext

    context = ExperimentContext(
        seed=args.seed,
        population_size=args.size,
        workers=args.workers,
        cache_dir=args.cache_dir,
    )
    try:
        results = context.results_for(args.scheme)
        population = context.population
        board = context.challenge.leaderboard(
            population,
            context.scheme(args.scheme),
            validate=False,
            results=[results[s.submission_id] for s in population],
        )
    finally:
        context.close()
    if board:
        run_ledger.record_digest("population.top_mp", board[0].total_mp)
        run_ledger.record_digest(
            "population.mean_mp",
            sum(entry.total_mp for entry in board) / len(board),
        )
    rows = [
        (entry.rank, entry.submission_id, entry.strategy, entry.total_mp)
        for entry in board[: args.top]
    ]
    print(
        format_table(
            ["rank", "submission", "archetype", "total MP"],
            rows,
            title=f"{args.scheme}-scheme leaderboard (top {args.top} of {args.size})",
        )
    )
    return 0


def _cmd_search(args) -> int:
    from repro.exec import region_probe_batch, share_challenge

    challenge = RatingChallenge(seed=args.seed)
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
    area = SearchArea(bias_min=-4.0, bias_max=0.0, std_min=0.0, std_max=2.0)
    share_challenge(challenge)
    with _evaluator(args) as evaluator:
        result = heuristic_region_search(
            None,
            area,
            n_subareas=args.subareas,
            probes_per_subarea=args.probes,
            probe_batch=region_probe_batch(
                evaluator,
                challenge_seed=args.seed,
                scheme_name=args.scheme,
                targets=targets,
                seed_root=args.seed + 5,
            ),
        )
    rows = []
    for i, round_ in enumerate(result.rounds):
        bias, std = round_.best_subarea.center
        rows.append((i + 1, bias, std, round_.best_score))
    print(
        format_table(
            ["round", "best bias", "best std", "best MP"],
            rows,
            title=f"Procedure 2 vs {args.scheme}-scheme",
        )
    )
    bias, std = result.best_point
    run_ledger.record_digest("search.best_mp", result.best_mp)
    print(f"strongest region: bias={bias:.2f}, std={std:.2f} (MP {result.best_mp:.3f})")
    return 0


def _cmd_ablation(args) -> int:
    from repro.experiments import ExperimentContext
    from repro.experiments.ablations import run_pscheme_ablation

    context = ExperimentContext(seed=args.seed, population_size=1)
    print(run_pscheme_ablation(context).to_text())
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.experiments.sensitivity import sweep_detector_parameter

    with _evaluator(args) as evaluator:
        result = sweep_detector_parameter(
            args.parameter,
            args.values,
            n_fair_worlds=args.fair_worlds,
            n_attacks=args.attacks,
            seed=args.seed,
            evaluator=evaluator,
        )
    print(result.to_text())
    return 0


def _cmd_report(args) -> int:
    from repro.attacks.population import population_labels
    from repro.experiments.sensitivity import sweep_detector_parameter
    from repro.obs import DriftMonitor, RocSweep, get_registry
    from repro.obs.quality import aggregate_confusions, score_detection
    from repro.trust.manager import TrustManager

    registry = get_registry()
    previous = None
    if not registry.enabled:
        # Without --run-dir nothing installed a collecting registry;
        # install one locally so the report's counter and histogram
        # sections have content.
        registry = MetricsRegistry()
        previous = set_registry(registry)
    try:
        epoch_days = 30.0
        challenge = RatingChallenge(seed=args.seed)
        population = generate_population(
            challenge, PopulationConfig(size=args.size), seed=args.seed + 1
        )
        labels = population_labels(population)
        detector = JointDetector()

        # Ground-truth scorecards for every attacked product stream.
        cards = []
        scorecard_rows = []
        for submission in population:
            attacked = challenge.attacked_dataset(submission)
            archetype = labels[submission.submission_id].archetype
            # Batch only the attacked products: that is the exact set of
            # streams the per-stream loop analyzed, so the quality.*
            # counters stay identical.
            reports = detector.analyze_batch(
                RatingDataset([attacked[pid] for pid in submission.product_ids])
            )
            for pid in submission.product_ids:
                stream = attacked[pid]
                card = score_detection(stream, reports[pid])
                cards.append(card)
                scorecard_rows.append(
                    (
                        f"{submission.submission_id}/{pid}",
                        archetype,
                        card.detected,
                        card.detection_latency_days,
                        card.bias_at_detection,
                    )
                )

        # ROC sweep of one detector threshold.
        roc_values = sorted(set(args.roc_values or (0.85, 0.92, 0.96)))
        sweep = sweep_detector_parameter(
            args.roc_parameter, roc_values,
            n_fair_worlds=1, n_attacks=2, seed=args.seed,
        )
        roc = RocSweep(
            parameter=args.roc_parameter,
            points=sweep.roc_points(),
            auc=sweep.auc(),
        )

        # Trust trajectories and drift checks on the first submission's
        # attacked world (calibrating drift on the fair world).
        first = population[0]
        attacked = challenge.attacked_dataset(first)
        marks = {
            pid: report.suspicious
            for pid, report in detector.analyze_batch(attacked).items()
        }
        epoch_times = []
        edge = challenge.start_day + epoch_days
        while edge < challenge.end_day + epoch_days:
            epoch_times.append(edge)
            edge += epoch_days
        snapshots = TrustManager().run(attacked, marks, epoch_times)
        attacker_set = set(first.rater_ids())
        fair_set = {
            rid
            for pid in attacked
            for rid in attacked[pid].rater_ids
        } - attacker_set

        def mean_trust(snapshot, ids):
            if not ids:
                return 0.5
            return float(np.mean([snapshot.value(rid) for rid in ids]))

        trust_trajectories = {
            f"attackers ({first.submission_id})": [
                mean_trust(s, attacker_set) for s in snapshots
            ],
            "fair raters": [mean_trust(s, fair_set) for s in snapshots],
        }

        monitor = DriftMonitor(registry=registry)
        monitor.calibrate(challenge.fair_dataset)
        drift_warnings = []
        window_start = challenge.start_day
        # With --run-dir a series recorder rides on the registry:
        # snapshot it per drift epoch so the stream (and the alert
        # engine) sees a genuine multi-epoch trajectory.
        recorder = getattr(registry, "series", None)
        for epoch_index, edge in enumerate(epoch_times):
            drift_warnings.extend(
                monitor.check_epoch(attacked, window_start, edge)
            )
            window_start = edge
            if recorder is not None:
                recorder.record_epoch(epoch_index, registry)

        ledger_rows = [
            (
                record.run_id,
                record.when,
                record.command,
                record.status,
                record.timings.get("wall_seconds", 0.0),
            )
            for record in run_ledger.RunLedger(
                _run_dir(args) / LEDGER_FILE
            ).tail(8)
        ]

        data = report_from_registry(
            registry,
            title=args.title,
            environment=run_ledger.runtime_environment(),
            ledger_rows=ledger_rows,
            notes=(
                f"seeded challenge scenario: seed={args.seed}, "
                f"population size {args.size}",
                f"{len(cards)} attacked product streams judged against "
                f"ground-truth labels",
            ),
        )
        data.confusions = aggregate_confusions(cards)
        data.scorecard_rows = scorecard_rows
        data.roc = roc
        data.trust_trajectories = trust_trajectories
        data.drift_warnings = tuple(str(w) for w in drift_warnings)
        kind = write_report(data, args.out)

        detected = sum(1 for card in cards if card.detected)
        run_ledger.record_digest("report.streams_scored", len(cards))
        run_ledger.record_digest("report.detected_streams", detected)
        run_ledger.record_digest("report.roc_auc", roc.auc)
        print(
            f"{kind} report written to {args.out}: {detected}/{len(cards)} "
            f"attacked streams detected, ROC AUC {roc.auc:.3f}, "
            f"{len(drift_warnings)} drift warning(s)"
        )
        return 0
    finally:
        if previous is not None:
            set_registry(previous)


def _run_dir(args) -> Path:
    """The run directory a command reads from (default ``.repro``)."""
    return Path(args.run_dir or DEFAULT_RUN_DIR)


def _cmd_trace(args) -> int:
    path = _run_dir(args) / TRACE_FILE
    payload = read_trace(path)
    print(f"trace {path}: structurally valid")
    print(summarize_trace(payload, top=args.top))
    return 0


def _cmd_profile(args) -> int:
    run_dir = _run_dir(args)
    path = run_dir / METRICS_FILE
    # The samples sit in metrics.json; a run that took none has no
    # ``profile`` section and reads as 0 samples at the default rate.
    try:
        metrics = json.loads(path.read_text(encoding="utf-8"))
        samples = {
            key: float(count) for key, count in metrics.get("profile", {}).items()
        }
        hz = float(metrics["gauges"].get("profile.hz", obs_profile.DEFAULT_HZ))
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValidationError(f"{path}: not a metrics file ({exc!r})") from None
    if not hz > 0:
        hz = float(obs_profile.DEFAULT_HZ)
    total = sum(samples.values())
    print(f"profile {path}: structurally valid")
    print(
        f"{total:.0f} samples at {hz:g} Hz ({total / hz:.2f}s sampled, "
        f"{obs_profile.attributed_fraction(samples):.1%} span-attributed)"
    )
    span_rows = sorted(
        obs_profile.self_seconds_by_span(samples, hz=hz).items(),
        key=lambda item: (-item[1], item[0]),
    )[: args.top]
    if span_rows:
        print()
        print(format_table(
            ["span", "self_seconds"], span_rows, float_format=".3f",
            title=f"Top {len(span_rows)} spans by sampled self time",
        ))
    frame_rows = [
        (label, count / hz)
        for label, count in obs_profile.top_frames(samples, args.top)
    ]
    if frame_rows:
        print()
        print(format_table(
            ["frame", "self_seconds"], frame_rows, float_format=".3f",
            title=f"Top {len(frame_rows)} frames by self time",
        ))
    if args.speedscope:
        obs_profile.write_speedscope(
            samples, args.speedscope, hz=hz, name=str(run_dir),
        )
        print(f"speedscope JSON written to {args.speedscope}")
    return 0


def _cmd_monitor(args) -> int:
    run_dir = _run_dir(args)
    engine = AlertEngine(load_rules(DEFAULT_RULES_PATH))
    recorder, _ = replay_stream(run_dir / SERIES_FILE, engine=engine)
    sys.stdout.write(
        render_frame(
            recorder, engine=engine, select=tuple(args.select or ()),
            top=args.top, width=args.width, title=str(run_dir),
        )
    )
    return 0


def _cmd_alerts(args) -> int:
    paths = args.rule_files or [str(DEFAULT_RULES_PATH)]
    status = 0
    for path in paths:
        try:
            rules = load_rules(path)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"{path}: {len(rules)} rule(s) OK")
        if args.check:
            continue
        rows = [
            (
                rule.name,
                rule.kind,
                rule.metric,
                f"{rule.op} {rule.value:g}",
                f"{rule.for_epochs}/{rule.resolve_epochs}",
                rule.severity,
            )
            for rule in rules
        ]
        print(
            format_table(
                ["rule", "kind", "metric", "condition",
                 "for/resolve", "severity"],
                rows,
            )
        )
    return status


def _cmd_runs(args) -> int:
    ledger = run_ledger.RunLedger(_run_dir(args) / LEDGER_FILE)
    if args.action == "list":
        print(run_ledger.format_runs_table(ledger.tail(args.limit)))
        return 0
    if args.action == "show":
        record = ledger.find(args.ids[0]) if args.ids else ledger.latest()
        if record is None:
            print(f"error: ledger {ledger.path} is empty", file=sys.stderr)
            return 2
        print(json.dumps(record.as_dict(), indent=2, sort_keys=True))
        return 0
    if args.action == "diff":
        if len(args.ids) >= 2:
            a, b = ledger.find(args.ids[0]), ledger.find(args.ids[1])
        else:
            recent = ledger.tail(2)
            if len(recent) < 2:
                print(
                    f"error: need two records to diff, ledger {ledger.path} "
                    f"has {len(recent)}",
                    file=sys.stderr,
                )
                return 2
            a, b = recent
        lines = run_ledger.diff_records(a, b)
        print(f"diff {a.run_id} ({a.when}) -> {b.run_id} ({b.when})")
        print("\n".join(lines) if lines else "(no differences)")
        return 0
    # action == "check"
    report = run_ledger.check_ledger(
        ledger,
        window=args.window,
        max_timing_ratio=args.max_timing_ratio,
        metric_tolerance=args.metric_tolerance,
        digest_tolerance=args.digest_tolerance,
        allow_alerts=args.allow_alerts,
    )
    print(report.to_text())
    if not report.ok:
        return 1
    # Distinct exit code: nothing was comparable, so nothing was checked.
    return 3 if report.no_baseline else 0


_COMMANDS = {
    "world": _cmd_world,
    "attack": _cmd_attack,
    "evaluate": _cmd_evaluate,
    "detect": _cmd_detect,
    "population": _cmd_population,
    "search": _cmd_search,
    "ablation": _cmd_ablation,
    "sensitivity": _cmd_sensitivity,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "monitor": _cmd_monitor,
    "alerts": _cmd_alerts,
    "runs": _cmd_runs,
}

#: Inspection commands never record telemetry about themselves.
_INSPECTION_COMMANDS = frozenset(
    {"trace", "profile", "monitor", "alerts", "runs"}
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.lint import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    setup_logging(args.log_level)
    writer = None
    if args.run_dir and args.command not in _INSPECTION_COMMANDS:
        try:
            writer = RunDirectoryWriter(args.run_dir).start()
        except OSError as exc:
            print(f"error: cannot create run directory: {exc}", file=sys.stderr)
            return 2
    # Stays 2 when the command raises, so the bundle records a failed run.
    status = 2
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # The reader closed stdout (``| head``): stop quietly, and send
        # what is still buffered to /dev/null so the flush at exit
        # cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    finally:
        if writer is not None:
            status = writer.finish(
                args.command,
                list(argv) if argv is not None else sys.argv[1:],
                status,
            )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

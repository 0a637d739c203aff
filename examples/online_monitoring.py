"""Operating the reliable rating system online.

Streams ratings into :class:`repro.online.OnlineRatingSystem` one at a
time, the way a deployed site would see them: 45 days of pre-existing
history prime the detectors, honest live traffic flows in, and an unfair
rating campaign hits mid-stream.  Scores are published at every 30-day
epoch; the P-scheme's published trajectory is compared against the
undefended average.

A second, Poisson-violating scenario then streams a concentrated burst
campaign through the system: the assumption drift monitors
(:mod:`repro.obs.drift`) flag the epoch where the fair-traffic regime
broke, and the whole run is rendered into a self-contained HTML report.

Finally the same burst replays into the run directory
``online_monitoring_run``, collected by the same writer as ``--run-dir``
on the CLI: every epoch close snapshots the registry into ring-buffered
time series (:mod:`repro.obs.series`), streams one JSONL line to the
directory's ``series.jsonl``, and evaluates the default alert ruleset
(:mod:`repro.obs.alerts`) -- which stays silent on the fair world and
fires on the burst epoch, reporting detection latency in epochs.  The
fair and the burst replay each append one ledger record; the burst one
leaves the other bundle files.  Render the stream afterwards with::

    repro-rating monitor --run-dir online_monitoring_run

Run with::

    python examples/online_monitoring.py [seed]
"""

import sys
from pathlib import Path

from repro import PScheme, RatingChallenge, SimpleAveragingScheme
from repro.analysis.reporting import format_table
from repro.attacks import AttackGenerator, AttackSpec, ProductTarget
from repro.attacks.time_models import ConcentratedBurst, UniformWindow
from repro.obs import (
    MetricsRegistry,
    report_from_registry,
    use_registry,
    write_report,
)
from repro.obs.export import SERIES_FILE, RunDirectoryWriter
from repro.online import OnlineRatingSystem
from repro.types import RatingDataset

RUN_DIR = Path("online_monitoring_run")


def split_history(challenge):
    """Separate the world's pre-challenge history from live traffic."""
    history_streams = []
    live_ratings = []
    for pid in challenge.fair_dataset:
        stream = challenge.fair_dataset[pid]
        history_streams.append(
            stream.subset(stream.times < challenge.start_day)
        )
        live = stream.subset(stream.times >= challenge.start_day)
        live_ratings.extend(live)
    return RatingDataset(history_streams), live_ratings


def main(seed: int = 9) -> None:
    challenge = RatingChallenge(seed=seed)
    history, live = split_history(challenge)
    print(
        f"History: {history.total_ratings()} ratings before day "
        f"{challenge.start_day:.0f}; live traffic: {len(live)} ratings."
    )

    generator = AttackGenerator(
        challenge.fair_dataset, challenge.config.biased_rater_ids(), seed=seed
    )
    submission = generator.generate(
        [ProductTarget("tv1", -1), ProductTarget("tv2", -1)],
        AttackSpec(3.0, 0.3, 50, UniformWindow(32.0, 20.0)),
        submission_id="live_campaign",
    )
    attack_ratings = [r for s in submission.streams.values() for r in s]
    print(
        f"Attack campaign: {len(attack_ratings)} unfair ratings on tv1/tv2, "
        "days 32-52."
    )

    feed = sorted(live + attack_ratings)
    systems = {
        "SA": OnlineRatingSystem(
            SimpleAveragingScheme(), start_day=challenge.start_day,
            period_days=30.0, history=history,
        ),
        "P": OnlineRatingSystem(
            PScheme(), start_day=challenge.start_day,
            period_days=30.0, history=history,
        ),
    }
    for name, system in systems.items():
        system.submit_many(feed)
        while system.current_epoch_start < challenge.end_day:
            system.close_epoch()

    fair_monthly = SimpleAveragingScheme().monthly_scores(
        challenge.fair_dataset, 30.0, challenge.start_day, challenge.end_day
    )
    rows = []
    for epoch in range(len(systems["SA"].reports)):
        for pid in ("tv1", "tv2"):
            truth = fair_monthly[pid][epoch]
            rows.append(
                (
                    epoch + 1,
                    pid,
                    truth,
                    systems["SA"].reports[epoch].score_of(pid),
                    systems["P"].reports[epoch].score_of(pid),
                )
            )
    print(
        format_table(
            ["month", "product", "fair mean", "SA publishes", "P publishes"],
            rows,
            title="Published scores under live attack",
        )
    )
    print(
        "\nThe attacked months' SA scores dip visibly below the fair mean;"
        "\nthe P-scheme's published scores stay close to it -- the joint"
        "\ndetector flagged the campaign as it streamed in, the trust"
        "\nmanager demoted the attacking accounts, and Eq. 7 silenced them."
    )

    drift_scenario(challenge, history, live, seed)


def drift_scenario(challenge, history, live, seed: int) -> None:
    """A Poisson-violating burst campaign, caught by the drift monitors."""
    print("\n--- Assumption drift: a burst campaign breaks the regime ---")
    generator = AttackGenerator(
        challenge.fair_dataset, challenge.config.biased_rater_ids(),
        seed=seed + 100,
    )
    burst = generator.generate(
        [ProductTarget("tv1", -1)],
        # 50 unfair ratings compressed into half a day: arrival dispersion
        # explodes far past anything a Poisson process produces.
        AttackSpec(3.0, 0.3, 50, ConcentratedBurst(center=45.0, width=0.5)),
        submission_id="burst_campaign",
    )
    burst_ratings = [r for s in burst.streams.values() for r in s]

    registry = MetricsRegistry()
    with use_registry(registry):
        system = OnlineRatingSystem(
            PScheme(), start_day=challenge.start_day,
            period_days=30.0, history=history,
        )
        system.submit_many(sorted(live + burst_ratings))
        while system.current_epoch_start < challenge.end_day:
            system.close_epoch()

    # Note: the final epoch window extends past the end of the recorded
    # data (day 82 of a [60, 90) window), so its trailing zero-count days
    # can mildly inflate the dispersion statistic -- a deployment would
    # keep receiving traffic there.  The burst epoch is the clear signal.
    for report in system.reports:
        window = f"days {report.epoch_start:.0f}-{report.epoch_end:.0f}"
        if report.drift_warnings:
            print(f"epoch {report.epoch_index + 1} ({window}):")
            for warning in report.drift_warnings:
                print(f"  DRIFT {warning}")
        else:
            print(f"epoch {report.epoch_index + 1} ({window}): regime held")
    print(
        f"\ndrift.checks={registry.counter_value('drift.checks'):g} "
        f"drift.warnings={registry.counter_value('drift.warnings'):g}"
    )

    data = report_from_registry(
        registry,
        title="Online monitoring under a burst campaign",
        notes=(
            "50 unfair ratings concentrated into half a day on tv1",
            "drift monitors ran on every 30-day epoch close",
        ),
    )
    data.drift_warnings = tuple(
        str(w) for report in system.reports for w in report.drift_warnings
    )
    out = "online_monitoring_report.html"
    write_report(data, out)
    print(
        f"self-contained report written to {out} "
        f"({len(data.drift_warnings)} drift warning(s) rendered)"
    )

    alerting_scenario(challenge, seed)


def alerting_scenario(challenge, seed: int) -> None:
    """The burst again, watched live by the default alert ruleset."""
    print("\n--- Live alerting: default ruleset over the metrics stream ---")
    generator = AttackGenerator(
        challenge.fair_dataset, challenge.config.biased_rater_ids(),
        seed=seed + 100,
    )
    burst = generator.generate(
        [ProductTarget("tv1", +1)],
        AttackSpec(3.0, 0.3, 50, ConcentratedBurst(center=45.0, width=0.5)),
        submission_id="burst_campaign",
    )

    def replay(name, submission):
        """One online replay into the run directory; its alert engine."""
        writer = RunDirectoryWriter(RUN_DIR).start()
        challenge.replay_online(
            PScheme(), submission=submission, registry=writer.registry
        )
        writer.finish("online_monitoring", [name, *sys.argv[1:]], 0)
        return writer.registry.series.engine

    fair_engine = replay("fair", None)
    print(
        f"fair world : {len(fair_engine.events)} alert event(s) "
        "(the ruleset must stay silent here)"
    )
    burst_engine = replay("burst", burst)
    for event in burst_engine.events:
        print(
            f"burst world: [{event.state.upper():8s}] {event.rule} "
            f"at epoch {event.epoch} "
            f"(latency {event.latency_epochs} epoch(s), "
            f"value {event.value:g})"
        )
    print(
        f"\nmetrics stream written to {RUN_DIR / SERIES_FILE} --"
        f"\nreplay it with: repro-rating monitor --run-dir {RUN_DIR}"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)

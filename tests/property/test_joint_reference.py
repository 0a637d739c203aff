"""The joint detector against the eager reference of ``tests/reference.py``.

:class:`~repro.detectors.integration.JointDetector` builds every stream's
MC curve and H-/L-ARC series, and the ME (HC) curve only for a stream
whose H-ARC (L-ARC) alarm fired -- the only streams where Path 2
consults ME (HC) -- reusing cached curves across merges and snapshots.
:func:`~tests.reference.eager_joint_detection` runs every sub-detector's
standalone ``analyze`` on every stream.  The two must agree bit for bit
on every mask, provenance bit, path interval, alarm, ``quality.*``
scorecard and curve the production report holds.  The report holds MC,
H-ARC and L-ARC, plus HC exactly when the L-ARC alarm fired and ME
exactly when the H-ARC alarm fired (neither with Path 2 disabled), so
the reports' curves pin those consultations.  Each ``analyze_batch``
call records one ``detector.<kind>`` span per kind that ran on the batch.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.reference import eager_joint_detection

from repro.aggregation import PScheme, PSchemeConfig
from repro.detectors import DetectorConfig, JointDetector, integration
from repro.experiments.context import ExperimentContext
from repro.obs import MetricsRegistry
from repro.obs.quality import DETECTOR_ORDER, emit_scorecards, score_detection
from repro.types import RatingDataset, RatingStream


def consulted_kinds(config, alarms):
    """The curve kinds a report holds, given its ARC alarms."""
    if not alarms:  # a stream too short to detect
        return set()
    kinds = {"MC", "H-ARC", "L-ARC"}
    if config.enable_path2 and alarms["L-ARC"]:
        kinds.add("HC")
    if config.enable_path2 and alarms["H-ARC"]:
        kinds.add("ME")
    return kinds


class ReferenceLedger:
    """Checks reports against the eager reference, and keeps what the
    production detector must have counted: each batch's reference
    scorecards (emitted into :attr:`registry`), the Path 2 consultations,
    and one ``detector.<kind>`` span per batch and kind that ran."""

    def __init__(self, config):
        self.config = config
        self.registry = MetricsRegistry()
        self.consulted = {"HC": 0, "ME": 0}
        self.spans = dict.fromkeys(("MC", "H-ARC", "L-ARC", "HC", "ME"), 0)

    def check(self, dataset, reports, trust_lookup=None):
        """Check one ``analyze_batch`` call's reports (a lone ``analyze``
        is a batch of one)."""
        assert list(reports) == list(dataset)
        cards = []
        ran = set()
        for pid in dataset:
            stream, report = dataset[pid], reports[pid]
            expected = eager_joint_detection(self.config, stream, trust_lookup)
            assert np.array_equal(report.suspicious, expected.suspicious), pid
            assert np.array_equal(report.provenance, expected.provenance), pid
            assert report.path1_intervals == expected.path1_intervals, pid
            assert report.path2_intervals == expected.path2_intervals, pid
            assert report.alarms == expected.alarms, pid
            kinds = consulted_kinds(self.config, expected.alarms)
            assert set(report.curves) == kinds, pid
            for kind in kinds:
                got, want = report.curves[kind], expected.curves[kind]
                assert np.array_equal(got.times, want.times), (pid, kind)
                assert np.array_equal(got.indices, want.indices), (pid, kind)
                assert np.array_equal(got.values, want.values), (pid, kind)
            for kind in ("HC", "ME"):
                self.consulted[kind] += kind in kinds
            ran |= kinds
            if len(stream) >= self.config.min_ratings:
                cards.append(score_detection(stream, expected))
        emit_scorecards(cards, self.registry)
        for kind in ran:
            self.spans[kind] += 1

    def assert_counted(self, registry):
        """``registry`` (the production detector's) holds the reference's
        ``quality.*`` metrics exactly, and one ``detector.<kind>`` span per
        checked batch and kind that ran on it."""
        expected = self.registry.snapshot()
        got = registry.snapshot()
        for section in ("counters", "histograms"):
            quality = {
                name: value
                for name, value in got[section].items()
                if name.startswith("quality.")
            }
            assert quality == expected[section], section
        for kind, count in self.spans.items():
            spans = sum(
                hist.count
                for name, hist in registry.histograms.items()
                if name.endswith(f"detector.{kind}.seconds")
            )
            assert spans == count, kind


class CountingRegistry(MetricsRegistry):
    """A collecting registry that logs every span record and counter
    increment it receives, in order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def record_span(self, record):
        self.log.append(("span", record.path))
        super().record_span(record)

    def inc(self, name, amount=1.0):
        self.log.append(("inc", name))
        super().inc(name, amount)


class RecordingDetector(JointDetector):
    """A joint detector that keeps every batch it analyzed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def analyze_batch(self, dataset, trust_lookup=None):
        reports = super().analyze_batch(dataset, trust_lookup)
        self.batches.append((dataset, trust_lookup, reports))
        return reports


def recording_pscheme(config, registry):
    scheme = PScheme(config, registry=registry)
    scheme.detector = RecordingDetector(config.detector, registry=registry)
    return scheme


# --------------------------------------------------------------------- #
# Drawn batches
# --------------------------------------------------------------------- #

#: Small windows, so that short drawn streams have several of each.
SMALL = DetectorConfig(
    mc_window_days=6.0, arc_window_days=6, arc_long_window_days=12,
    hc_window_ratings=8, me_window_ratings=8, ar_order=2, min_ratings=4,
)

fair_values = st.sampled_from([3.0, 3.5, 4.0, 4.0, 4.5, 5.0])


@st.composite
def attacked_streams(draw, product_id):
    """A fair stream and, maybe, a burst of unfair ratings to merge in.

    Fair times sit on a half-day grid, so burst rows tie with fair ones.
    A burst is low (1.0 or 0.0) or high (5.0) ratings packed into a few
    days, which is what raises an L-ARC or an H-ARC alarm.
    """
    n = draw(st.integers(0, 70))
    times = draw(
        st.lists(st.integers(0, 120).map(lambda v: v / 2.0), min_size=n, max_size=n)
    )
    values = draw(st.lists(fair_values, min_size=n, max_size=n))
    fair = RatingStream(product_id, times, values, [f"f{i}" for i in range(n)])
    m = draw(st.integers(0, 30))
    start = draw(st.integers(0, 100)) / 2.0
    offsets = st.integers(0, 12).map(lambda v: start + v / 2.0)
    burst_times = draw(st.lists(offsets, min_size=m, max_size=m))
    level = draw(st.sampled_from([0.0, 1.0, 5.0]))
    jitter = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=m, max_size=m))
    burst = RatingStream(
        product_id, burst_times, [abs(level - j) for j in jitter],
        [f"a{i}" for i in range(m)], [True] * m,
    )
    return fair, burst


@st.composite
def attacked_batches(draw):
    count = draw(st.integers(1, 4))
    parts = [draw(attacked_streams(f"p{i}")) for i in range(count)]
    fair = RatingDataset([f for f, _ in parts])
    attacked = fair.merge({f.product_id: b for f, b in parts})
    return fair, attacked


class TestDrawnBatches:
    @given(
        attacked_batches(),
        st.sampled_from([SMALL, DetectorConfig()]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batches_match_the_reference(self, batches, config, path1, path2):
        config = replace(config, enable_path1=path1, enable_path2=path2)
        registry = MetricsRegistry()
        detector = JointDetector(config, registry=registry)
        ledger = ReferenceLedger(config)
        # The fair batch, then the attacked one: its streams find their
        # fair bases in the curve cache, and may need a kind the base
        # lacks.  Then each attacked stream alone, from its own entry.
        fair, attacked = batches
        for dataset in (fair, attacked):
            ledger.check(dataset, detector.analyze_batch(dataset))
        for pid in attacked:
            ledger.check(
                RatingDataset([attacked[pid]]),
                {pid: detector.analyze(attacked[pid])},
            )
        ledger.assert_counted(registry)

    def test_an_alarmed_stream_gets_both_curves(self):
        # Low and high bursts on one stream raise both alarms.
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 90.0, 400))
        values = rng.choice([3.5, 4.0, 4.5, 5.0], times.size)
        low = RatingStream(
            "p", np.linspace(20.0, 24.0, 60), np.zeros(60), ["x"] * 60
        )
        high = RatingStream(
            "p", np.linspace(60.0, 61.0, 80), np.full(80, 5.0), ["y"] * 80
        )
        stream = RatingStream("p", times, values, [f"r{i}" for i in range(times.size)])
        stream = stream.merge(low).merge(high)
        registry = MetricsRegistry()
        ledger = ReferenceLedger(DetectorConfig())
        dataset = RatingDataset([stream])
        ledger.check(dataset, JointDetector(registry=registry).analyze_batch(dataset))
        assert ledger.consulted == {"HC": 1, "ME": 1}
        ledger.assert_counted(registry)


# --------------------------------------------------------------------- #
# Both seeds' populations
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [2008, 7])
class TestPopulations:
    def test_headline_order(self, seed):
        # As manipulation_power detects them: the fair world, then each
        # attacked dataset, through one detector and its curve cache.
        context = ExperimentContext(seed=seed, population_size=6)
        challenge = context.challenge
        registry = MetricsRegistry()
        detector = JointDetector(registry=registry)
        ledger = ReferenceLedger(detector.config)
        for submission in context.population:
            for dataset in (
                challenge.fair_dataset,
                challenge.attacked_dataset(submission),
            ):
                ledger.check(dataset, detector.analyze_batch(dataset))
        ledger.assert_counted(registry)
        # Path 2 consults something, and not everywhere.
        assert 0 < ledger.consulted["HC"] < 6 * 2 * 9
        assert registry.counter_value("detector.batch.fallbacks") == 0

    def test_one_span_per_kind_and_one_fold_per_batch(self, seed):
        # Each analyze_batch call records one detector.<kind> span per kind
        # that ran on the batch -- MC and both ARC kinds when a stream was
        # long enough, HC iff an L-ARC alarm fired, ME iff an H-ARC alarm
        # did -- and folds its scorecards in once: one increment of each
        # quality counter, whatever the number of streams.
        context = ExperimentContext(seed=seed, population_size=6)
        challenge = context.challenge
        registry = CountingRegistry()
        detector = JointDetector(registry=registry)
        quality = ["quality.scorecards"] + [
            f"quality.{row}.{cell}"
            for row in DETECTOR_ORDER
            for cell in ("tp", "fp", "fn", "tn")
        ]
        batches = Counter()
        for submission in context.population:
            for dataset in (
                challenge.fair_dataset,
                challenge.attacked_dataset(submission),
            ):
                start = len(registry.log)
                alarms = [r.alarms for r in detector.analyze_batch(dataset).values()]
                log = Counter(registry.log[start:])
                ran = {
                    "MC": any(alarms),
                    "H-ARC": any(alarms),
                    "L-ARC": any(alarms),
                    "HC": any(a.get("L-ARC") for a in alarms),
                    "ME": any(a.get("H-ARC") for a in alarms),
                }
                for kind, expected in ran.items():
                    assert log[("span", f"detector.{kind}")] == expected, kind
                    batches[kind] += expected
                for name in quality:
                    assert log[("inc", name)] == 1, name
        assert batches["MC"] == 2 * 6
        assert batches["HC"] > 0

    def test_builds_only_the_consulted_curves(self, seed, monkeypatch):
        # The batch pass hands the HC builder the L-ARC-alarmed streams
        # and the ME builder the H-ARC-alarmed ones, and no others.
        built = {"HC": 0, "ME": 0}
        for kind, name in (
            ("HC", "histogram_change_curves"), ("ME", "model_error_curves")
        ):
            original = getattr(integration, name)

            def counting(times, values, bounds, *args, _kind=kind, _f=original):
                built[_kind] += len(bounds)
                return _f(times, values, bounds, *args)

            monkeypatch.setattr(integration, name, counting)
        context = ExperimentContext(seed=seed, population_size=4)
        challenge = context.challenge
        detector = JointDetector(registry=MetricsRegistry())
        alarms = {"HC": 0, "ME": 0}
        for submission in context.population:
            for dataset in (
                challenge.fair_dataset,
                challenge.attacked_dataset(submission),
            ):
                for report in detector.analyze_batch(dataset).values():
                    alarms["HC"] += report.alarms.get("L-ARC", False)
                    alarms["ME"] += report.alarms.get("H-ARC", False)
        assert built == alarms
        assert 0 < alarms["HC"]

    def test_path2_disabled(self, seed):
        context = ExperimentContext(seed=seed, population_size=3)
        config = DetectorConfig(enable_path2=False)
        registry = MetricsRegistry()
        detector = JointDetector(config, registry=registry)
        ledger = ReferenceLedger(config)
        for submission in context.population:
            dataset = context.challenge.attacked_dataset(submission)
            reports = detector.analyze_batch(dataset)
            ledger.check(dataset, reports)
            assert all(
                set(report.curves) <= {"MC", "H-ARC", "L-ARC"}
                for report in reports.values()
            )
        assert ledger.consulted == {"HC": 0, "ME": 0}
        ledger.assert_counted(registry)

    def test_two_pass_trust(self, seed):
        context = ExperimentContext(seed=seed, population_size=4)
        registry = MetricsRegistry()
        scheme = recording_pscheme(PSchemeConfig(two_pass=True), registry)
        ledger = ReferenceLedger(scheme.config.detector)
        for submission in context.population:
            context.challenge.evaluate(submission, scheme, validate=False)
        lookups = 0
        for dataset, lookup, reports in scheme.detector.batches:
            ledger.check(dataset, reports, lookup)
            lookups += lookup is not None
        assert lookups >= 4
        ledger.assert_counted(registry)

    def test_online_snapshots(self, seed):
        context = ExperimentContext(seed=seed, population_size=3)
        registry = MetricsRegistry()
        scheme = recording_pscheme(PSchemeConfig(), registry)
        ledger = ReferenceLedger(scheme.config.detector)
        for submission in context.population:
            context.challenge.replay_online(
                scheme, submission, validate=False, monitor_drift=False
            )
        assert len(scheme.detector.batches) >= 6
        for dataset, lookup, reports in scheme.detector.batches:
            ledger.check(dataset, reports, lookup)
        ledger.assert_counted(registry)

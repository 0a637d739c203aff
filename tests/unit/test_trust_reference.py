"""Procedure 1 and Eq. 7 against plain references.

The references are the per-rating implementations the coded paths
replaced, kept verbatim: :class:`ReferenceTrustManager` counts each epoch
with one dict ``setdefault`` per rating, rescanning every product in
every epoch, and keeps one :class:`~tests.reference.BetaEvidence` per
rater; :func:`reference_aggregate` cuts each Eq. 7 window with a boolean
mask and reads each rating's trust with one ``snapshot.value`` call.

The fast paths must reproduce them exactly: every snapshot (keys in
order, values as ``float.hex``), every Eq. 7 series (as ``tobytes()``)
and the ``trust.value`` histogram, whose running total depends on the
snapshot order.  Detection is not under test here: both sides score the
marks of the same :meth:`PScheme.detect` call.
"""

from typing import Dict, List

import numpy as np
import pytest
from tests.reference import BetaEvidence

from repro.aggregation.base import month_windows
from repro.aggregation.pscheme import PScheme, PSchemeConfig
from repro.aggregation.weighted import trust_weighted_average
from repro.errors import ValidationError
from repro.experiments.context import ExperimentContext
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.trust.manager import TrustManager
from repro.types import RatingDataset, RatingStream

# --------------------------------------------------------------------- #
# The references
# --------------------------------------------------------------------- #


class ReferenceSnapshot:
    def __init__(self, epoch_time, trust):
        self.epoch_time = epoch_time
        self.trust = trust

    def value(self, rater_id, default=0.5):
        return self.trust.get(rater_id, default)


class ReferenceTrustManager:
    """Procedure 1 as a per-rating dict loop over ``BetaEvidence``."""

    def __init__(self, initial_trust=0.5, forgetting_factor=1.0, registry=None):
        self.initial_trust = initial_trust
        self.forgetting_factor = forgetting_factor
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._evidence: Dict[str, BetaEvidence] = {}

    def record_epoch(self, counts):
        if self.forgetting_factor < 1.0:
            for evidence in self._evidence.values():
                evidence.successes *= self.forgetting_factor
                evidence.failures *= self.forgetting_factor
        for rater_id, (n_i, f_i) in counts.items():
            if f_i > n_i:
                raise ValidationError("suspicious count exceeds rating count")
            evidence = self._evidence.setdefault(rater_id, BetaEvidence())
            evidence.record(good=n_i - f_i, bad=f_i)

    def snapshot(self, epoch_time):
        return ReferenceSnapshot(
            epoch_time, {rid: ev.trust for rid, ev in self._evidence.items()}
        )

    def run(self, dataset, marks, epoch_times):
        epoch_times = list(epoch_times)
        if any(b <= a for a, b in zip(epoch_times, epoch_times[1:])):
            raise ValidationError("epoch_times must be strictly increasing")
        self._evidence.clear()
        snapshots: List[ReferenceSnapshot] = []
        previous = -np.inf
        for epoch_time in epoch_times:
            counts: Dict[str, List[int]] = {}
            for product_id in dataset:
                stream = dataset[product_id]
                mask = np.asarray(marks.get(product_id, np.zeros(len(stream), bool)))
                if mask.size != len(stream):
                    raise ValidationError("mark length mismatch")
                in_epoch = (stream.times >= previous) & (stream.times < epoch_time)
                for idx in np.nonzero(in_epoch)[0]:
                    entry = counts.setdefault(stream.rater_ids[idx], [0, 0])
                    entry[0] += 1
                    if mask[idx]:
                        entry[1] += 1
            self.record_epoch({rid: (n, f) for rid, (n, f) in counts.items()})
            snapshots.append(self.snapshot(epoch_time))
            previous = epoch_time
        registry = self.registry
        if registry.enabled:
            registry.inc("trust.epochs", len(epoch_times))
            registry.inc("trust.runs")
            registry.set_gauge("trust.raters", float(len(self._evidence)))
            if snapshots:
                for value in snapshots[-1].trust.values():
                    registry.observe("trust.value", value)
        return snapshots


def reference_aggregate(config, dataset, windows, marks, snapshots):
    """Step 4 of the P-scheme: mask-cut windows, one trust lookup per rating."""
    scores: Dict[str, np.ndarray] = {}
    threshold = config.filter_trust_threshold
    for product_id in dataset:
        stream = dataset[product_id]
        mask = marks[product_id]
        series = np.full(len(windows), np.nan)
        for i, (lo, hi) in enumerate(windows):
            in_window = (stream.times >= lo) & (stream.times < hi)
            if not in_window.any():
                continue
            idx = np.nonzero(in_window)[0]
            suspicious = mask[idx]
            if not config.use_trust_weights:
                keep = ~suspicious
                if not keep.any():
                    continue
                series[i] = float(stream.values[idx][keep].mean())
                continue
            snapshot = snapshots[i]
            trusts = np.asarray(
                [snapshot.value(stream.rater_ids[j], config.initial_trust) for j in idx]
            )
            keep = ~(suspicious & (trusts < threshold))
            if not keep.any():
                continue
            series[i] = trust_weighted_average(stream.values[idx][keep], trusts[keep])
        scores[product_id] = series
    return scores


def reference_monthly_scores(config, dataset, period_days, start_day, end_day):
    """The P-scheme pipeline with both references in place of the fast paths."""
    detector = PScheme(config)
    windows = month_windows(start_day, end_day, period_days)
    epoch_times = [hi for _, hi in windows]

    def trust(marks):
        manager = ReferenceTrustManager(config.initial_trust, config.forgetting_factor)
        return manager.run(dataset, marks, epoch_times)

    marks = detector.detect(dataset)
    snapshots = trust(marks)
    if config.two_pass:
        final = snapshots[-1]
        marks = detector.detect(
            dataset, trust_lookup=lambda rid: final.value(rid, config.initial_trust)
        )
        snapshots = trust(marks)
    return reference_aggregate(config, dataset, windows, marks, snapshots)


# --------------------------------------------------------------------- #
# Datasets
# --------------------------------------------------------------------- #


def challenge_cases(seed, size):
    """The fair world plus ``size`` attacked datasets, each with its window."""
    context = ExperimentContext(seed=seed, population_size=size, workers=0)
    challenge = context.challenge
    window = (challenge.config.period_days, challenge.start_day, challenge.end_day)
    datasets = [challenge.fair_dataset]
    datasets += [challenge.attacked_dataset(s) for s in context.population]
    return [(dataset, window) for dataset in datasets]


def edge_dataset():
    """Epochs at 30, 60 and 90 over three products.

    ``b`` rates exactly on the first edge (it counts in epoch 2), ``e`` is
    first seen in epoch 2, ``z`` rates only after the last epoch, ``q``
    has an empty stream, and ``a`` rates exactly on the second edge.
    """
    p = RatingStream(
        "p",
        [1.0, 5.0, 30.0, 45.0, 60.0, 95.0],
        [4.0, 4.0, 1.0, 4.5, 3.0, 2.0],
        ["a", "c", "b", "c", "a", "z"],
    )
    q = RatingStream.empty("q")
    r = RatingStream(
        "r",
        [10.0, 31.0, 31.0, 59.5, 89.9, 90.0],
        [3.5, 0.5, 4.0, 4.0, 5.0, 1.0],
        ["c", "e", "b", "e", "a", "z"],
    )
    return RatingDataset([p, q, r])


EDGE_EPOCHS = [30.0, 60.0, 90.0]
EDGE_MARKS = {
    "p": np.array([False, True, True, False, True, False]),
    "r": np.array([False, True, True, False, False, True]),
}


@pytest.fixture(scope="module")
def cases():
    return challenge_cases(2008, 3) + challenge_cases(7, 3)


@pytest.fixture(scope="module")
def marked_cases(cases):
    """Each case with its detector marks and with seeded random marks."""
    rng = np.random.default_rng(20)
    out = []
    for dataset, (period, start, end) in cases:
        epochs = [hi for _, hi in month_windows(start, end, period)]
        detected = PScheme().detect(dataset)
        random_marks = {
            pid: rng.random(len(dataset[pid])) < 0.2 for pid in dataset
        }
        out.append((dataset, detected, epochs))
        out.append((dataset, random_marks, epochs))
    out.append((edge_dataset(), EDGE_MARKS, EDGE_EPOCHS))
    out.append((edge_dataset(), {"r": EDGE_MARKS["r"]}, EDGE_EPOCHS))
    out.append((RatingDataset([]), {}, EDGE_EPOCHS))
    return out


def snapshot_items(snapshot):
    return [(rid, float(value).hex()) for rid, value in snapshot.trust.items()]


def assert_same_snapshots(got, expected):
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert mine.epoch_time == theirs.epoch_time
        assert snapshot_items(mine) == snapshot_items(theirs)


def assert_same_series(got, expected):
    assert list(got) == list(expected)
    for product_id, series in expected.items():
        assert got[product_id].tobytes() == series.tobytes(), product_id


# --------------------------------------------------------------------- #
# Procedure 1
# --------------------------------------------------------------------- #


class TestProcedureOne:
    @pytest.mark.parametrize("factor", [1.0, 0.7], ids=["no-fading", "fading0.7"])
    @pytest.mark.parametrize("initial", [0.5, 0.3], ids=["init0.5", "init0.3"])
    def test_snapshots_match_reference(self, marked_cases, factor, initial):
        for dataset, marks, epochs in marked_cases:
            assert_same_snapshots(
                TrustManager(initial, factor).run(dataset, marks, epochs),
                ReferenceTrustManager(initial, factor).run(dataset, marks, epochs),
            )

    @pytest.mark.parametrize("factor", [1.0, 0.7], ids=["no-fading", "fading0.7"])
    def test_telemetry_matches_reference(self, marked_cases, factor):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        for dataset, marks, epochs in marked_cases:
            TrustManager(0.5, factor, registry=mine).run(dataset, marks, epochs)
            ReferenceTrustManager(0.5, factor, registry=theirs).run(
                dataset, marks, epochs
            )
        got = mine.histograms["trust.value"].state()
        expected = theirs.histograms["trust.value"].state()
        assert got[0] == expected[0] > 0
        assert float(got[1]).hex() == float(expected[1]).hex()
        assert got[2:4] == expected[2:4]
        assert [float(v).hex() for v in got[4]] == [float(v).hex() for v in expected[4]]
        for name in ("trust.runs", "trust.epochs"):
            assert mine.counter_value(name) == theirs.counter_value(name)
        assert mine.gauges["trust.raters"].value == theirs.gauges["trust.raters"].value

    def test_edge_epochs(self):
        snapshots = TrustManager().run(edge_dataset(), EDGE_MARKS, EDGE_EPOCHS)
        first, second, third = (list(s.trust) for s in snapshots)
        # Epoch 1 is t < 30: b's rating at 30 belongs to epoch 2.
        assert first == ["a", "c"]
        # e is first seen in epoch 2; order is product, then position.
        assert second == ["a", "c", "b", "e"]
        # z rates only at or after the last epoch time: never counted.
        assert third == second
        # b: two marked ratings, at 30 (p) and at 31 (r).
        assert snapshots[1].value("b") == 1.0 / 4.0
        assert snapshots[2].value("z", 0.3) == 0.3

    def test_unseen_raters_read_the_default(self):
        manager = TrustManager(initial_trust=0.3)
        snapshots = manager.run(edge_dataset(), EDGE_MARKS, EDGE_EPOCHS)
        assert snapshots[0].value("e", 0.3) == 0.3
        assert manager.trust_of("e") != 0.3
        assert manager.trust_of("z") == 0.3
        assert manager.trust_of("nobody") == 0.3

    def test_empty_dataset(self):
        snapshots = TrustManager().run(RatingDataset([]), {}, EDGE_EPOCHS)
        assert [s.epoch_time for s in snapshots] == EDGE_EPOCHS
        assert all(dict(s.trust) == {} for s in snapshots)

    def test_manager_state_after_run(self):
        # record_epoch and trust_of continue from the evidence run left.
        mine = TrustManager(0.5, 0.7)
        theirs = ReferenceTrustManager(0.5, 0.7)
        for manager in (mine, theirs):
            manager.run(edge_dataset(), EDGE_MARKS, EDGE_EPOCHS)
            manager.record_epoch({"e": (2, 1), "new": (1, 0)})
        assert snapshot_items(mine.snapshot(120.0)) == snapshot_items(
            theirs.snapshot(120.0)
        )
        assert mine.trust_of("e") == theirs.snapshot(0.0).value("e")


# --------------------------------------------------------------------- #
# Eq. 7 through the P-scheme
# --------------------------------------------------------------------- #

CONFIGS = {
    "default": PSchemeConfig(),
    "init0.3": PSchemeConfig(initial_trust=0.3),
    "fading0.7": PSchemeConfig(forgetting_factor=0.7),
    "no-trust-weights": PSchemeConfig(use_trust_weights=False),
    "two-pass": PSchemeConfig(two_pass=True),
}


class TestEquationSeven:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_monthly_scores_match_reference(self, cases, name):
        config = CONFIGS[name]
        for dataset, window in cases:
            assert_same_series(
                PScheme(config).monthly_scores(dataset, *window),
                reference_monthly_scores(config, dataset, *window),
            )

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_edge_dataset_matches_reference(self, name):
        config = CONFIGS[name]
        for window in ((30.0, 0.0, 90.0), (30.0, 20.0, 80.0), (15.0, 0.0, 100.0)):
            assert_same_series(
                PScheme(config).monthly_scores(edge_dataset(), *window),
                reference_monthly_scores(config, edge_dataset(), *window),
            )

    def test_empty_dataset(self):
        assert PScheme().monthly_scores(RatingDataset([])) == {}

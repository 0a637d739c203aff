"""Serial and parallel runs must export *identical* merged telemetry.

The capsule mechanism's contract: with ``hermetic_telemetry`` on, every
quality counter, gauge, and histogram summary merged into the parent
registry is the same whether tasks ran inline (``workers=0``) or across
a process pool (``workers=2``) -- only the ``exec.*`` pool bookkeeping
namespace may differ.  These tests pin that contract, plus the CLI
surfaces built on it: a ``--run-dir`` run writes a structurally valid
Perfetto trace, and ``repro runs check`` flags an injected regression
against a ledger baseline.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.context import ExperimentContext
from repro.obs import MetricsRegistry, TelemetryCapsule, read_trace, set_registry
from repro.obs.export import LEDGER_FILE, TRACE_FILE
from repro.obs.ledger import RunLedger

SEED = 2008
POP = 6

#: Pool/dispatch bookkeeping: legitimately differs between topologies.
EXEC_PREFIX = "exec."


def merged_telemetry(workers):
    """Run the P-scheme population under a fresh registry; return snapshot."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        context = ExperimentContext(
            seed=SEED,
            population_size=POP,
            workers=workers,
            hermetic_telemetry=True,
        )
        results = context.results_for("P")
        context.close()
    finally:
        set_registry(previous)
    return registry, results


def comparable_counters(registry):
    return {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if not name.startswith(EXEC_PREFIX)
    }


def comparable_histograms(registry):
    """Full five-number summaries for every non-exec histogram.

    Timing histograms (``*.seconds``) carry wall-clock noise, so only
    their observation *counts* are comparable; value histograms must
    match exactly.
    """
    counts, values = {}, {}
    for name, hist in registry.histograms.items():
        if name.startswith(EXEC_PREFIX) or name.startswith("span.exec."):
            continue
        counts[name] = hist.count
        if not name.endswith(".seconds"):
            values[name] = hist.summary()
    return counts, values


class TestSerialParallelTelemetryParity:
    @pytest.fixture(scope="class")
    def serial(self):
        return merged_telemetry(workers=0)

    @pytest.fixture(scope="class")
    def parallel(self):
        return merged_telemetry(workers=2)

    def test_results_still_bit_identical(self, serial, parallel):
        _, serial_results = serial
        _, parallel_results = parallel
        assert set(serial_results) == set(parallel_results)
        for sid in serial_results:
            assert serial_results[sid].total == parallel_results[sid].total

    def test_counters_identical_modulo_exec(self, serial, parallel):
        serial_counters = comparable_counters(serial[0])
        parallel_counters = comparable_counters(parallel[0])
        assert serial_counters == parallel_counters
        # The comparison is not vacuous: detection/trust pipelines fired.
        assert any(n.startswith("detector.") for n in serial_counters)

    def test_quality_scorecard_counters_identical(self, serial, parallel):
        """Ground-truth confusion counters are bit-identical at any
        worker count -- the scorecard join travels through capsules."""
        pick = lambda reg: {  # noqa: E731
            n: v
            for n, v in comparable_counters(reg).items()
            if n.startswith("quality.")
        }
        serial_quality = pick(serial[0])
        assert serial_quality == pick(parallel[0])
        # Non-vacuous: the P-scheme run emitted real confusion cells.
        assert serial_quality.get("quality.scorecards", 0) > 0
        assert any(
            name.endswith((".tp", ".fp", ".fn", ".tn"))
            for name in serial_quality
        )

    def test_gauges_identical_modulo_exec(self, serial, parallel):
        gauges = lambda reg: {  # noqa: E731
            n: v
            for n, v in reg.snapshot()["gauges"].items()
            if not n.startswith(EXEC_PREFIX)
        }
        assert gauges(serial[0]) == gauges(parallel[0])

    def test_histograms_identical_modulo_exec_and_timing(
        self, serial, parallel
    ):
        serial_counts, serial_values = comparable_histograms(serial[0])
        parallel_counts, parallel_values = comparable_histograms(parallel[0])
        assert serial_counts == parallel_counts
        assert serial_values == parallel_values
        assert serial_values  # non-vacuous: value histograms were recorded

    def test_worker_spans_reparented_under_dispatch(self, parallel):
        registry, _ = parallel
        paths = {record.path for record in registry.spans}
        assert any(p.startswith("exec.map.exec.task.") for p in paths)
        # At least one span came back from a different process.
        assert any(record.pid for record in registry.spans)


class TestCapsuleProfileMergeParity:
    """Profiles merged through capsules are topology-independent.

    Live sample *counts* are timing noise, so parity is pinned on
    synthetic capsules: the same task capsules folded into a parent in
    task order must produce a bit-identical merged profile no matter how
    the pool chunked them -- and even under arbitrary completion order,
    because per-key counter addition commutes.
    """

    def _task_capsules(self, count=4):
        capsules = []
        for index in range(count):
            registry = MetricsRegistry()
            registry.add_profile_samples({
                f"span:exec.task.detect.detector.ME;f.py:g{index}": 3.0 + index,
                "span:exec.task.detect.detector.HC;f.py:h": 2.0,
                "span:-;pool.py:idle": 1.0,  # span closed mid-sample
            })
            capsules.append(TelemetryCapsule.capture(registry))
        return capsules

    def _merge(self, capsules, order):
        registry = MetricsRegistry()
        for index in order:
            capsules[index].merge_into(registry, parent_path="exec.map")
        return dict(registry.profile)

    def test_merged_profile_identical_across_chunk_shapes(self):
        capsules = self._task_capsules()
        # workers=0 (one chunk), workers=2 (interleaved chunks), and a
        # pool that completed out of order all merge in task order.
        serial = self._merge(capsules, [0, 1, 2, 3])
        assert serial == self._merge(capsules, [0, 1, 2, 3])
        # Counter-add commutes, so even completion order is irrelevant.
        assert serial == self._merge(capsules, [3, 1, 0, 2])

    def test_merge_reparents_under_dispatching_span(self):
        merged = self._merge(self._task_capsules(1), [0])
        assert (
            "span:exec.map.exec.task.detect.detector.ME;f.py:g0" in merged
        )
        assert not any(
            key.startswith("span:exec.task") for key in merged
        )

    def test_spans_closed_mid_sample_stay_unattributed(self):
        # A sampler tick can land after the task's spans closed; those
        # samples are span:- and must never be re-parented into a span.
        merged = self._merge(self._task_capsules(2), [0, 1])
        assert merged["span:-;pool.py:idle"] == 2.0

    def test_empty_profile_capsule_is_a_no_op(self):
        registry = MetricsRegistry()
        empty = TelemetryCapsule.capture(MetricsRegistry())
        assert empty.empty
        empty.merge_into(registry, parent_path="exec.map")
        assert registry.profile == {}

    def test_profile_only_capsule_round_trips_through_pickle(self):
        import pickle

        source = MetricsRegistry()
        source.add_profile_samples({"span:detect;f.py:g": 5.0})
        capsule = pickle.loads(pickle.dumps(TelemetryCapsule.capture(source)))
        assert not capsule.empty
        registry = MetricsRegistry()
        capsule.merge_into(registry)
        assert registry.profile == {"span:detect;f.py:g": 5.0}


class TestCliTraceExport:
    def test_trace_out_writes_valid_perfetto_json(self, tmp_path):
        trace_path = tmp_path / TRACE_FILE
        status = main(
            [
                "population",
                "--seed", str(SEED),
                "--size", "4",
                "--scheme", "SA",
                "--workers", "2",
                "--top", "2",
                "--run-dir", str(tmp_path),
            ]
        )
        assert status == 0
        payload = read_trace(trace_path)  # raises ValidationError if invalid
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        # Parallel dispatch shows up as more than one process lane.
        assert len({e["pid"] for e in complete}) >= 2
        assert main(["trace", "--run-dir", str(tmp_path)]) == 0


class TestCliLedgerRegression:
    def run_population(self, run_dir):
        return main(
            [
                "population",
                "--seed", str(SEED),
                "--size", "4",
                "--scheme", "SA",
                "--top", "2",
                "--run-dir", str(run_dir),
            ]
        )

    def test_check_passes_on_repeat_runs_then_flags_injected_regression(
        self, tmp_path
    ):
        ledger_path = tmp_path / LEDGER_FILE
        for _ in range(3):
            assert self.run_population(tmp_path) == 0
        assert main(["runs", "check", "--run-dir", str(tmp_path)]) == 0

        # Inject a regression: re-append the latest record with a slower
        # wall clock and a drifted headline digest, as if the code changed.
        latest = RunLedger(ledger_path).latest()
        broken = latest.as_dict()
        broken["run_id"] = "badbadbadbad"
        broken["timings"]["wall_seconds"] *= 10.0
        broken["digests"]["population.top_mp"] += 0.5
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(broken) + "\n")

        assert main(["runs", "check", "--run-dir", str(tmp_path)]) == 1

    def test_injected_regression_against_committed_fixture(self, tmp_path):
        fixture = (
            Path(__file__).resolve().parent.parent
            / "fixtures"
            / "ledger_baseline.jsonl"
        )
        ledger_path = tmp_path / LEDGER_FILE
        shutil.copy(fixture, ledger_path)
        assert main(["runs", "check", "--run-dir", str(tmp_path)]) == 0

        latest = RunLedger(ledger_path).latest()
        broken = latest.as_dict()
        broken["run_id"] = "cccccccccccc"
        broken["timings"]["wall_seconds"] *= 10.0
        broken["digests"]["population.top_mp"] += 0.5
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(broken) + "\n")

        assert main(["runs", "check", "--run-dir", str(tmp_path)]) == 1


class TestSeriesAlertParity:
    """Serial vs hermetic-parallel runs export bit-identical series
    snapshots and alert events.

    The recorder flattens the merged parent registry at epoch close;
    everything it keeps (detector/trust/online counters, value-histogram
    percentiles, timing-histogram counts) is topology-invariant, and the
    exec/cache/profiler noise is excluded by ``DEFAULT_SERIES_IGNORE``.
    Worker-side recorders merge through the capsule order-independently,
    so the exported state must not depend on the worker count.
    """

    @staticmethod
    def recorded_run(workers):
        from repro.obs import AlertEngine, AlertRule, TimeSeriesRecorder

        registry = MetricsRegistry()
        engine = AlertEngine(
            [
                AlertRule(
                    name="detectors-ran",
                    metric="quality.scorecards",
                    op=">",
                    value=0.0,
                ),
                AlertRule(
                    name="scores-still-moving",
                    metric="quality.scorecards",
                    kind="rate_of_change",
                    op=">",
                    value=0.0,
                    resolve_epochs=1,
                ),
            ],
            registry=registry,
        )
        recorder = TimeSeriesRecorder(engine=engine)
        registry.attach_series(recorder)
        previous = set_registry(registry)
        try:
            context = ExperimentContext(
                seed=SEED,
                population_size=POP,
                workers=workers,
                hermetic_telemetry=True,
            )
            context.results_for("P")
            recorder.record_epoch(0, registry)
            context.results_for("SA")
            recorder.record_epoch(1, registry)
            context.close()
        finally:
            set_registry(previous)
        return (
            recorder.state(),
            [event.as_dict() for event in engine.events],
        )

    @pytest.fixture(scope="class")
    def serial_run(self):
        return self.recorded_run(workers=0)

    @pytest.fixture(scope="class")
    def parallel_run(self):
        return self.recorded_run(workers=2)

    def test_series_state_bit_identical(self, serial_run, parallel_run):
        assert serial_run[0] == parallel_run[0]

    def test_alert_events_bit_identical(self, serial_run, parallel_run):
        assert serial_run[1] == parallel_run[1]

    def test_run_produced_series_and_alerts(self, serial_run):
        state, events = serial_run
        assert state["points"]  # the flatten actually captured metrics
        assert any(event["state"] == "firing" for event in events)
        # Epoch 1 adds no scorecards under the report cache: the
        # rate-of-change rule fires at 0 and resolves at 1.
        states = [
            (event["rule"], event["epoch"], event["state"])
            for event in events
        ]
        assert ("detectors-ran", 0, "firing") in states

"""Unit tests for the run ledger and regression checks (repro.obs.ledger)."""

import json

import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry, use_registry
from repro.obs.export import LEDGER_FILE
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    begin_run_capture,
    build_record,
    check_ledger,
    diff_records,
    end_run_capture,
    note_tasks,
    record_digest,
    runtime_environment,
)


def make_record(
    run_id="aaaaaa",
    timestamp=1000.0,
    command="population",
    status=0,
    wall=2.0,
    digests=None,
    counters=None,
    fingerprint="wf-1",
    argv=None,
    timings=None,
):
    return RunRecord(
        run_id=run_id,
        timestamp=timestamp,
        command=command,
        argv=list(argv) if argv is not None else [command],
        status=status,
        workload={"tasks": 4, "fingerprint": fingerprint},
        digests=dict(digests or {"population.top_mp": 1.25}),
        metrics={"counters": dict(counters or {"detector.joint.calls": 8.0}),
                 "gauges": {}},
        timings={"wall_seconds": wall, **(timings or {})},
        env={},
    )


class FakeTask:
    def __init__(self, fingerprint):
        self.fingerprint = fingerprint


class TestRunCapture:
    def test_digests_and_tasks_collected_while_active(self):
        capture = begin_run_capture()
        try:
            record_digest("population.top_mp", 1.5)
            with use_registry(MetricsRegistry()):
                note_tasks([FakeTask("f1"), FakeTask("f2")])
        finally:
            assert end_run_capture() is capture
        assert capture.digests == {"population.top_mp": 1.5}
        assert capture.workload["tasks"] == 2
        assert capture.workload["fingerprint"]

    def test_workload_fingerprint_tracks_task_identity(self):
        def fingerprint_of(names):
            capture = begin_run_capture()
            with use_registry(MetricsRegistry()):
                note_tasks([FakeTask(n) for n in names])
            end_run_capture()
            return capture.workload["fingerprint"]

        assert fingerprint_of(["a", "b"]) == fingerprint_of(["a", "b"])
        assert fingerprint_of(["a", "b"]) != fingerprint_of(["a", "c"])

    def test_noop_when_inactive(self):
        end_run_capture()
        record_digest("ignored", 1.0)  # must not raise
        note_tasks([FakeTask("f")])


class TestBuildRecord:
    def test_record_carries_metrics_timings_and_env(self):
        registry = MetricsRegistry()
        registry.inc("detector.joint.calls", 3)
        for value in (0.1, 0.2, 0.3):
            registry.observe("span.exec.task.seconds", value)
        capture = begin_run_capture()
        record_digest("population.top_mp", 1.25)
        end_run_capture()
        record = build_record(
            command="population",
            argv=["population", "--size", "4"],
            registry=registry,
            wall_seconds=1.5,
            capture=capture,
            timestamp=1234.5,
        )
        assert record.status == 0
        assert record.digests == {"population.top_mp": 1.25}
        assert record.metrics["counters"]["detector.joint.calls"] == 3.0
        assert record.timings["wall_seconds"] == 1.5
        assert record.timings["task_count"] == 3.0
        assert record.timings["task_p50"] == pytest.approx(0.2)
        assert set(record.env) >= {"python", "cpu_count", "platform"}
        assert len(record.run_id) == 12

    def test_record_carries_span_self_time_percentiles(self):
        from repro.obs.spans import SpanRecord

        registry = MetricsRegistry()
        registry.adopt_span(
            SpanRecord("p", "p", 0, start=0.0, duration=10.0)
        )
        registry.adopt_span(
            SpanRecord("c", "p.c", 1, start=1.0, duration=4.0)
        )
        record = build_record(
            command="population", argv=["population"], registry=registry,
            timestamp=1.0,
        )
        # Self time: the child's 4s came out of the parent's 10s.
        assert record.timings["self.p.p50"] == pytest.approx(6.0)
        assert record.timings["self.p.p90"] == pytest.approx(6.0)
        assert record.timings["self.p.c.p50"] == pytest.approx(4.0)

    def test_self_time_paths_capped_to_heaviest(self):
        from repro.obs.ledger import MAX_SELF_TIME_PATHS
        from repro.obs.spans import SpanRecord

        registry = MetricsRegistry()
        for index in range(MAX_SELF_TIME_PATHS + 4):
            registry.adopt_span(SpanRecord(
                f"s{index}", f"s{index}", 0,
                start=float(index * 100), duration=float(index + 1),
            ))
        record = build_record(
            command="population", argv=["population"], registry=registry,
            timestamp=1.0,
        )
        self_keys = {
            name for name in record.timings if name.startswith("self.")
        }
        assert len(self_keys) == 2 * MAX_SELF_TIME_PATHS
        # The lightest paths were dropped, the heaviest kept.
        assert "self.s0.p50" not in self_keys
        assert f"self.s{MAX_SELF_TIME_PATHS + 3}.p50" in self_keys

    def test_run_id_deterministic_in_inputs(self):
        registry = MetricsRegistry()
        kwargs = dict(command="detect", argv=["detect"], registry=registry,
                      timestamp=99.0)
        assert (
            build_record(**kwargs).run_id == build_record(**kwargs).run_id
        )
        assert (
            build_record(**kwargs).run_id
            != build_record(**{**kwargs, "timestamp": 100.0}).run_id
        )

    def test_runtime_environment_shape(self):
        env = runtime_environment()
        assert isinstance(env["python"], str)
        assert env["cpu_count"] is None or env["cpu_count"] >= 1


class TestRunLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "sub" / "ledger.jsonl")
        with use_registry(MetricsRegistry()):
            ledger.append(make_record("aaa111"))
            ledger.append(make_record("bbb222", timestamp=2000.0))
        records = list(ledger.records())
        assert [r.run_id for r in records] == ["aaa111", "bbb222"]
        assert records[0].digests == {"population.top_mp": 1.25}
        assert ledger.latest().run_id == "bbb222"
        assert len(ledger) == 2

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        registry = MetricsRegistry()
        with use_registry(registry):
            ledger.append(make_record("aaa111"))
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("{torn write\n")
                handle.write("[1, 2, 3]\n")
            ledger.append(make_record("bbb222"))
            assert [r.run_id for r in ledger.records()] == ["aaa111", "bbb222"]
        assert registry.counter_value("ledger.corrupt_lines") == 2.0

    def test_find_by_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        with use_registry(MetricsRegistry()):
            ledger.append(make_record("abc123"))
            ledger.append(make_record("abd456"))
        assert ledger.find("abc").run_id == "abc123"
        with pytest.raises(ValidationError, match="ambiguous"):
            ledger.find("ab")
        with pytest.raises(ValidationError, match="no run matching"):
            ledger.find("zzz")

    def test_missing_ledger_is_empty(self, tmp_path):
        ledger = RunLedger(tmp_path / "nope.jsonl")
        assert list(ledger.records()) == []
        assert ledger.latest() is None


class TestDiff:
    def test_diff_reports_digest_counter_and_wall_changes(self):
        a = make_record("aaa", wall=1.0)
        b = make_record(
            "bbb",
            wall=2.0,
            digests={"population.top_mp": 1.5},
            counters={"detector.joint.calls": 9.0},
        )
        text = "\n".join(diff_records(a, b))
        assert "digest population.top_mp: 1.25 -> 1.5" in text
        assert "counter detector.joint.calls: 8 -> 9" in text
        assert "(2.00x)" in text

    def test_diff_of_identical_records_is_empty(self):
        assert diff_records(make_record(), make_record()) == []


class TestCheckLedger:
    def write(self, tmp_path, records):
        path = tmp_path / "ledger.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.as_dict()) + "\n")
        return RunLedger(path)

    def baseline(self, n=3):
        return [
            make_record(f"base{i:02d}", timestamp=1000.0 + i) for i in range(n)
        ]

    def test_clean_run_passes(self, tmp_path):
        ledger = self.write(
            tmp_path, self.baseline() + [make_record("latest", timestamp=2000.0)]
        )
        report = check_ledger(ledger)
        assert report.ok
        assert report.baseline_size == 3
        assert "OK" in report.to_text()

    def test_digest_drift_flagged(self, tmp_path):
        bad = make_record(
            "latest", timestamp=2000.0, digests={"population.top_mp": 1.75}
        )
        report = check_ledger(self.write(tmp_path, self.baseline() + [bad]))
        assert [f.kind for f in report.findings] == ["result-digest"]
        assert report.findings[0].latest == 1.75

    def test_digest_tolerance_allows_small_drift(self, tmp_path):
        bad = make_record(
            "latest", timestamp=2000.0, digests={"population.top_mp": 1.30}
        )
        ledger = self.write(tmp_path, self.baseline() + [bad])
        assert not check_ledger(ledger).ok
        assert check_ledger(ledger, digest_tolerance=0.1).ok

    def test_counter_drift_flagged_but_ignored_prefixes_skipped(self, tmp_path):
        bad = make_record(
            "latest",
            timestamp=2000.0,
            counters={
                "detector.joint.calls": 11.0,
                "exec.cache.misses": 500.0,  # topology bookkeeping: ignored
            },
        )
        report = check_ledger(self.write(tmp_path, self.baseline() + [bad]))
        assert [f.name for f in report.findings] == ["detector.joint.calls"]

    def test_timing_regression_flagged(self, tmp_path):
        slow = make_record("latest", timestamp=2000.0, wall=10.0)
        report = check_ledger(self.write(tmp_path, self.baseline() + [slow]))
        assert [f.kind for f in report.findings] == ["timing"]
        report = check_ledger(
            self.write(tmp_path, self.baseline() + [slow]),
            max_timing_ratio=10.0,
        )
        assert report.ok

    def test_wall_clock_stall_below_the_floor_not_flagged(self, tmp_path):
        base = [
            make_record(f"base{i:02d}", timestamp=1000.0 + i, wall=0.05)
            for i in range(3)
        ]
        # A 30 ms stall is 1.6x a 50 ms run, but host noise, not a
        # regression: it stays under baseline + SELF_TIMING_FLOOR_SECONDS.
        stalled = make_record("latest", timestamp=2000.0, wall=0.08)
        assert check_ledger(self.write(tmp_path, base + [stalled])).ok
        slow = make_record("latest", timestamp=2000.0, wall=0.5)
        report = check_ledger(self.write(tmp_path, base + [slow]))
        assert [f.name for f in report.findings] == ["wall_seconds"]

    def test_self_timing_regression_flagged(self, tmp_path):
        base = [
            make_record(f"base{i:02d}", timestamp=1000.0 + i,
                        timings={"self.detect.p50": 0.2})
            for i in range(3)
        ]
        slow = make_record("latest", timestamp=2000.0,
                           timings={"self.detect.p50": 0.5})
        report = check_ledger(self.write(tmp_path, base + [slow]))
        assert [f.name for f in report.findings] == ["self.detect.p50"]
        assert "self-time" in report.findings[0].detail
        # The same ratio knob that gates wall clock gates self time.
        assert check_ledger(
            self.write(tmp_path, base + [slow]), max_timing_ratio=3.0
        ).ok

    def test_self_timing_below_floor_skipped(self, tmp_path):
        base = [
            make_record(f"base{i:02d}", timestamp=1000.0 + i,
                        timings={"self.tiny.p50": 0.01})
            for i in range(3)
        ]
        # 4x regression, but on a sub-floor phase: scheduling noise.
        noisy = make_record("latest", timestamp=2000.0,
                            timings={"self.tiny.p50": 0.04})
        assert check_ledger(self.write(tmp_path, base + [noisy])).ok

    def test_self_timing_without_history_skipped(self, tmp_path):
        # Baseline records predate the self.* fields (old fixtures):
        # the new fields must not flag against an empty history.
        first = make_record("latest", timestamp=2000.0,
                            timings={"self.detect.p50": 5.0})
        assert check_ledger(
            self.write(tmp_path, self.baseline() + [first])
        ).ok

    def test_nonzero_status_flagged(self, tmp_path):
        bad = make_record("latest", timestamp=2000.0, status=2)
        report = check_ledger(self.write(tmp_path, self.baseline() + [bad]))
        assert "status" in [f.kind for f in report.findings]

    def test_baseline_excludes_other_commands_and_workloads(self, tmp_path):
        noise = [
            make_record("othr01", command="detect"),
            make_record("othr02", fingerprint="wf-other"),
            make_record("fail01", status=1),
        ]
        ledger = self.write(
            tmp_path, noise + [make_record("latest", timestamp=2000.0)]
        )
        report = check_ledger(ledger)
        assert report.baseline_size == 0
        assert report.ok
        assert report.no_baseline
        assert "no comparable baseline" in report.to_text()
        assert "NO BASELINE" in report.to_text()

    def test_fingerprintless_runs_compare_by_argv(self, tmp_path):
        # Runs that dispatch no engine tasks carry no workload
        # fingerprint; two such runs are only comparable when their argv
        # is identical -- otherwise seed-11 and seed-2008 runs would
        # cross-compare.
        same = dict(fingerprint=None, argv=["population", "--seed", "7"])
        other = dict(fingerprint=None, argv=["population", "--seed", "9"])
        ledger = self.write(
            tmp_path,
            [
                make_record("othr01", **other),
                make_record("base01", **same),
                make_record("latest", timestamp=2000.0, **same),
            ],
        )
        assert check_ledger(ledger).baseline_size == 1

    def test_window_bounds_the_baseline(self, tmp_path):
        ledger = self.write(
            tmp_path,
            self.baseline(6) + [make_record("latest", timestamp=2000.0)],
        )
        assert check_ledger(ledger, window=2).baseline_size == 2

    def test_empty_ledger_reports_notice(self, tmp_path):
        report = check_ledger(self.write(tmp_path, []))
        assert report.ok
        assert report.no_baseline
        assert "empty" in report.to_text()

    def test_comparable_baseline_clears_no_baseline_flag(self, tmp_path):
        ledger = self.write(
            tmp_path, self.baseline() + [make_record("latest", timestamp=2000.0)]
        )
        assert not check_ledger(ledger).no_baseline


class TestRunsCli:
    """The ``repro runs`` subcommands, exercised through cli.main."""

    def seed_ledger(self, tmp_path):
        path = tmp_path / LEDGER_FILE
        with use_registry(MetricsRegistry()):
            ledger = RunLedger(path)
            for i in range(3):
                ledger.append(make_record(f"run{i:03d}", timestamp=1000.0 + i))
        return path

    def test_runs_list_and_show(self, tmp_path, capsys):
        from repro.cli import main

        path = self.seed_ledger(tmp_path)
        assert main(["runs", "list", "--run-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run000" in out and "run002" in out
        assert main(["runs", "show", "run001", "--run-dir", str(tmp_path)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == "run001"

    def test_runs_diff_defaults_to_last_two(self, tmp_path, capsys):
        from repro.cli import main

        path = self.seed_ledger(tmp_path)
        assert main(["runs", "diff", "--run-dir", str(tmp_path)]) == 0
        assert "run001" in capsys.readouterr().out

    def test_runs_check_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        path = self.seed_ledger(tmp_path)
        assert main(["runs", "check", "--run-dir", str(tmp_path)]) == 0
        with use_registry(MetricsRegistry()):
            RunLedger(path).append(
                make_record(
                    "regress",
                    timestamp=2000.0,
                    wall=50.0,
                    digests={"population.top_mp": 9.0},
                )
            )
        assert main(["runs", "check", "--run-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "result-digest" in out and "timing" in out

    def test_runs_check_without_baseline_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        # Empty ledger: nothing to check at all.
        empty = tmp_path / "empty"
        assert main(["runs", "check", "--run-dir", str(empty)]) == 3
        # One record, zero comparable earlier runs: same distinct code.
        with use_registry(MetricsRegistry()):
            RunLedger(tmp_path / LEDGER_FILE).append(make_record("only01"))
        assert main(["runs", "check", "--run-dir", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "no comparable baseline" in out

    def test_runs_commands_do_not_append_to_the_ledger(self, tmp_path):
        from repro.cli import main

        path = self.seed_ledger(tmp_path)
        before = path.read_text()
        assert main(["runs", "list", "--run-dir", str(tmp_path)]) == 0
        assert path.read_text() == before


class TestAlertsInLedger:
    def firing_event(self, rule="drift-warnings-moving"):
        return {
            "rule": rule, "metric": "drift.warnings", "state": "firing",
            "epoch": 1, "value": 2.0, "threshold": 0.0,
            "severity": "warning", "latency_epochs": 0, "description": "",
        }

    def test_build_record_collects_engine_events(self):
        from repro.obs import AlertEngine, AlertRule
        from repro.obs.series import TimeSeriesRecorder

        registry = MetricsRegistry()
        rule = AlertRule(name="r", metric="m", op=">", value=0.0)
        recorder = TimeSeriesRecorder(
            engine=AlertEngine([rule], registry=registry)
        )
        registry.attach_series(recorder)
        recorder.ingest_snapshot(0, {"m": 1.0})
        recorder.engine.evaluate(recorder, 0, registry=registry)
        record = build_record(
            command="population", argv=["population"], registry=registry,
            timestamp=1.0,
        )
        assert [e["state"] for e in record.alerts] == ["firing"]
        assert record.firing_alerts()[0]["rule"] == "r"

    def test_alerts_round_trip_through_json(self):
        record = make_record("withalert")
        record.alerts = [self.firing_event()]
        clone = RunRecord.from_dict(
            json.loads(json.dumps(record.as_dict()))
        )
        assert clone.alerts == record.alerts
        assert [e["rule"] for e in clone.firing_alerts()] == [
            "drift-warnings-moving"
        ]

    def test_resolved_events_are_not_firing(self):
        record = make_record("resolved")
        record.alerts = [dict(self.firing_event(), state="resolved")]
        assert record.firing_alerts() == []

    def test_old_records_without_alerts_still_load(self):
        payload = make_record("old").as_dict()
        payload.pop("alerts", None)
        assert RunRecord.from_dict(payload).alerts == []


class TestCheckLedgerAlerts:
    def write(self, tmp_path, records):
        path = tmp_path / "ledger.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.as_dict()) + "\n")
        return RunLedger(path)

    def baseline(self, n=3):
        return [
            make_record(f"base{i:02d}", timestamp=1000.0 + i)
            for i in range(n)
        ]

    def firing_record(self, run_id="latest", timestamp=2000.0):
        record = make_record(run_id, timestamp=timestamp)
        record.alerts = [
            {
                "rule": "drift-dispersion-burst", "metric":
                "drift.dispersion.violations", "state": "firing",
                "epoch": 2, "value": 1.0, "threshold": 0.0,
                "severity": "critical", "latency_epochs": 0,
                "description": "",
            }
        ]
        return record

    def test_newly_firing_alert_flagged(self, tmp_path):
        ledger = self.write(tmp_path, self.baseline() + [self.firing_record()])
        report = check_ledger(ledger)
        assert not report.ok
        kinds = [f.kind for f in report.findings]
        assert "alert" in kinds
        finding = next(f for f in report.findings if f.kind == "alert")
        assert "drift-dispersion-burst" in finding.detail
        assert finding.latest == 1.0

    def test_allow_alerts_waives_the_check(self, tmp_path):
        ledger = self.write(tmp_path, self.baseline() + [self.firing_record()])
        assert check_ledger(ledger, allow_alerts=True).ok

    def test_alerting_baseline_not_flagged(self, tmp_path):
        # The baseline already fires: nothing *newly* regressed.
        baseline = [
            self.firing_record(f"base{i:02d}", timestamp=1000.0 + i)
            for i in range(3)
        ]
        ledger = self.write(tmp_path, baseline + [self.firing_record()])
        assert check_ledger(ledger).ok

    def test_clean_latest_not_flagged(self, tmp_path):
        ledger = self.write(
            tmp_path,
            self.baseline() + [make_record("latest", timestamp=2000.0)],
        )
        assert check_ledger(ledger).ok

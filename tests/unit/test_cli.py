"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.export import (
    LEDGER_FILE,
    METRICS_FILE,
    REPORT_FILE,
    SERIES_FILE,
    TRACE_FILE,
)


SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """A small fair world CSV written once for the whole module."""
    path = tmp_path_factory.mktemp("cli") / "world.csv"
    code = main(
        [
            "world",
            "--seed", "3",
            "--out", str(path),
            "--duration-days", "60",
            "--history-days", "20",
            "--arrivals-per-day", "4",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_target_parsing(self):
        args = build_parser().parse_args(
            ["attack", "--world", "w.csv", "--target", "tv1:-1",
             "--target", "tv3:+1", "--out", "a.json"]
        )
        assert [(t.product_id, t.direction) for t in args.targets] == [
            ("tv1", -1), ("tv3", 1)
        ]

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["attack", "--world", "w.csv", "--target", "tv1", "--out", "a"]
            )

    def test_bad_direction_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["attack", "--world", "w.csv", "--target", "tv1:2", "--out", "a"]
            )


class TestWorldCommand:
    def test_writes_csv(self, small_world, capsys):
        text = small_world.read_text()
        assert text.startswith("product_id,rater_id,time,value,unfair")
        assert len(text.splitlines()) > 100

    def test_world_rejects_nan_duration(self, tmp_path, capsys):
        out = tmp_path / "fair.csv"
        code = main(
            [
                "world",
                "--seed", "3",
                "--out", str(out),
                "--duration-days", "nan",
                "--history-days", "20",
                "--arrivals-per-day", "4",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: duration_days")
        assert not out.exists()


class TestAttackAndEvaluate:
    def test_attack_then_evaluate(self, small_world, tmp_path, capsys):
        attack_path = tmp_path / "attack.json"
        code = main(
            [
                "attack",
                "--world", str(small_world),
                "--target", "tv1:-1",
                "--target", "tv3:+1",
                "--bias", "3.0",
                "--std", "0.2",
                "--n-ratings", "30",
                "--window-start", "15",
                "--window-days", "25",
                "--out", str(attack_path),
            ]
        )
        assert code == 0
        payload = json.loads(attack_path.read_text())
        assert set(payload["products"]) == {"tv1", "tv3"}

        code = main(
            [
                "evaluate",
                "--world", str(small_world),
                "--submission", str(attack_path),
                "--scheme", "SA",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Manipulation Power" in out
        assert "SA" in out

    def test_missing_world_file(self, tmp_path, capsys):
        code = main(
            [
                "attack",
                "--world", str(tmp_path / "nope.csv"),
                "--target", "tv1:-1",
                "--out", str(tmp_path / "a.json"),
            ]
        )
        assert code == 2

    def test_attack_unknown_product_fails_cleanly(self, small_world, tmp_path):
        code = main(
            [
                "attack",
                "--world", str(small_world),
                "--target", "ghost:-1",
                "--out", str(tmp_path / "a.json"),
            ]
        )
        assert code == 2


class TestDetectCommand:
    def test_detect_on_fair_product(self, small_world, capsys):
        code = main(["detect", "--world", str(small_world), "--product", "tv1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suspicious ratings:" in out

    def test_detect_unknown_product(self, small_world, capsys):
        code = main(["detect", "--world", str(small_world), "--product", "zz"])
        assert code == 2


class TestObservabilityFlags:
    @pytest.fixture()
    def attacked_world(self, small_world, tmp_path):
        """An attacked-world CSV: fair data plus one generated attack."""
        from repro.marketplace.io import (
            load_dataset_csv,
            load_submission_json,
            save_dataset_csv,
        )

        attack_path = tmp_path / "attack.json"
        code = main(
            [
                "attack",
                "--world", str(small_world),
                "--target", "tv1:-1",
                "--bias", "3.0",
                "--std", "0.2",
                "--n-ratings", "40",
                "--window-start", "15",
                "--window-days", "20",
                "--out", str(attack_path),
            ]
        )
        assert code == 0
        merged = load_dataset_csv(small_world).merge(
            load_submission_json(attack_path).as_dict()
        )
        out = tmp_path / "attacked.csv"
        save_dataset_csv(merged, out)
        return out, attack_path

    def test_metrics_out_written(self, small_world, tmp_path, capsys):
        # Path 2 consults HC on an L-ARC alarm and ME on an H-ARC alarm.
        # Here tv1's downgrade raises the first, and tv3's boost, packed
        # into five days, the second, so every sub-detector runs.
        attack_path = tmp_path / "attack.json"
        code = main(
            [
                "attack",
                "--world", str(small_world),
                "--target", "tv1:-1",
                "--target", "tv3:+1",
                "--bias", "3.0",
                "--std", "0.2",
                "--n-ratings", "40",
                "--window-start", "15",
                "--window-days", "5",
                "--out", str(attack_path),
            ]
        )
        assert code == 0
        metrics_path = tmp_path / "run" / METRICS_FILE
        code = main(
            [
                "evaluate",
                "--world", str(small_world),
                "--submission", str(attack_path),
                "--scheme", "P",
                "--run-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 0
        assert "metrics written to" in capsys.readouterr().err
        payload = json.loads(metrics_path.read_text())
        counters = payload["counters"]
        # The fair and attacked evaluations share untargeted streams, so
        # the report cache must see both misses and hits.
        assert counters["pscheme.report_cache.misses"] >= 1
        assert counters["pscheme.report_cache.hits"] >= 1
        histograms = payload["histograms"]
        for kind in ("MC", "H-ARC", "L-ARC", "HC", "ME"):
            name = f"span.pscheme.monthly_scores.detect.detector.{kind}.seconds"
            assert histograms[name]["sum"] > 0.0
        for stage in ("detect", "trust", "aggregate"):
            name = f"span.pscheme.monthly_scores.{stage}.seconds"
            assert histograms[name]["count"] >= 1

    def test_metrics_registry_restored_after_run(self, small_world, tmp_path):
        from repro.obs import NULL_REGISTRY, get_registry

        metrics_path = tmp_path / METRICS_FILE
        main(
            ["detect", "--world", str(small_world), "--product", "tv1",
             "--run-dir", str(tmp_path)]
        )
        assert get_registry() is NULL_REGISTRY
        assert metrics_path.exists()

    def test_explain_table_matches_suspicious_count(self, attacked_world,
                                                    capsys):
        attacked_csv, _ = attacked_world
        code = main(
            ["detect", "--world", str(attacked_csv), "--product", "tv1",
             "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        suspicious = int(out.split("suspicious ratings:")[1].split()[0])
        assert suspicious > 0
        lines = out.splitlines()
        title_at = next(
            i for i, line in enumerate(lines)
            if line.startswith("Detection provenance for tv1")
        )
        body = [line for line in lines[title_at + 3:] if line.strip()]
        assert len(body) == suspicious
        # Every row names at least one path and one detector.
        assert all("path" in line for line in body)

    def test_explain_on_clean_product(self, small_world, capsys):
        code = main(
            ["detect", "--world", str(small_world), "--product", "tv2",
             "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        if "suspicious ratings: 0" in out:
            assert "nothing to explain" in out
        else:
            assert "Detection provenance for tv2" in out

    def test_log_level_flag_accepted(self, small_world, capsys):
        code = main(
            ["detect", "--world", str(small_world), "--product", "tv1",
             "--log-level", "INFO"]
        )
        assert code == 0


class TestPopulationCommand:
    def test_leaderboard_printed(self, capsys):
        code = main(
            ["population", "--seed", "5", "--size", "6", "--scheme", "SA",
             "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "leaderboard" in out
        assert "rank" in out


class TestSearchCommand:
    def test_search_runs(self, capsys):
        code = main(
            ["search", "--seed", "4", "--scheme", "SA", "--probes", "1",
             "--subareas", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strongest region" in out

    def test_output_identical_at_any_worker_count(self, capsys):
        outputs = []
        for workers in ("0", "2"):
            code = main(
                ["search", "--seed", "4", "--scheme", "SA", "--probes", "2",
                 "--workers", workers]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert "strongest region" in outputs[0]
        assert outputs[0] == outputs[1]


class TestAblationCommand:
    def test_ablation_prints_table(self, capsys):
        code = main(["ablation", "--seed", "2008"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ablation" in out
        assert "whole-window drip" in out


class TestSensitivityCommand:
    def test_sensitivity_sweep(self, capsys):
        code = main(
            ["sensitivity", "--parameter", "larc_peak_threshold",
             "--value", "2.0", "--value", "8.0", "--fair-worlds", "1",
             "--attacks", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "larc_peak_threshold" in out

    def test_unknown_parameter_clean_error(self, capsys):
        code = main(
            ["sensitivity", "--parameter", "bogus", "--value", "1.0",
             "--fair-worlds", "1", "--attacks", "1"]
        )
        assert code == 2

    def test_sensitivity_prints_auc(self, capsys):
        code = main(
            ["sensitivity", "--parameter", "hc_suspicious_threshold",
             "--value", "0.85", "--value", "0.96", "--fair-worlds", "1",
             "--attacks", "1"]
        )
        assert code == 0
        assert "ROC AUC" in capsys.readouterr().out


class TestReportCommand:
    @pytest.fixture(scope="class")
    def html_report(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("report") / "run.html"
        code = main(
            ["report", "--seed", "7", "--size", "4", "--out", str(path)]
        )
        assert code == 0
        return path.read_text()

    def test_report_is_self_contained(self, html_report):
        # The acceptance bar: one file, zero external asset references.
        assert html_report.startswith("<!DOCTYPE html>")
        assert "http" not in html_report
        assert "<script" not in html_report
        assert "<link" not in html_report

    def test_report_has_confusion_counts_per_detector(self, html_report):
        assert "Detection scorecard" in html_report
        assert "<td>joint</td>" in html_report
        assert "<td>path1</td>" in html_report
        assert "<th>tp</th>" in html_report

    def test_report_has_roc_sparkline(self, html_report):
        assert "ROC sweep" in html_report
        assert html_report.count("<svg") >= 1
        assert "polyline" in html_report

    def test_report_has_environment_and_drift_sections(self, html_report):
        assert "Environment" in html_report
        assert "git_sha" in html_report
        assert "Assumption drift" in html_report

    def test_markdown_extension_selects_markdown(self, tmp_path, capsys):
        path = tmp_path / "run.md"
        code = main(
            ["report", "--seed", "7", "--size", "3", "--out", str(path)]
        )
        assert code == 0
        assert "markdown report written" in capsys.readouterr().out
        assert path.read_text().startswith("# Detection quality report")


class TestReportOutGlobal:
    def test_any_command_can_write_a_report(self, small_world, tmp_path,
                                            capsys):
        path = tmp_path / REPORT_FILE
        code = main(
            ["detect", "--world", str(small_world), "--product", "tv1",
             "--run-dir", str(tmp_path)]
        )
        assert code == 0
        text = path.read_text()
        assert "http" not in text
        assert "Counters" in text
        assert "detect" in text  # title mentions the command

    def test_trace_summary_folded_into_report(self, small_world, tmp_path):
        report_path = tmp_path / REPORT_FILE
        code = main(
            ["detect", "--world", str(small_world), "--product", "tv1",
             "--run-dir", str(tmp_path)]
        )
        assert code == 0
        assert "Trace summary" in report_path.read_text()


class TestLintCommand:
    def test_lint_clean_fixture(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        code = main(["lint", str(good)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_flags_violation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        findings = tmp_path / "findings.json"
        code = main(["lint", str(bad), "--json", str(findings)])
        assert code == 1
        payload = json.loads(findings.read_text())
        assert payload["findings"][0]["rule"] == "wall-clock"
        capsys.readouterr()

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "rng-taint" in out
        assert "unordered-iter" in out

    @staticmethod
    def _lint_tree(tmp_path):
        """A clean module plus a one-row metric catalog it emits."""
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs/API.md").write_text(
            "| metric | type | meaning |\n|---|---|---|\n"
            "| `exec.tasks` | counter | tasks dispatched |\n"
        )
        (tmp_path / "good.py").write_text("registry.inc('exec.tasks')\n")
        return "good.py"

    def test_lint_alert_rules_reach_the_linter(self, tmp_path, capsys, monkeypatch):
        # lint takes none of the globals: its own --alert-rules must
        # reach the linter untouched.
        monkeypatch.chdir(tmp_path)
        tree = self._lint_tree(tmp_path)
        (tmp_path / "bad.toml").write_text(
            '[[rule]]\nname = "r"\nmetric = "no.such.metric"\n'
        )
        assert main(["lint", tree, "--alert-rules", "bad.toml"]) == 1
        assert "alert-unknown-metric" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["--list-rules"],
        ["good.py", "--catalog", "docs/API.md", "-q"],
        ["bad.py", "--json", "-", "--no-baseline"],
    ])
    def test_lint_matches_module_entry_point(self, args, tmp_path, capsys, monkeypatch):
        from repro.lint import main as lint_main

        monkeypatch.chdir(tmp_path)
        self._lint_tree(tmp_path)
        (tmp_path / "bad.py").write_text("import time\nstamp = time.time()\n")
        via_cli = main(["lint", *args]), capsys.readouterr()
        via_module = lint_main(args), capsys.readouterr()
        assert via_cli == via_module

    @pytest.mark.parametrize("entry", ["repro-rating lint", "python -m repro.lint"])
    @pytest.mark.parametrize("args", [
        ["--sarif", "out.sarif"],
        ["--changed-only"],
        ["--diff-base", "HEAD"],
        ["--no-stale"],
    ], ids=lambda args: args[0])
    def test_removed_lint_flags_exit_2(self, entry, args, capsys):
        from repro.lint import main as lint_main

        with pytest.raises(SystemExit) as exc:
            if entry == "repro-rating lint":
                main(["lint", *args])
            else:
                lint_main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestMetricsStreamFlag:
    def test_stream_written_with_closing_snapshot(self, tmp_path):
        stream = tmp_path / SERIES_FILE
        out = tmp_path / "w.csv"
        code = main(
            ["world", "--seed", "3", "--out", str(out),
             "--run-dir", str(tmp_path)]
        )
        assert code == 0
        from repro.obs import read_metrics_stream

        snapshots = read_metrics_stream(stream)
        # No epoch structure in 'world': exactly one closing snapshot.
        assert len(snapshots) == 1
        assert snapshots[0][0] == 0

    def test_report_streams_one_snapshot_per_epoch(self, tmp_path):
        stream = tmp_path / SERIES_FILE
        code = main(
            ["report", "--seed", "7", "--size", "1",
             "--out", str(tmp_path / "r.html"),
             "--run-dir", str(tmp_path)]
        )
        assert code == 0
        from repro.obs import read_metrics_stream

        snapshots = read_metrics_stream(stream)
        assert len(snapshots) >= 2
        assert [epoch for epoch, _ in snapshots] == list(
            range(len(snapshots))
        )


class TestMonitorCommand:
    def write_stream(self, tmp_path):
        from repro.obs import MetricsStreamWriter

        with MetricsStreamWriter(tmp_path / SERIES_FILE) as writer:
            writer.write(0, {"drift.warnings": 0.0})
            writer.write(1, {"drift.warnings": 2.0})
        return tmp_path

    def test_monitor_once_renders_frame(self, tmp_path, capsys):
        run_dir = self.write_stream(tmp_path)
        assert main(["monitor", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out
        assert "drift.warnings" in out
        assert "alerts:" in out
        # drift.warnings moved: the default ruleset fires on replay.
        assert "FIRING" in out

    def test_monitor_select_filters_series(self, tmp_path, capsys):
        run_dir = self.write_stream(tmp_path)
        assert main(
            ["monitor", "--run-dir", str(run_dir), "--select", "nomatch"]
        ) == 0
        out = capsys.readouterr().out
        assert "drift.warnings  " not in out

    def test_monitor_missing_file_renders_empty_frame(self, tmp_path,
                                                      capsys):
        absent = tmp_path / "absent"
        assert main(["monitor", "--run-dir", str(absent)]) == 0
        assert "no snapshots yet" in capsys.readouterr().out


class TestAlertsCommand:
    def test_default_ruleset_listed(self, capsys):
        assert main(["alerts"]) == 0
        out = capsys.readouterr().out
        assert "rule(s) OK" in out
        assert "drift-warnings-moving" in out

    def test_check_valid_file_exits_zero(self, capsys):
        assert main(["alerts", "--check"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        # --check never prints the rule table.
        assert "drift-warnings-moving" not in out

    def test_check_invalid_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[[rule]]\nname = "a"\nbogus = 1\n', encoding="utf-8")
        assert main(["alerts", "--check", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_mixed_files_validate_independently(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("not toml at [[", encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text(
            '{"rules": [{"name": "a", "metric": "drift.warnings"}]}',
            encoding="utf-8",
        )
        assert main(["alerts", "--check", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "good.json: 1 rule(s) OK" in captured.out
        assert "error" in captured.err

    def test_runs_check_allow_alerts_flag_parses(self):
        args = build_parser().parse_args(["runs", "check", "--allow-alerts"])
        assert args.allow_alerts is True


class TestRunDirectory:
    RUN = ["population", "--seed", "7", "--size", "2", "--scheme", "SA",
           "--top", "1"]

    def test_bundle_round_trip(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([*self.RUN, "--run-dir", str(run_dir)]) == 0
        assert sorted(p.name for p in run_dir.iterdir()) == sorted([
            LEDGER_FILE, METRICS_FILE, TRACE_FILE, SERIES_FILE, REPORT_FILE,
        ])
        for reader in (["trace"], ["profile"], ["monitor"], ["runs", "show"]):
            assert main([*reader, "--run-dir", str(run_dir)]) == 0
        assert main([*self.RUN, "--run-dir", str(run_dir)]) == 0
        lines = (run_dir / LEDGER_FILE).read_text().splitlines()
        assert len(lines) == 2
        assert main(["runs", "check", "--run-dir", str(run_dir)]) == 0

    def test_run_dir_under_a_file_is_a_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = tmp_path / "w.csv"
        code = main(["world", "--seed", "3", "--out", str(out),
                     "--run-dir", str(blocker / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()  # no work was done

    @pytest.mark.parametrize("name, what", [
        (METRICS_FILE, "metrics"),
        (REPORT_FILE, "report"),
    ])
    def test_unwritable_bundle_file_fails_the_run(self, name, what, tmp_path,
                                                  capsys):
        run_dir = tmp_path / "run"
        (run_dir / name).mkdir(parents=True)
        code = main(["world", "--seed", "3", "--out", str(tmp_path / "w.csv"),
                     "--run-dir", str(run_dir)])
        assert code == 2
        assert f"error: cannot write {what}" in capsys.readouterr().err
        # The rest of the bundle is written, and the record says failed.
        record = json.loads((run_dir / LEDGER_FILE).read_text())
        assert record["status"] == 2

    @pytest.mark.parametrize("args", [
        ["--metrics-out", "m.json"],
        ["--trace-out", "t.json"],
        ["--ledger", "l.jsonl"],
        ["--report-out", "r.html"],
        ["--profile-out", "p.json"],
        ["--profile-hz", "97"],
        ["--profile-mem"],
        ["--metrics-stream", "s.jsonl"],
        ["--alert-rules", "rules.toml"],
        ["--openmetrics-out", "m.om"],
    ], ids=lambda args: args[0])
    def test_removed_global_flags_exit_2(self, args, tmp_path, capsys):
        out = tmp_path / "w.csv"
        with pytest.raises(SystemExit) as exc:
            main(["world", "--seed", "3", "--out", str(out), *args])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["monitor", "--once"],
        ["monitor", "--interval", "1"],
        ["profile", "--collapsed", "p.txt"],
        ["profile", "--trace", "p.json"],
        ["trace", "trace.json"],
    ])
    def test_removed_reader_options_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


class TestClosedStdout:
    """A reader that closes stdout early (``| head``) ends the command
    quietly with status 141 (128 + SIGPIPE), not a traceback."""

    @staticmethod
    def run_into_closed_pipe(args):
        # The child's stdout is a pipe whose read end is already closed,
        # so its first write fails with EPIPE, whatever the output size.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "repro", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                timeout=300,
            )
        finally:
            os.close(write_end)

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("pipe") / "run"
        assert main([*TestRunDirectory.RUN, "--run-dir", str(run_dir)]) == 0
        return run_dir

    @pytest.mark.parametrize("reader", [
        ["runs", "show"],
        ["profile", "--top", "30"],
    ], ids=" ".join)
    def test_reader_exits_141_without_traceback(self, bundle, reader):
        proc = self.run_into_closed_pipe([*reader, "--run-dir", str(bundle)])
        assert proc.returncode == 141, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_pipeline_command_still_writes_its_bundle(self, small_world,
                                                      tmp_path):
        run_dir = tmp_path / "run"
        proc = self.run_into_closed_pipe([
            "detect", "--world", str(small_world), "--product", "tv1",
            "--run-dir", str(run_dir),
        ])
        assert proc.returncode == 141, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        record = json.loads((run_dir / LEDGER_FILE).read_text())
        assert record["status"] == 141
        assert (run_dir / METRICS_FILE).exists()

"""repro.lint: the AST-based invariant checker.

Each rule family gets a good/bad fixture pair; the framework tests cover
pragma suppression, baseline filtering, the JSON output schema, and the
CLI entry points.  The final self-check asserts the repo's own ``src/``
tree is clean under the committed baseline -- the invariant every future
PR inherits.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import LintConfig, default_rules, main, run_lint
from repro.lint.catalog import (
    expand_braces,
    globs_intersect,
    parse_catalog_text,
    pattern_to_glob,
)
from repro.lint.core import Finding, ModuleSource, baseline_payload

REPO_ROOT = Path(__file__).resolve().parents[2]

CATALOG_MD = """
| metric | type | meaning |
|---|---|---|
| `exec.tasks` | counter | tasks dispatched |
| `quality.<detector>.{tp,fp}` | counter | confusion cells |
| `span.<path>.seconds` | histogram | span durations |
| `ghost.metric` | gauge | promised but never emitted |
"""


def lint_source(tmp_path, source, filename="mod.py", **config_kwargs):
    """Run the full battery over one in-memory module."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    config = LintConfig(**config_kwargs)
    return run_lint([str(target)], config)


def rule_ids(result):
    return {finding.rule for finding in result.findings}


# --------------------------------------------------------------------- #
# RNG discipline
# --------------------------------------------------------------------- #


class TestRngRules:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()\n",
        )
        assert "rng-taint" in rule_ids(result)
        (finding,) = [f for f in result.findings if f.rule == "rng-taint"]
        assert finding.line == 2
        assert finding.symbol == "numpy.random.default_rng"

    def test_seeded_default_rng_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n",
        )
        assert "rng-taint" not in rule_ids(result)

    def test_aliased_import_still_resolves(self, tmp_path):
        result = lint_source(
            tmp_path,
            "from numpy.random import default_rng as mk\n"
            "rng = mk()\n",
        )
        assert "rng-taint" in rule_ids(result)

    def test_global_state_api_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import numpy as np\n"
            "import random\n"
            "x = np.random.normal(0.0, 1.0)\n"
            "np.random.seed(3)\n"
            "y = random.random()\n",
        )
        offenders = {
            f.symbol for f in result.findings if f.rule == "rng-taint"
        }
        assert offenders == {
            "numpy.random.normal",
            "numpy.random.seed",
            "random.random",
        }

    def test_generator_methods_not_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.normal(0.0, 1.0)\n",
        )
        assert "rng-taint" not in rule_ids(result)


# --------------------------------------------------------------------- #
# Wall-clock hygiene
# --------------------------------------------------------------------- #


class TestWallClockRule:
    def test_time_time_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import time\n"
            "stamp = time.time()\n",
        )
        (finding,) = [f for f in result.findings if f.rule == "wall-clock"]
        assert finding.line == 2

    def test_datetime_now_flagged_through_from_import(self, tmp_path):
        result = lint_source(
            tmp_path,
            "from datetime import datetime\n"
            "stamp = datetime.now()\n",
        )
        assert "wall-clock" in rule_ids(result)

    def test_perf_counter_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            "from time import perf_counter\n"
            "start = perf_counter()\n",
        )
        assert "wall-clock" not in rule_ids(result)

    def test_ledger_timestamp_site_is_pragmad(self):
        ledger = REPO_ROOT / "src/repro/obs/ledger.py"
        module = ModuleSource.parse("ledger.py", ledger.read_text())
        pragma_lines = [
            lineno
            for lineno, rules in module.ignores.items()
            if rules is not None and "wall-clock" in rules
        ]
        assert pragma_lines, "the sanctioned time.time() site lost its pragma"
        assert any(
            "time.time()" in module.lines[lineno - 1] for lineno in pragma_lines
        )

    def test_unpragmad_sampler_timestamp_trips_the_rule(self, tmp_path):
        # A profiler artifact writer that stamps wall-clock provenance
        # *without* the pragma is exactly what the rule exists to catch.
        result = lint_source(
            tmp_path,
            "import time\n"
            "def write_profile(samples):\n"
            "    return {'captured_at': time.time(), 'samples': samples}\n",
        )
        (finding,) = [f for f in result.findings if f.rule == "wall-clock"]
        assert finding.line == 3


# --------------------------------------------------------------------- #
# Pickle safety
# --------------------------------------------------------------------- #


class TestPickleSafetyRule:
    def test_lambda_in_task_ctor_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "task = RegionProbeTask(probe=lambda: 1, bias=2.0)\n",
        )
        (finding,) = [f for f in result.findings if f.rule == "pickle-safety"]
        assert "lambda" in finding.message

    def test_local_function_into_evaluator_map_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def dispatch(evaluator, items):\n"
            "    def score(item):\n"
            "        return item + 1\n"
            "    return evaluator.map(score, items)\n",
        )
        assert "pickle-safety" in rule_ids(result)

    def test_pool_bound_receiver_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def run(tasks):\n"
            "    with ParallelEvaluator(workers=2) as ev:\n"
            "        return ev.map(lambda t: t, tasks)\n",
        )
        assert "pickle-safety" in rule_ids(result)

    def test_module_level_function_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def score(item):\n"
            "    return item + 1\n"
            "def run(evaluator, items):\n"
            "    return evaluator.map(score, items)\n",
        )
        assert "pickle-safety" not in rule_ids(result)

    def test_builtin_map_not_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "out = list(map(lambda x: x + 1, [1, 2]))\n",
        )
        assert "pickle-safety" not in rule_ids(result)


# --------------------------------------------------------------------- #
# Metric-catalog parity + span balance
# --------------------------------------------------------------------- #


class TestMetricRules:
    def write_catalog(self, tmp_path):
        catalog = tmp_path / "CATALOG.md"
        catalog.write_text(CATALOG_MD)
        return str(catalog)

    def test_uncataloged_metric_flagged(self, tmp_path):
        catalog = self.write_catalog(tmp_path)
        result = lint_source(
            tmp_path,
            "registry.inc('exec.tasks')\n"
            "registry.inc('exec.surprise')\n",
            catalog_paths=[catalog],
            ignore={"metric-stale"},
        )
        uncataloged = [
            f for f in result.findings if f.rule == "metric-uncataloged"
        ]
        assert [f.symbol for f in uncataloged] == ["exec.surprise"]
        assert uncataloged[0].line == 2

    def test_fstring_emission_matches_placeholder_entry(self, tmp_path):
        catalog = self.write_catalog(tmp_path)
        result = lint_source(
            tmp_path,
            "registry.inc(f'quality.{name}.tp')\n",
            catalog_paths=[catalog],
            ignore={"metric-stale"},
        )
        assert "metric-uncataloged" not in rule_ids(result)

    def test_stale_catalog_entry_flagged(self, tmp_path):
        catalog = self.write_catalog(tmp_path)
        result = lint_source(
            tmp_path,
            "registry.inc('exec.tasks')\n"
            "registry.inc(f'quality.{name}.{cell}')\n"
            "with span('exec.map'):\n"
            "    pass\n",
            catalog_paths=[catalog],
        )
        stale = [f for f in result.findings if f.rule == "metric-stale"]
        assert [f.symbol for f in stale] == ["ghost.metric"]
        assert stale[0].path.endswith("CATALOG.md")

    def test_ignore_flag_skips_the_stale_check(self, tmp_path, capsys, monkeypatch):
        # A subtree emits only part of the catalog, so ``--ignore
        # metric-stale`` is how such a run skips the reverse check.
        monkeypatch.chdir(tmp_path)
        catalog = self.write_catalog(tmp_path)
        (tmp_path / "mod.py").write_text("registry.inc('exec.tasks')\n")
        args = ["mod.py", "--catalog", catalog, "-q"]
        assert main(args) == 1
        assert "metric-stale" in capsys.readouterr().out
        assert main([*args, "--ignore", "metric-stale"]) == 0
        assert capsys.readouterr().out == ""

    def test_span_outside_with_flagged(self, tmp_path):
        catalog = self.write_catalog(tmp_path)
        result = lint_source(
            tmp_path,
            "from repro.obs import span\n"
            "record = span('exec.map')\n",
            catalog_paths=[catalog],
            ignore={"metric-stale"},
        )
        assert "span-balance" in rule_ids(result)

    def test_manual_record_span_outside_obs_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def leak(registry, record):\n"
            "    registry.record_span(record)\n",
        )
        assert "span-balance" in rule_ids(result)

    def test_with_span_clean(self, tmp_path):
        catalog = self.write_catalog(tmp_path)
        result = lint_source(
            tmp_path,
            "from repro.obs import span\n"
            "with span('exec.map') as record:\n"
            "    record.annotate(n=1)\n",
            catalog_paths=[catalog],
            ignore={"metric-stale"},
        )
        assert "span-balance" not in rule_ids(result)


class TestCatalogHelpers:
    def test_expand_braces(self):
        assert expand_braces("a.{x,y}.b") == ["a.x.b", "a.y.b"]
        assert expand_braces("plain") == ["plain"]
        assert sorted(expand_braces("{a,b}.{c,d}")) == [
            "a.c", "a.d", "b.c", "b.d",
        ]

    def test_pattern_to_glob(self):
        assert pattern_to_glob("detector.<kind>.calls") == "detector.*.calls"

    def test_globs_intersect(self):
        assert globs_intersect("exec.tasks", "exec.tasks")
        assert globs_intersect("quality.*.*", "quality.*.tp")
        assert globs_intersect("span.*.seconds", "span.exec.map.seconds")
        assert not globs_intersect("drift.checks", "drift.*.violations")
        assert not globs_intersect("exec.tasks", "exec.chunks")

    def test_parse_catalog_rows(self):
        entries = parse_catalog_text(CATALOG_MD, "CATALOG.md")
        names = {entry.name for entry in entries}
        assert "quality.<detector>.tp" in names
        assert "quality.<detector>.fp" in names
        assert "ghost.metric" in names
        kinds = {entry.name: entry.kind for entry in entries}
        assert kinds["ghost.metric"] == "gauge"


# --------------------------------------------------------------------- #
# Unordered iteration near fingerprints
# --------------------------------------------------------------------- #


class TestUnorderedIterRule:
    HEADER = "from repro.exec.hashing import stable_fingerprint\n"

    def test_set_iteration_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            self.HEADER
            + "def digest(parts):\n"
            "    out = []\n"
            "    for part in set(parts):\n"
            "        out.append(part)\n"
            "    return stable_fingerprint(out)\n",
        )
        (finding,) = [f for f in result.findings if f.rule == "unordered-iter"]
        assert finding.line == 4

    def test_keys_iteration_in_comprehension_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            self.HEADER
            + "def digest(mapping):\n"
            "    return [mapping[k] for k in mapping.keys()]\n",
        )
        assert "unordered-iter" in rule_ids(result)

    def test_sorted_wrapping_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            self.HEADER
            + "def digest(parts, mapping):\n"
            "    a = [p for p in sorted(set(parts))]\n"
            "    b = [mapping[k] for k in sorted(mapping.keys())]\n"
            "    return a, b\n",
        )
        assert "unordered-iter" not in rule_ids(result)

    def test_rule_scoped_to_hashing_importers(self, tmp_path):
        result = lint_source(
            tmp_path,
            "def harmless(parts):\n"
            "    return [p for p in set(parts)]\n",
        )
        assert "unordered-iter" not in rule_ids(result)


# --------------------------------------------------------------------- #
# Framework: pragmas, baseline, JSON schema, CLI
# --------------------------------------------------------------------- #


class TestFramework:
    BAD = "import time\nstamp = time.time()\n"

    def test_pragma_suppresses_named_rule(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import time\n"
            "stamp = time.time()  # lint: ignore[wall-clock]\n",
        )
        assert "wall-clock" not in rule_ids(result)
        assert result.pragma_suppressed == 1

    def test_bare_pragma_suppresses_everything(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import time\n"
            "stamp = time.time()  # lint: ignore\n",
        )
        assert result.ok

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import time\n"
            "stamp = time.time()  # lint: ignore[rng-taint]\n",
        )
        assert "wall-clock" in rule_ids(result)

    def test_baseline_filters_known_findings(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(self.BAD)
        config = LintConfig()
        first = run_lint([str(target)], config)
        assert not first.ok

        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(baseline_payload(first.findings), indent=2)
        )
        second = run_lint(
            [str(target)], LintConfig(baseline_path=str(baseline))
        )
        assert second.ok
        assert len(second.baseline_findings) == 1

        # A *new* violation is still fatal under the baseline.
        target.write_text(
            self.BAD + "import numpy as np\nrng = np.random.default_rng()\n"
        )
        third = run_lint(
            [str(target)], LintConfig(baseline_path=str(baseline))
        )
        assert rule_ids(third) == {"rng-taint"}

    def test_baseline_keys_survive_line_moves(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(self.BAD)
        first = run_lint([str(target)], LintConfig())
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(baseline_payload(first.findings)))

        target.write_text("# a new comment shifts every line\n" + self.BAD)
        second = run_lint(
            [str(target)], LintConfig(baseline_path=str(baseline))
        )
        assert second.ok

    def test_json_output_schema(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(self.BAD)
        result = run_lint([str(target)], LintConfig())
        payload = result.to_json()
        assert payload["version"] == 1
        assert payload["tool"] == "repro.lint"
        assert payload["files_checked"] == 1
        assert payload["ok"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "path", "line", "column", "message", "symbol",
        }
        assert finding["rule"] == "wall-clock"
        assert finding["line"] == 2
        assert payload["suppressed"] == {"pragma": 0, "baseline": 0}

    def test_parse_error_reported_not_raised(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        result = run_lint([str(target)], LintConfig())
        assert not result.ok
        (finding,) = result.parse_errors
        assert finding.rule == "parse-error"

    def test_select_and_ignore(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(self.BAD)
        selected = run_lint(
            [str(target)], LintConfig(select={"rng-taint"})
        )
        assert selected.ok
        ignored = run_lint(
            [str(target)], LintConfig(ignore={"wall-clock"})
        )
        assert ignored.ok

    def test_findings_sorted_and_deterministic(self, tmp_path):
        source = (
            "import time\n"
            "b = time.time()\n"
            "a = time.time()\n"
        )
        results = [lint_source(tmp_path, source) for _ in range(2)]
        lines = [[f.line for f in r.findings] for r in results]
        assert lines[0] == sorted(lines[0])
        assert lines[0] == lines[1]

    def test_main_exit_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        assert main([str(good)]) == 0
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out

    def test_main_update_baseline_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        baseline = tmp_path / "base.json"
        assert main([str(bad), "--baseline", str(baseline), "--update-baseline"]) == 0
        assert main([str(bad), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_main_json_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        out_path = tmp_path / "findings.json"
        assert main([str(bad), "--json", str(out_path)]) == 1
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["findings"][0]["rule"] == "wall-clock"


# --------------------------------------------------------------------- #
# Acceptance fixtures: one injected violation per rule family
# --------------------------------------------------------------------- #


ACCEPTANCE_FIXTURES = {
    "rng-taint": (
        "import numpy as np\nrng = np.random.default_rng()\n"
    ),
    "wall-clock": "import time\nstamp = time.time()\n",
    "pickle-safety": "task = SensitivityTask(hook=lambda: 0)\n",
    "metric-uncataloged": "registry.inc('totally.new.metric')\n",
    "span-balance": (
        "from repro.obs import span\nopened = span('exec.map')\n"
    ),
    "unordered-iter": (
        "from repro.exec.hashing import derive_seed\n"
        "def seed_parts(parts):\n"
        "    return [derive_seed(0, p) for p in set(parts)]\n"
    ),
}


@pytest.mark.parametrize("rule_id", sorted(ACCEPTANCE_FIXTURES))
def test_each_rule_family_fails_structurally(rule_id, tmp_path):
    """Each injected violation yields a structured JSON finding naming the
    rule id, file, and line -- and a non-zero exit through main()."""
    target = tmp_path / f"{rule_id.replace('-', '_')}_fixture.py"
    target.write_text(ACCEPTANCE_FIXTURES[rule_id])
    catalogs = [str(REPO_ROOT / "docs/API.md")]
    config = LintConfig(catalog_paths=catalogs, ignore={"metric-stale"})
    result = run_lint([str(target)], config)
    payload = result.to_json()
    matches = [f for f in payload["findings"] if f["rule"] == rule_id]
    assert matches, f"no {rule_id} finding in {payload['findings']}"
    assert matches[0]["path"].endswith(target.name)
    assert matches[0]["line"] >= 1


# --------------------------------------------------------------------- #
# Self-check: the repo's own src/ tree is clean
# --------------------------------------------------------------------- #


class TestRepoSelfCheck:
    def test_src_tree_clean_with_committed_baseline(self):
        config = LintConfig(
            baseline_path=str(REPO_ROOT / ".repro-lint-baseline.json"),
            catalog_paths=[
                str(REPO_ROOT / "docs/API.md"),
                str(REPO_ROOT / "docs/OBSERVABILITY.md"),
            ],
        )
        result = run_lint([str(REPO_ROOT / "src")], config)
        assert result.ok, "\n" + result.to_text()

    def test_module_invocation_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_catalog_parity_needs_no_baseline_entries(self):
        baseline = json.loads(
            (REPO_ROOT / ".repro-lint-baseline.json").read_text()
        )
        catalog_rules = {"metric-uncataloged", "metric-stale"}
        assert not [
            entry
            for entry in baseline["entries"]
            if entry["rule"] in catalog_rules
        ]

    def test_default_rule_battery_is_complete(self):
        ids = {rule.id for rule in default_rules(LintConfig())}
        assert ids == {
            "rng-taint",
            "wall-clock",
            "pickle-safety",
            "span-balance",
            "worker-state-mutation",
            "metric-uncataloged",
            "metric-stale",
            "unordered-iter",
            "alert-unknown-metric",
        }

    def test_finding_ordering_is_total(self):
        a = Finding("a.py", 1, 0, "r", "m")
        b = Finding("a.py", 2, 0, "r", "m")
        assert sorted([b, a]) == [a, b]


class TestAlertRuleMetricRule:
    CATALOG = (
        "| metric | kind | meaning |\n"
        "| --- | --- | --- |\n"
        "| `drift.warnings` | counter | drift warnings raised |\n"
        "| `alert.latency_epochs` | histogram | firing latency |\n"
    )

    def run_rule(self, tmp_path, rules_text, name="rules.toml"):
        catalog = tmp_path / "catalog.md"
        catalog.write_text(self.CATALOG, encoding="utf-8")
        rule_file = tmp_path / name
        rule_file.write_text(rules_text, encoding="utf-8")
        config = LintConfig(
            select={"alert-unknown-metric"},
            catalog_paths=[str(catalog)],
            alert_rule_paths=[str(rule_file)],
        )
        return run_lint([], config)

    def test_unknown_metric_flagged(self, tmp_path):
        result = self.run_rule(
            tmp_path,
            '[[rule]]\nname = "r"\nmetric = "no.such.metric"\n',
        )
        (finding,) = result.findings
        assert finding.rule == "alert-unknown-metric"
        assert "no.such.metric" in finding.message
        assert finding.symbol == "r:no.such.metric"

    def test_catalogued_metric_clean(self, tmp_path):
        result = self.run_rule(
            tmp_path, '[[rule]]\nname = "r"\nmetric = "drift.warnings"\n'
        )
        assert result.findings == []

    def test_histogram_derived_series_resolves(self, tmp_path):
        # <histogram>.p90 strips the derived-series suffix and matches
        # the catalogued histogram entry.
        result = self.run_rule(
            tmp_path,
            '[[rule]]\nname = "r"\nmetric = "alert.latency_epochs.p90"\n',
        )
        assert result.findings == []

    def test_derived_suffix_needs_histogram_kind(self, tmp_path):
        # drift.warnings is a counter: .p90 must not resolve through it.
        result = self.run_rule(
            tmp_path, '[[rule]]\nname = "r"\nmetric = "drift.warnings.p90"\n'
        )
        assert len(result.findings) == 1

    def test_unloadable_rule_file_flagged(self, tmp_path):
        result = self.run_rule(
            tmp_path, '[[rule]]\nname = "r"\nbogus_key = 1\n'
        )
        (finding,) = result.findings
        assert "cannot load" in finding.message

    def test_committed_rulesets_pass_against_repo_catalogs(self):
        rule_dir = REPO_ROOT / "src/repro/obs/alert_rules"
        config = LintConfig(
            select={"alert-unknown-metric"},
            catalog_paths=[
                str(REPO_ROOT / "docs/API.md"),
                str(REPO_ROOT / "docs/OBSERVABILITY.md"),
            ],
            alert_rule_paths=[
                str(p) for p in sorted(rule_dir.iterdir())
                if p.suffix in (".toml", ".json")
            ],
        )
        result = run_lint([], config)
        assert result.ok, "\n" + result.to_text()


# --------------------------------------------------------------------- #
# functools.partial payloads (pickle-safety extension)
# --------------------------------------------------------------------- #


class TestPartialPickleSafety:
    def test_partial_over_local_def_into_map_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "from functools import partial\n"
            "def dispatch(evaluator, items):\n"
            "    def score(item):\n"
            "        return item + 1\n"
            "    return evaluator.map(partial(score, 2), items)\n",
        )
        (finding,) = [f for f in result.findings if f.rule == "pickle-safety"]
        assert "partial" in finding.message and "score" in finding.message

    def test_partial_over_lambda_into_task_ctor_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import functools\n"
            "task = RegionProbeTask(\n"
            "    probe=functools.partial(lambda x: x, 1),\n"
            ")\n",
        )
        (finding,) = [f for f in result.findings if f.rule == "pickle-safety"]
        assert "partial" in finding.message and "lambda" in finding.message

    def test_partial_over_module_level_function_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            "from functools import partial\n"
            "def score(item, scale):\n"
            "    return item * scale\n"
            "def run(evaluator, items):\n"
            "    return evaluator.map(partial(score, scale=2.0), items)\n",
        )
        assert "pickle-safety" not in rule_ids(result)

    def test_partial_inside_container_argument_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "from functools import partial\n"
            "def run(evaluator, items):\n"
            "    hooks = [partial(lambda x: x, 1)]\n"
            "    return evaluator.map(items, hooks=[partial(lambda y: y, 2)])\n",
        )
        assert "pickle-safety" in rule_ids(result)


# --------------------------------------------------------------------- #
# Pragma windows: multiline calls
# --------------------------------------------------------------------- #


class TestPragmaWindows:
    def test_pragma_on_multiline_call_continuation_suppresses(self, tmp_path):
        bare = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")\n",
        )
        assert "rng-taint" in rule_ids(bare)
        blessed = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")  # lint: ignore[rng-taint]\n",
        )
        assert "rng-taint" not in rule_ids(blessed)

    def test_pragma_on_multiline_task_ctor_suppresses_pickle_safety(self, tmp_path):
        blessed = lint_source(
            tmp_path,
            "task = RegionProbeTask(\n"
            "    probe=lambda: 1,\n"
            "    bias=2.0,\n"
            ")  # lint: ignore[pickle-safety]\n",
        )
        assert "pickle-safety" not in rule_ids(blessed)

    def test_update_baseline_is_stable_across_reruns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "stamp = time.time()\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        baseline = tmp_path / "base.json"
        assert main([str(bad), "--baseline", str(baseline), "--update-baseline"]) == 0
        first = baseline.read_text()
        assert main([str(bad), "--baseline", str(baseline), "--update-baseline"]) == 0
        assert baseline.read_text() == first
        # The refreshed baseline still grandfathers after unrelated edits
        # shift every line.
        bad.write_text("# comment\n# comment\n" + bad.read_text())
        assert main([str(bad), "--baseline", str(baseline)]) == 0
        capsys.readouterr()


# --------------------------------------------------------------------- #
# Analyzer self-check against the seeded corpus
# --------------------------------------------------------------------- #


class TestAnalysisPlumbing:
    def test_selfcheck_matches_committed_corpus(self):
        from repro.lint.selfcheck import run_selfcheck

        ok, lines = run_selfcheck(
            str(REPO_ROOT / "tests/fixtures/lint_corpus")
        )
        assert ok, "\n".join(lines)
        assert lines[-1].endswith("OK")

    def test_selfcheck_fails_on_missing_expectations(self, tmp_path):
        from repro.lint.selfcheck import run_selfcheck

        ok, lines = run_selfcheck(str(tmp_path))
        assert not ok
        assert "no" in lines[0]

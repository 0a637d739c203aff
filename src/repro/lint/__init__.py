"""repro.lint: AST-based invariant checking for the reproduction repo.

Machine-checks the coding invariants the determinism and telemetry
guarantees rest on (see ``docs/LINT.md`` for the rule catalog):

==========================  ============================================
rule id                     invariant
==========================  ============================================
``rng-taint``               every random draw descends from a plumbed seed
``wall-clock``              no absolute-time reads outside pragma'd
                            sites, none reaching a fingerprint input
``pickle-safety``           task and pool payloads pickle, at the call
                            site and through ``EvalTask`` field types
``span-balance``            spans open only via ``with span(...)``
``worker-state-mutation``   no global/shared writes in the worker closure
``metric-uncataloged``      emitted metric names appear in the docs
``metric-stale``            catalogued metric names are still emitted
``unordered-iter``          no salted-order iteration near fingerprints
``alert-unknown-metric``    alert-rule files watch catalogued metrics
==========================  ============================================

The first five read the per-module facts and the linked whole-program
call graph of :mod:`repro.lint.graph` (rules in :mod:`repro.lint.flow`);
each checks its invariant both at the site, anywhere in the tree, and
along the call paths that make the site matter.  The last four are
per-file and whole-project catalog checks.

Run as ``python -m repro.lint [paths...]`` or ``repro-rating lint``
(which takes exactly the same arguments); suppress a single line with
``# lint: ignore[rule-id]``, carry accepted pre-existing findings in
``.repro-lint-baseline.json``, and write the findings as JSON with
``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.core import (
    Finding,
    LintConfig,
    LintResult,
    Linter,
    ModuleSource,
    Rule,
    baseline_payload,
    run_lint,
)
from repro.lint.flow import (
    PickleSafetyRule,
    RngTaintRule,
    SpanBalanceRule,
    WallClockRule,
    WorkerStateMutationRule,
)
from repro.lint.rules_alerts import AlertRuleMetricRule
from repro.lint.rules_metrics import MetricCatalogRule, MetricStaleRule
from repro.lint.rules_order import UnorderedIterRule

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Linter",
    "ModuleSource",
    "Rule",
    "default_rules",
    "main",
    "run_lint",
]

DEFAULT_BASELINE = ".repro-lint-baseline.json"
DEFAULT_CATALOGS = ("docs/API.md", "docs/OBSERVABILITY.md")
#: Where committed alert-rule files live (relative to the repo root).
DEFAULT_ALERT_RULE_DIRS = ("src/repro/obs/alert_rules",)


def default_rules(config: LintConfig) -> List[Rule]:
    """The full rule battery, wired to ``config``'s catalog paths."""
    return [
        RngTaintRule(),
        WallClockRule(),
        PickleSafetyRule(),
        SpanBalanceRule(),
        WorkerStateMutationRule(),
        MetricCatalogRule(config.catalog_paths),
        MetricStaleRule(config.catalog_paths),
        UnorderedIterRule(),
        AlertRuleMetricRule(config.catalog_paths, config.alert_rule_paths),
    ]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based invariant checker for the reproduction repo.",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src, else .)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write findings as structured JSON to PATH ('-' = stdout)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help=f"baseline file of accepted findings (default: {DEFAULT_BASELINE} "
             "when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--select", metavar="IDS", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="IDS", default="",
        help="comma-separated rule ids to skip (e.g. metric-stale on a "
             "subtree, where 'nothing emits X' is vacuous)",
    )
    parser.add_argument(
        "--catalog", metavar="PATH", action="append", default=None,
        help="metric-catalog markdown file (repeatable; default: "
             "docs/API.md docs/OBSERVABILITY.md when present)",
    )
    parser.add_argument(
        "--alert-rules", metavar="PATH", action="append", default=None,
        help="alert-rule file checked for catalog parity (repeatable; "
             "default: every file under src/repro/obs/alert_rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="print findings only, no summary line",
    )
    return parser


def _default_paths() -> List[str]:
    return ["src"] if Path("src").is_dir() else ["."]


def _default_catalogs() -> List[str]:
    return [path for path in DEFAULT_CATALOGS if Path(path).exists()]


def _default_alert_rules() -> List[str]:
    out: List[str] = []
    for raw in DEFAULT_ALERT_RULE_DIRS:
        directory = Path(raw)
        if directory.is_dir():
            out.extend(
                p.as_posix()
                for p in sorted(directory.iterdir())
                if p.suffix.lower() in (".toml", ".json")
            )
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.lint`` and ``repro-rating lint``."""
    args = build_arg_parser().parse_args(argv)

    ignore = {part.strip() for part in args.ignore.split(",") if part.strip()}
    select = None
    if args.select:
        select = {part.strip() for part in args.select.split(",") if part.strip()}

    baseline = args.baseline
    if baseline is None and not args.no_baseline and Path(DEFAULT_BASELINE).exists():
        baseline = DEFAULT_BASELINE
    if args.no_baseline:
        baseline = None

    config = LintConfig(
        select=select,
        ignore=ignore,
        baseline_path=baseline,
        catalog_paths=(
            args.catalog if args.catalog is not None else _default_catalogs()
        ),
        alert_rule_paths=(
            args.alert_rules
            if args.alert_rules is not None
            else _default_alert_rules()
        ),
    )
    rules = default_rules(config)

    if args.list_rules:
        for rule in rules:
            print(f"{rule.id:20s} {rule.summary}")
        return 0

    paths = args.paths or _default_paths()
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    result = Linter(rules, config).run(paths)

    if args.update_baseline:
        target = args.baseline or DEFAULT_BASELINE
        payload = baseline_payload(result.findings + result.baseline_findings)
        Path(target).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(
            f"baseline {target} updated with "
            f"{len(payload['entries'])} entr(y/ies)"
        )
        return 0

    json_owns_stdout = args.json == "-"
    if args.json:
        rendered = json.dumps(result.to_json(), indent=2, sort_keys=True)
        if json_owns_stdout:
            print(rendered)
        else:
            Path(args.json).write_text(rendered + "\n", encoding="utf-8")

    # With ``--json -`` the JSON report owns stdout; the human-readable
    # report moves to stderr so piped output stays parseable.
    out = sys.stderr if json_owns_stdout else sys.stdout
    if args.quiet:
        for finding in result.findings + result.parse_errors:
            print(finding.to_text(), file=out)
    else:
        print(result.to_text(), file=out)
    return 0 if result.ok else 1

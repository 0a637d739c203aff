"""The AST-based invariant checker's core: rules, findings, runner.

The repo's headline guarantee -- bit-identical results and telemetry
across serial, chunked, and multi-process runs -- rests on coding
invariants (seed plumbing, pickle-safe task payloads, catalogued metric
names, clock hygiene, ordered iteration on fingerprint inputs) that
ordinary linters cannot see.  This module provides the machinery those
repo-specific rules plug into:

- :class:`Finding` -- one violation, with a stable ``baseline_key`` so a
  committed baseline file can grandfather accepted findings without
  pinning line numbers;
- :class:`Rule` -- the visitor contract (``check_module`` per file,
  ``check_program`` over the linked call graph of
  :mod:`repro.lint.graph`, and a ``finalize`` hook for whole-project
  rules such as catalog parity);
- :class:`ModuleSource` -- a parsed file with its pragma map and an
  import-alias resolver shared by every rule;
- :class:`Linter` / :func:`run_lint` -- deterministic file walking,
  ``# lint: ignore[rule-id]`` suppression, baseline filtering, and JSON
  plus human-readable output.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "ImportMap",
    "LintConfig",
    "LintResult",
    "Linter",
    "ModuleSource",
    "Rule",
    "expr_window",
    "load_baseline",
    "run_lint",
]

JSON_SCHEMA_VERSION = 1


def expr_window(node: ast.AST, cap: int = 12) -> Tuple[int, ...]:
    """Continuation lines of a multiline node, for ``Finding.extra_lines``.

    A ``# lint: ignore[...]`` pragma anywhere inside a multiline call
    (typically on the closing-paren line) should suppress the finding
    anchored at the call's first line; ``cap`` bounds the window so a
    pathological expression cannot blanket a whole file.
    """
    end = getattr(node, "end_lineno", None) or node.lineno
    return tuple(range(node.lineno + 1, min(end, node.lineno + cap) + 1))

#: ``# lint: ignore`` suppresses every rule on that line;
#: ``# lint: ignore[rule-a,rule-b]`` suppresses only the named rules.
_PRAGMA = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    #: A short stable identifier for *what* was flagged (a metric name, a
    #: function name, a call expression) -- the line-independent part of
    #: the baseline key, so unrelated edits don't churn the baseline.
    symbol: str = ""
    #: Extra lines where a suppression pragma also counts -- the lines
    #: of a multiline call.  Excluded from ordering, JSON, and the
    #: baseline.
    extra_lines: Tuple[int, ...] = field(default=(), compare=False)

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "symbol": self.symbol,
        }

    def to_text(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule}: {self.message}"


class ImportMap:
    """Resolves local names to canonical dotted module paths.

    Built from a module's ``import``/``from`` statements (at any nesting
    level), so rules can ask "is this call ``numpy.random.default_rng``?"
    regardless of aliasing (``import numpy as np``, ``from numpy.random
    import default_rng as mk_rng``, ...).
    """

    def __init__(self, tree: ast.AST) -> None:
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.names[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a`` to module ``a``.
                        top = alias.name.split(".")[0]
                        self.names[top] = top
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.names[bound] = f"{module}.{alias.name}" if module else alias.name

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.names.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        return self.resolve(call.func)


class ModuleSource:
    """One parsed python file plus the per-line pragma map."""

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.imports = ImportMap(tree)
        #: line -> None (ignore everything) or the set of ignored rule ids.
        self.ignores: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            if match.group(1) is None:
                self.ignores[lineno] = None
            else:
                ids = {part.strip() for part in match.group(1).split(",")}
                self.ignores[lineno] = {part for part in ids if part}

    @classmethod
    def parse(cls, path: str, text: str) -> "ModuleSource":
        return cls(path, text, ast.parse(text, filename=path))

    def suppresses(self, finding: Finding) -> bool:
        """Whether a pragma on any of the finding's lines covers its rule."""
        for line in (finding.line, *finding.extra_lines):
            rules = self.ignores.get(line, ...)
            if rules is ...:
                continue
            if rules is None or finding.rule in rules:
                return True
        return False


class Rule:
    """Base class for one lint rule (or one tightly-related family)."""

    #: Stable kebab-case identifier used in output, pragmas, and baselines.
    id: str = ""
    #: One-line description shown by ``--list-rules`` and docs.
    summary: str = ""
    #: Whole-program rules set this; the linter then builds the linked
    #: call graph (:mod:`repro.lint.graph`) and calls ``check_program``.
    needs_program: bool = False

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        """Findings for one parsed file."""
        return ()

    def check_program(self, program) -> Iterable[Finding]:
        """Findings over the linked whole-program view."""
        return ()

    def finalize(self, modules: Sequence[ModuleSource]) -> Iterable[Finding]:
        """Whole-project findings, after every module was checked."""
        return ()


@dataclass
class LintConfig:
    """Knobs for one linter run."""

    #: Only run these rule ids (None = all registered rules).
    select: Optional[Set[str]] = None
    #: Never run these rule ids.
    ignore: Set[str] = field(default_factory=set)
    #: Baseline file; findings whose ``baseline_key`` appears there are
    #: reported in counts but do not fail the run.
    baseline_path: Optional[str] = None
    #: Markdown files holding the metric-name catalog tables.
    catalog_paths: Sequence[str] = ()
    #: Alert-rule files (TOML/JSON) whose metrics must be catalogued.
    alert_rule_paths: Sequence[str] = ()
    #: When set, only these paths plus their reverse-dependency closure
    #: over the import graph are checked (``--changed-only`` mode).
    changed_paths: Optional[Sequence[str]] = None


@dataclass
class LintResult:
    """Everything one run produced."""

    findings: List[Finding]
    baseline_findings: List[Finding]
    pragma_suppressed: int
    files_checked: int
    rules: List[str]
    parse_errors: List[Finding]
    #: Whole-program analysis stats: which modules were summarized
    #: (``analyzed``) and which were actually rule-checked this run
    #: (``checked``).  Empty when no program rule ran.
    analysis: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def to_json(self) -> Dict[str, object]:
        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro.lint",
            "files_checked": self.files_checked,
            "rules": list(self.rules),
            "findings": [f.as_dict() for f in self.findings],
            "parse_errors": [f.as_dict() for f in self.parse_errors],
            "suppressed": {
                "pragma": self.pragma_suppressed,
                "baseline": len(self.baseline_findings),
            },
            "analysis": {
                key: list(value) for key, value in self.analysis.items()
            },
            "ok": self.ok,
        }

    def to_text(self) -> str:
        lines = [f.to_text() for f in self.findings + self.parse_errors]
        total = len(self.findings) + len(self.parse_errors)
        lines.append(
            f"repro.lint: {total} finding(s) in {self.files_checked} file(s)"
            f" ({self.pragma_suppressed} pragma-suppressed,"
            f" {len(self.baseline_findings)} baselined)"
        )
        return "\n".join(lines)


def load_baseline(path: str) -> Set[Tuple[str, str, str]]:
    """The set of grandfathered ``baseline_key``\\ s from a baseline file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = payload.get("entries", [])
    return {
        (str(e["rule"]), str(e["path"]), str(e.get("symbol", "")))
        for e in entries
    }


def baseline_payload(findings: Sequence[Finding]) -> Dict[str, object]:
    """The JSON payload ``--update-baseline`` writes."""
    keys = sorted({f.baseline_key for f in findings})
    return {
        "version": JSON_SCHEMA_VERSION,
        "entries": [
            {"rule": rule, "path": path, "symbol": symbol}
            for rule, path, symbol in keys
        ],
    }


def walk_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            out.append(path)
    seen: Set[str] = set()
    unique: List[Path] = []
    for path in out:
        key = path.as_posix()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


class Linter:
    """Runs a battery of rules over a file tree."""

    def __init__(self, rules: Sequence[Rule], config: Optional[LintConfig] = None):
        self.config = config or LintConfig()
        self.rules = [
            rule
            for rule in rules
            if rule.id not in self.config.ignore
            and (self.config.select is None or rule.id in self.config.select)
        ]

    def run(self, paths: Sequence[str]) -> LintResult:
        parse_errors: List[Finding] = []
        files = walk_python_files(paths)
        texts: Dict[str, str] = {}
        order: List[str] = []
        for file_path in files:
            rel = file_path.as_posix()
            try:
                texts[rel] = file_path.read_text(encoding="utf-8")
                order.append(rel)
            except (OSError, UnicodeDecodeError) as exc:
                parse_errors.append(
                    Finding(
                        path=rel,
                        line=1,
                        column=0,
                        rule="parse-error",
                        message=f"cannot read file: {exc}",
                        symbol=rel,
                    )
                )

        parsed: Dict[str, Optional[ModuleSource]] = {}

        def parse(rel: str) -> Optional[ModuleSource]:
            if rel in parsed:
                return parsed[rel]
            try:
                parsed[rel] = ModuleSource.parse(rel, texts[rel])
            except SyntaxError as exc:
                line = getattr(exc, "lineno", 1) or 1
                parse_errors.append(
                    Finding(
                        path=rel,
                        line=int(line),
                        column=0,
                        rule="parse-error",
                        message=f"cannot parse file: {exc}",
                        symbol=rel,
                    )
                )
                parsed[rel] = None
            return parsed[rel]

        # ---- whole-program phase: summaries and the linked call graph.
        program = None
        analysis: Dict[str, List[str]] = {}
        program_rules = [rule for rule in self.rules if rule.needs_program]
        if program_rules or self.config.changed_paths is not None:
            # Imported lazily: graph depends on this module.
            from repro.lint.graph import build_program, extract_summary

            summaries = [
                extract_summary(module)
                for module in map(parse, order)
                if module is not None
            ]
            program = build_program(summaries)
            analysis = {"analyzed": sorted(s.path for s in summaries)}

        # ---- scope: everything, or the changed set's dependency closure.
        if self.config.changed_paths is not None and program is not None:
            wanted = program.reverse_dependency_closure(
                Path(p).as_posix() for p in self.config.changed_paths
            )
            check_list = [rel for rel in order if rel in wanted]
        else:
            check_list = list(order)
        checked_set = set(check_list)
        if analysis or self.config.changed_paths is not None:
            analysis["checked"] = list(check_list)

        # ---- per-file phase.
        raw: List[Finding] = []
        modules: List[ModuleSource] = []
        for rel in check_list:
            module = parse(rel)
            if module is None:
                continue
            modules.append(module)
            for rule in self.rules:
                if not rule.needs_program:
                    raw.extend(rule.check_module(module))

        # ---- program phase: flow rules see the whole graph but only
        # report into the checked scope.
        if program is not None:
            for rule in program_rules:
                for finding in rule.check_program(program):
                    if finding.path in checked_set:
                        raw.append(finding)

        for rule in self.rules:
            if not rule.needs_program:
                raw.extend(rule.finalize(modules))

        by_path = {module.path: module for module in modules}
        pragma_suppressed = 0
        survivors: List[Finding] = []
        for finding in sorted(raw):
            module = by_path.get(finding.path)
            if module is not None and module.suppresses(finding):
                pragma_suppressed += 1
            else:
                survivors.append(finding)

        baseline_keys: Set[Tuple[str, str, str]] = set()
        if self.config.baseline_path and Path(self.config.baseline_path).exists():
            baseline_keys = load_baseline(self.config.baseline_path)
        baselined = [f for f in survivors if f.baseline_key in baseline_keys]
        fresh = [f for f in survivors if f.baseline_key not in baseline_keys]

        return LintResult(
            findings=fresh,
            baseline_findings=baselined,
            pragma_suppressed=pragma_suppressed,
            files_checked=len(check_list),
            rules=[rule.id for rule in self.rules],
            parse_errors=parse_errors,
            analysis=analysis,
        )


def run_lint(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Convenience wrapper: build the default battery and run it."""
    if rules is None:
        from repro.lint import default_rules

        rules = default_rules(config or LintConfig())
    return Linter(rules, config).run(paths)

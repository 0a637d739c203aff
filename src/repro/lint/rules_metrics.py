"""Metric-catalog parity rules.

The metric-name tables in ``docs/API.md`` / ``docs/OBSERVABILITY.md``
are the contract dashboards and the run-ledger regression checker build
on.  Drift in either direction is a failure:

- ``metric-uncataloged``: code emits a ``quality.*`` / ``exec.*`` / ...
  name the catalog does not know -- the new series would be invisible to
  docs and to ``runs check`` reviewers;
- ``metric-stale``: the catalog promises a name nothing emits -- readers
  chase telemetry that does not exist.

Emissions are collected from every string literal (or f-string pattern)
passed to ``counter( / gauge( / histogram( / inc( / observe( /
set_gauge(`` and to ``span(``; f-string holes become wildcards and
parity is decided by pattern intersection (see
:mod:`repro.lint.catalog`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.lint.catalog import (
    CatalogEntry,
    catalog_matches,
    globs_intersect,
    parse_catalog,
)
from repro.lint.core import Finding, ModuleSource, Rule
from repro.lint.graph import is_span_call

__all__ = ["MetricCatalogRule", "MetricStaleRule", "iter_emissions"]

#: Registry methods whose first string argument names a metric.
_EMIT_METHODS = {"counter", "gauge", "histogram", "inc", "observe", "set_gauge"}


@dataclass(frozen=True)
class Emission:
    """One metric-name emission site."""

    glob: str  # wildcard pattern; concrete names have no '*'
    display: str  # what to show in findings ('{...}' for f-string holes)
    path: str
    line: int
    column: int


def _literal_glob(node: ast.AST) -> Optional[tuple]:
    """(glob, display) for a Constant-str or JoinedStr node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, node.value
    if isinstance(node, ast.JoinedStr):
        glob_parts: List[str] = []
        display_parts: List[str] = []
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                glob_parts.append(part.value)
                display_parts.append(part.value)
            else:
                glob_parts.append("*")
                display_parts.append("{...}")
        return "".join(glob_parts), "".join(display_parts)
    return None


def iter_emissions(module: ModuleSource) -> Iterable[Emission]:
    """Every metric-name emission in one module."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        name = None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _EMIT_METHODS
        ):
            name = _literal_glob(node.args[0])
            if name is not None:
                glob, display = name
                yield Emission(glob, display, module.path, node.lineno, node.col_offset)
        elif is_span_call(node, module.imports.resolve_call(node)):
            name = _literal_glob(node.args[0])
            if name is not None:
                glob, display = name
                # A span named N records histogram span.<enclosing>.N.seconds;
                # the enclosing prefix is dynamic, so it is a wildcard hole.
                yield Emission(
                    f"span.*{glob}.seconds",
                    f"span.…{display}.seconds",
                    module.path,
                    node.lineno,
                    node.col_offset,
                )


class _CatalogMixin:
    def __init__(self, catalog_paths: Sequence[str]) -> None:
        self.catalog_paths = list(catalog_paths)
        self._entries: Optional[List[CatalogEntry]] = None

    @property
    def entries(self) -> List[CatalogEntry]:
        if self._entries is None:
            self._entries = parse_catalog(self.catalog_paths)
        return self._entries


class MetricCatalogRule(_CatalogMixin, Rule):
    id = "metric-uncataloged"
    summary = (
        "every emitted metric name must appear in the docs metric catalog "
        "(docs/API.md / docs/OBSERVABILITY.md)"
    )

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        if not self.entries:
            return []
        findings: List[Finding] = []
        for emission in iter_emissions(module):
            if catalog_matches(emission.glob, self.entries):
                continue
            findings.append(
                Finding(
                    path=emission.path,
                    line=emission.line,
                    column=emission.column,
                    rule=self.id,
                    message=(
                        f"metric '{emission.display}' is not in the catalog; "
                        f"add it to {self.catalog_paths[0] if self.catalog_paths else 'the docs'} "
                        "or rename it to a catalogued pattern"
                    ),
                    symbol=emission.display,
                )
            )
        return findings


class MetricStaleRule(_CatalogMixin, Rule):
    id = "metric-stale"
    summary = (
        "every catalogued metric name must still be emitted somewhere in "
        "the linted tree (stale docs mislead dashboards)"
    )

    def finalize(self, modules: Sequence[ModuleSource]) -> Iterable[Finding]:
        emitted = [e.glob for m in modules for e in iter_emissions(m)]
        findings: List[Finding] = []
        for entry in self.entries:
            if any(globs_intersect(entry.glob, glob) for glob in emitted):
                continue
            findings.append(
                Finding(
                    path=entry.path,
                    line=entry.line,
                    column=0,
                    rule=self.id,
                    message=(
                        f"catalogued metric '{entry.name}' is never emitted "
                        "by the linted code; delete the row or restore the "
                        "emission"
                    ),
                    symbol=entry.name,
                )
            )
        return findings

"""Unordered-iteration hygiene in fingerprint-reachable code.

:mod:`repro.exec.hashing` canonicalises task descriptions into BLAKE2b
digests that serve as cache keys, derived RNG seeds, and the ledger's
workload fingerprint.  Any code on a path into those digests that
iterates a ``set`` (or ``dict.keys()`` of a dict whose insertion order
is not itself deterministic) in construction order injects
process-salted hash ordering into a value that must be stable across
interpreter launches.  Inside modules that touch the hashing API (or
live in ``repro/exec/``), iteration over ``set(...)`` / set literals /
``.keys()`` must go through ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.lint.core import Finding, ModuleSource, Rule
from repro.lint.graph import HASHING_TAILS

__all__ = ["UnorderedIterRule"]


def _fingerprint_scoped(module: ModuleSource) -> bool:
    if "/exec/" in module.path or module.path.endswith("exec/__init__.py"):
        return True
    for canonical in module.imports.names.values():
        if "repro.exec.hashing" in canonical:
            return True
        # Importing any of the hashing API marks a module as
        # fingerprint-reachable.
        if canonical.rsplit(".", 1)[-1] in HASHING_TAILS and canonical.startswith(
            "repro."
        ):
            return True
    return False


def _unordered_source(node: ast.AST) -> Optional[str]:
    """What unordered collection ``node`` iterates, if any."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return ".keys()"
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    return None


class UnorderedIterRule(Rule):
    id = "unordered-iter"
    summary = (
        "code reachable from exec/hashing must not iterate sets or "
        ".keys() without sorted(...): hash order is process-salted and "
        "poisons fingerprints"
    )

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        if not _fingerprint_scoped(module):
            return []
        findings: List[Finding] = []
        iter_sites: List[ast.AST] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_sites.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iter_sites.extend(gen.iter for gen in node.generators)
        for site in iter_sites:
            source = _unordered_source(site)
            if source is None:
                continue
            findings.append(
                Finding(
                    path=module.path,
                    line=site.lineno,
                    column=site.col_offset,
                    rule=self.id,
                    message=(
                        f"iterating {source} in fingerprint-reachable code "
                        "follows process-salted hash order; wrap the iterable "
                        "in sorted(...)"
                    ),
                    symbol=source,
                )
            )
        return findings

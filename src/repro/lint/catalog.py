"""Metric-name catalog parsing and wildcard-pattern intersection.

The docs (``docs/API.md``, ``docs/OBSERVABILITY.md``) carry markdown
tables cataloguing every metric the pipeline emits::

    | `exec.cache.{hits,misses}` | counter | MP-cache traffic |
    | `detector.<kind>.seconds`  | histogram | per-call latency |

The catalog-parity rule needs those names as machine-checkable patterns:
``{a,b}`` brace alternatives expand, ``<placeholder>`` segments become
wildcards, and one table cell may list several names (``` `a` / `b` ``).
Emitted names on the code side may themselves be patterns (an f-string
``f"quality.{name}.{cell}"`` is ``quality.*.*``), so parity is decided
by *pattern intersection*: two wildcard patterns agree when some
concrete metric name matches both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Set, Tuple

__all__ = [
    "CatalogEntry",
    "expand_braces",
    "globs_intersect",
    "parse_catalog",
    "pattern_to_glob",
]

#: The table-cell kinds that mark a row as a metric-catalog row (other
#: markdown tables -- API summaries, rule lists -- are skipped).
_METRIC_KINDS = {"counter", "gauge", "histogram"}

_BACKTICK = re.compile(r"`([^`]+)`")
_BRACE = re.compile(r"\{([^{}]*)\}")
_PLACEHOLDER = re.compile(r"<[^<>]+>")
#: What a catalogued metric name may look like (after backtick removal).
_NAME_SHAPE = re.compile(r"^[A-Za-z0-9_.\-<>{},]+$")


@dataclass(frozen=True)
class CatalogEntry:
    """One catalogued metric-name pattern."""

    name: str  # as written, e.g. "quality.<detector>.tp"
    glob: str  # wildcard form, e.g. "quality.*.tp"
    kind: str  # counter | gauge | histogram
    path: str  # catalog file it came from
    line: int


def expand_braces(pattern: str) -> List[str]:
    """All alternatives of ``{a,b,c}`` groups (possibly nested/multiple)."""
    match = _BRACE.search(pattern)
    if match is None:
        return [pattern]
    out: List[str] = []
    for alternative in match.group(1).split(","):
        expanded = pattern[: match.start()] + alternative.strip() + pattern[match.end():]
        out.extend(expand_braces(expanded))
    return out


def pattern_to_glob(pattern: str) -> str:
    """Replace ``<placeholder>`` segments with ``*`` wildcards."""
    return _PLACEHOLDER.sub("*", pattern)


def globs_intersect(a: str, b: str) -> bool:
    """Whether some concrete string matches both wildcard patterns.

    Both sides may contain ``*`` (any run of characters, including
    empty); everything else is literal.  This is emptiness-of-
    intersection for the two star-languages, decided by an explicit
    reachability walk over position pairs.
    """
    seen: Set[Tuple[int, int]] = set()
    stack: List[Tuple[int, int]] = [(0, 0)]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        if i == len(a) and j == len(b):
            return True
        if i < len(a) and a[i] == "*":
            stack.append((i + 1, j))  # star matches the empty string
            if j < len(b):
                stack.append((i, j + 1))  # star absorbs one unit of b
            continue
        if j < len(b) and b[j] == "*":
            stack.append((i, j + 1))
            if i < len(a):
                stack.append((i + 1, j))
            continue
        if i < len(a) and j < len(b) and a[i] == b[j]:
            stack.append((i + 1, j + 1))
    return False


def _row_cells(line: str) -> List[str]:
    stripped = line.strip()
    if not (stripped.startswith("|") and stripped.endswith("|")):
        return []
    return [cell.strip() for cell in stripped[1:-1].split("|")]


def parse_catalog_text(text: str, path: str) -> List[CatalogEntry]:
    """Catalog entries from one markdown document."""
    entries: List[CatalogEntry] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cells = _row_cells(line)
        if len(cells) < 2 or cells[1].lower() not in _METRIC_KINDS:
            continue
        kind = cells[1].lower()
        for token in _BACKTICK.findall(cells[0]):
            if "." not in token or not _NAME_SHAPE.match(token):
                continue
            for name in expand_braces(token):
                entries.append(
                    CatalogEntry(
                        name=name,
                        glob=pattern_to_glob(name),
                        kind=kind,
                        path=path,
                        line=lineno,
                    )
                )
    return entries


def parse_catalog(paths: Iterable[str]) -> List[CatalogEntry]:
    """All entries from every existing catalog file, in path order."""
    entries: List[CatalogEntry] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            continue
        entries.extend(
            parse_catalog_text(path.read_text(encoding="utf-8"), path.as_posix())
        )
    return entries


def catalog_matches(glob: str, entries: Sequence[CatalogEntry]) -> bool:
    """Whether an emitted-name pattern agrees with any catalog entry."""
    return any(globs_intersect(glob, entry.glob) for entry in entries)

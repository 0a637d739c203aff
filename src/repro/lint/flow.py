"""The determinism and telemetry rules, computed from whole-program facts.

Each invariant has one rule.  Every rule reads the per-scope facts
:func:`repro.lint.graph.extract_summary` collected and judges them in
two scopes: the site itself, wherever it sits, and the paths through
the linked call graph (:class:`repro.lint.graph.Program`) that make a
site matter.

- ``rng-taint`` -- a process-global ``np.random.*`` / ``random.*`` draw,
  or an RNG constructor with no seed, is a finding anywhere.  On a path
  reachable from an ``EvalTask.run`` override a constructor must also be
  seeded from a plumbed seed source (a seed-like parameter, a
  ``derive_seed`` call, or a value derived from one): a helper three
  calls below ``run`` that draws from ``default_rng(42)`` breaks replay
  exactly like one inside the task.
- ``wall-clock`` -- every absolute-time read is a finding at the read,
  and an input to ``derive_seed`` / ``stable_fingerprint`` /
  ``canonical_bytes`` that reaches a read through any call chain is a
  finding at the feed.  Pragmas act per line, so a pragma that
  sanctions a timestamp read does not bless a fingerprint chain through
  it.
- ``pickle-safety`` -- lambdas, closures and locally-defined classes
  passed into ``*Task(...)`` constructors or a pool's ``.map(...)``, and
  ``EvalTask`` field annotations that do not transitively resolve to
  module-level picklable definitions (``object``/``Any``/``Callable``
  and names that resolve to nothing).
- ``span-balance`` -- spans open only as the context of a ``with``: a
  bare ``span(...)``, a call to a helper that returns an open span
  outside a ``with``, and manual ``record_span`` / ``adopt_span`` outside
  ``repro.obs`` all leave the per-thread span stack unbalanced.
- ``worker-state-mutation`` -- a static race detector for the fork pool:
  nothing reachable from ``_run_task_timed``/``_run_chunk`` may write a
  module-level global or mutate a fork-shared world object, except the
  sanctioned registry sites (``_SHARED``/``_HERMETIC`` in
  ``repro.exec.tasks``) and the telemetry capsule machinery under
  ``repro.obs``.  Such writes are invisible to the parent on fork-exec
  platforms and racy on fork, so results would silently depend on the
  worker schedule.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import Finding, Rule
from repro.lint.graph import FunctionFacts, ModuleSummary, Program

__all__ = [
    "PickleSafetyRule",
    "RngTaintRule",
    "SpanBalanceRule",
    "WallClockRule",
    "WorkerStateMutationRule",
]


def _in_obs(module: str) -> bool:
    return module == "repro.obs" or module.startswith("repro.obs.")


def _display(summary: ModuleSummary, facts: FunctionFacts) -> str:
    return f"{summary.module}:{facts.name}"


class RngTaintRule(Rule):
    """Every random draw descends from a plumbed seed."""

    id = "rng-taint"
    summary = (
        "no global-state np.random.*/random.* draws or unseeded RNG "
        "constructors anywhere; RNG on an EvalTask.run-reachable path must "
        "be seeded from a plumbed seed (parameter, derive_seed, or derived "
        "value)"
    )
    needs_program = True

    def check_program(self, program: Program) -> Iterable[Finding]:
        roots: List[str] = []
        for class_id in program.task_classes():
            roots.extend(program.lookup_method(class_id, "run"))
        parents = program.reachable(roots)
        # Scopes are walked per file, so match them to linked functions
        # by identity: module bodies are not linked, and two files can
        # share a module name.
        on_task_path = {
            id(program.functions[fn_id].facts): fn_id for fn_id in parents
        }
        for summary, facts in program.scopes():
            for draw in facts.rng_globals:
                yield Finding(
                    path=summary.path,
                    line=draw["line"],
                    column=draw["col"],
                    rule=self.id,
                    message=(
                        f"{draw['name']}() uses the process-global RNG "
                        "stream; draw from an explicitly seeded "
                        "np.random.Generator instead"
                    ),
                    symbol=draw["name"],
                    extra_lines=tuple(draw["window"]),
                )
            fn_id = on_task_path.get(id(facts))
            for site in facts.rng_sites:
                if site["seeded"] and (site["tainted"] or fn_id is None):
                    continue
                ctor = site["ctor"]
                if site["seeded"]:
                    problem = "is seeded from a value not derived from a plumbed seed source"
                    symbol = f"{_display(summary, facts)}:{ctor}"
                else:
                    problem = "has no seed, so it draws from OS entropy"
                    symbol = ctor
                where = ""
                if fn_id is not None:
                    chain = " <- ".join(reversed(program.chain(parents, fn_id)))
                    where = f" on a task-reachable path ({chain})"
                yield Finding(
                    path=summary.path,
                    line=site["line"],
                    column=site["col"],
                    rule=self.id,
                    message=(
                        f"`{ctor}(...)`{where} {problem}; replay requires "
                        "every draw to derive from the plumbed root seed"
                    ),
                    symbol=symbol,
                    extra_lines=tuple(site["window"]),
                )


#: Module-global names the worker is *meant* to touch: the fork-shared
#: context registry and the hermetic-scheme toggle.
_SANCTIONED_GLOBALS: Set[Tuple[str, str]] = {
    ("repro.exec.tasks", "_SHARED"),
    ("repro.exec.tasks", "_HERMETIC"),
}


class WorkerStateMutationRule(Rule):
    """Static race detector for the process-pool worker closure."""

    id = "worker-state-mutation"
    summary = (
        "functions reachable from the pool workers must not write module "
        "globals or fork-shared world state outside sanctioned sites"
    )
    needs_program = True

    _ROOTS = ("_run_task_timed", "_run_chunk")

    def _sanctioned(self, module: str, name: str) -> bool:
        base = name.split(".")[0]
        if (module, base) in _SANCTIONED_GLOBALS:
            return True
        # Writes routed through the telemetry layer (capsule merge,
        # registry emit) are the sanctioned sink for worker-side state.
        if name.startswith("repro.obs.") or base.startswith("repro.obs"):
            return True
        if name.split(".")[0] in {
            dotted.split(".")[0]
            for mod, dotted in _SANCTIONED_GLOBALS
            if mod == module
        }:
            return True
        return False

    def check_program(self, program: Program) -> Iterable[Finding]:
        roots: List[str] = []
        for name in self._ROOTS:
            roots.extend(program.find_functions(name))
        parents = program.reachable(roots)
        for fn_id in sorted(parents):
            node = program.functions[fn_id]
            if _in_obs(node.module):
                continue
            chain = " <- ".join(reversed(program.chain(parents, fn_id)))
            for write in node.facts.global_writes:
                if self._sanctioned(node.module, write["name"]):
                    continue
                yield Finding(
                    path=node.path,
                    line=write["line"],
                    column=write["col"],
                    rule=self.id,
                    message=(
                        f"write to module-level `{write['name']}` on a "
                        f"worker-reachable path ({chain}); worker-side "
                        "global mutations are lost on fork-exec and race "
                        "under fork"
                    ),
                    symbol=f"{node.display}:{write['name']}",
                )
            for write in node.facts.shared_writes:
                yield Finding(
                    path=node.path,
                    line=write["line"],
                    column=write["col"],
                    rule=self.id,
                    message=(
                        f"mutation of fork-shared object `{write['name']}` "
                        f"on a worker-reachable path ({chain}); shared world "
                        "state must stay read-only inside workers"
                    ),
                    symbol=f"{node.display}:{write['name']}",
                )


#: Annotation names that always pickle (builtins, typing containers).
_PICKLABLE_NAMES: Set[str] = {
    "int", "float", "str", "bytes", "bool", "complex", "None",
    "tuple", "list", "dict", "set", "frozenset", "type",
    "Tuple", "List", "Dict", "Set", "FrozenSet", "Optional", "Union",
    "Sequence", "Mapping", "Iterable", "Literal", "ClassVar",
}

#: Annotation names that defeat the static pickle check outright.
_OPAQUE_NAMES: Set[str] = {"object", "Any", "Callable", "callable"}


class PickleSafetyRule(Rule):
    """Everything crossing the pool boundary pickles."""

    id = "pickle-safety"
    summary = (
        "no lambdas, closures, or locally-defined classes in EvalTask "
        "fields or pool .map payloads, and EvalTask field annotations must "
        "transitively resolve to module-level picklable definitions"
    )
    needs_program = True

    _DEPTH_CAP = 4

    def check_program(self, program: Program) -> Iterable[Finding]:
        for summary, facts in program.scopes():
            local_defs = set(summary.local_defs)
            for payload in facts.payloads:
                receiver = payload["receiver"]
                if receiver is not None and receiver not in summary.pool_names:
                    continue
                for arg in payload["args"]:
                    bad = next(
                        (
                            what
                            for what, name in arg["candidates"]
                            if name is None or name in local_defs
                        ),
                        None,
                    )
                    if bad is None:
                        continue
                    yield Finding(
                        path=summary.path,
                        line=arg["line"],
                        column=arg["col"],
                        rule=self.id,
                        message=(
                            f"{bad} passed into {payload['sink']} will not "
                            "pickle across the process boundary; use a "
                            "module-level function or a frozen dataclass "
                            "field instead"
                        ),
                        symbol=f"{payload['sink']}:{bad}",
                        extra_lines=tuple(payload["window"]),
                    )
        yield from self._field_findings(program)

    def _field_findings(self, program: Program) -> Iterable[Finding]:
        for class_id in program.task_classes():
            module = program.class_module(class_id)
            summary = program.modules[module]
            cfacts = program.classes[class_id]
            for field_name, info in sorted(cfacts.fields.items()):
                for problem in self._vet(
                    program, module, info["annotation"], set(), 0
                ):
                    yield Finding(
                        path=summary.path,
                        line=info["line"],
                        column=0,
                        rule=self.id,
                        message=(
                            f"field `{cfacts.name}.{field_name}: "
                            f"{info['annotation']}` crosses the pool "
                            f"boundary but {problem}"
                        ),
                        symbol=f"{cfacts.name}.{field_name}",
                    )

    def _vet(
        self,
        program: Program,
        module: str,
        annotation: str,
        seen: Set[str],
        depth: int,
    ) -> List[str]:
        """Problem descriptions for one annotation string."""
        try:
            tree = ast.parse(annotation, mode="eval")
        except SyntaxError:
            return [f"annotation `{annotation}` is not parseable"]
        problems: List[str] = []
        for name, dotted in self._terminal_names(tree.body, program, module):
            problems.extend(
                self._vet_name(program, module, name, dotted, seen, depth)
            )
        return problems

    def _terminal_names(self, node: ast.AST, program: Program, module: str):
        """(simple_name, resolved_dotted|None) for each type name used."""
        out: List[Tuple[str, Optional[str]]] = []
        imports = program.modules[module].imports

        def visit(expr: ast.AST) -> None:
            if isinstance(expr, ast.Subscript):
                visit(expr.value)
                visit(expr.slice)
            elif isinstance(expr, ast.Tuple):
                for element in expr.elts:
                    visit(element)
            elif isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
                visit(expr.left)
                visit(expr.right)
            elif isinstance(expr, ast.Constant):
                if isinstance(expr.value, str):
                    try:
                        visit(ast.parse(expr.value, mode="eval").body)
                    except SyntaxError:
                        pass
            elif isinstance(expr, ast.Attribute):
                chain: List[str] = []
                inner: ast.AST = expr
                while isinstance(inner, ast.Attribute):
                    chain.append(inner.attr)
                    inner = inner.value
                if isinstance(inner, ast.Name):
                    base = imports.get(inner.id, inner.id)
                    dotted = ".".join([base] + list(reversed(chain)))
                    out.append((expr.attr, dotted))
            elif isinstance(expr, ast.Name):
                out.append((expr.id, imports.get(expr.id)))

        visit(node)
        return out

    def _vet_name(
        self,
        program: Program,
        module: str,
        name: str,
        dotted: Optional[str],
        seen: Set[str],
        depth: int,
    ) -> List[str]:
        if name in _OPAQUE_NAMES:
            return [
                f"`{name}` gives the pool boundary no picklable shape -- "
                "annotate the concrete (module-level) type"
            ]
        if name in _PICKLABLE_NAMES or name == "...":
            return []
        if dotted is not None and (
            dotted.startswith("numpy.") or dotted == "numpy"
        ):
            return []  # numpy scalars/arrays pickle fine
        if dotted is not None and dotted.startswith("typing."):
            tail = dotted.rsplit(".", 1)[-1]
            if tail in _OPAQUE_NAMES:
                return [
                    f"`{tail}` gives the pool boundary no picklable shape"
                ]
            return []
        # A project class?  (Local, imported, or unique by simple name.)
        class_id = None
        if dotted is not None:
            class_id = program.resolve_class_spec(["dotted", dotted], module)
        if class_id is None:
            class_id = program.resolve_class_spec(["local", name], module)
        if class_id is None:
            return [
                f"`{name}` does not resolve to a module-level definition "
                "visible to the analyzer"
            ]
        if class_id in seen or depth >= self._DEPTH_CAP:
            return []
        seen.add(class_id)
        cfacts = program.classes[class_id]
        problems: List[str] = []
        if cfacts.is_dataclass:
            inner_module = program.class_module(class_id)
            for info in cfacts.fields.values():
                problems.extend(
                    self._vet(
                        program, inner_module, info["annotation"], seen,
                        depth + 1,
                    )
                )
        return problems


class WallClockRule(Rule):
    """No absolute time outside sanctioned sites, none in fingerprints."""

    id = "wall-clock"
    summary = (
        "no time.time()/datetime.now() outside pragma'd sites, and no "
        "derive_seed/stable_fingerprint/canonical_bytes input that reaches "
        "a wall-clock read through any call chain"
    )
    needs_program = True

    def check_program(self, program: Program) -> Iterable[Finding]:
        for summary, facts in program.scopes():
            for clock in facts.wallclock:
                yield Finding(
                    path=summary.path,
                    line=clock["line"],
                    column=clock["col"],
                    rule=self.id,
                    message=(
                        f"{clock['name']}() reads the wall clock; use "
                        "perf_counter for durations, or pragma this line "
                        "if it is a sanctioned timestamp source"
                    ),
                    symbol=clock["name"],
                )
            for feed in facts.hash_feeds:
                finding = self._first_dirty(program, summary, facts, feed)
                if finding is not None:
                    yield finding

    def _first_dirty(
        self,
        program: Program,
        summary: ModuleSummary,
        facts: FunctionFacts,
        feed: Dict,
    ) -> Optional[Finding]:
        roots: List[str] = []
        for target in feed["targets"]:
            roots.extend(program.resolve_spec(target, summary.module))
        parents = program.reachable(roots)
        for fn_id in sorted(parents):
            callee = program.functions[fn_id]
            if not callee.facts.wallclock:
                continue
            clock = callee.facts.wallclock[0]
            chain = " -> ".join(program.chain(parents, fn_id))
            return Finding(
                path=summary.path,
                line=feed["line"],
                column=feed["col"],
                rule=self.id,
                message=(
                    f"`{feed['api']}(...)` input calls {chain}, which "
                    f"reads `{clock['name']}` at {callee.path}:"
                    f"{clock['line']}; fingerprints and derived seeds "
                    "must be wall-clock independent"
                ),
                symbol=f"{_display(summary, facts)}:{feed['api']}",
            )
        return None


class SpanBalanceRule(Rule):
    """Spans open only as the context of a ``with`` block."""

    id = "span-balance"
    summary = (
        "spans open only via 'with span(...)': a bare span() call, an "
        "un-entered span returned by a helper, or manual record_span/"
        "adopt_span outside repro.obs unbalances the per-thread span stack"
    )
    needs_program = True

    def check_program(self, program: Program) -> Iterable[Finding]:
        returning = self._span_returning(program)
        wrappers = {id(program.functions[fn_id].facts) for fn_id in returning}
        for summary, facts in program.scopes():
            for site in facts.span_sites:
                if site["name"] == "span":
                    message = (
                        "span(...) must be the context of a 'with' "
                        "statement; a bare call never closes and corrupts "
                        "the span stack"
                    )
                elif "/obs/" not in summary.path:
                    message = (
                        f"manual {site['name']}() outside repro.obs "
                        "bypasses the span context manager; open spans "
                        "with 'with span(...)'"
                    )
                else:
                    continue
                yield Finding(
                    path=summary.path,
                    line=site["line"],
                    column=site["col"],
                    rule=self.id,
                    message=message,
                    symbol=site["name"],
                )
            # Wrappers pass the open span through; their callers are the
            # ones on the hook.
            if _in_obs(summary.module) or id(facts) in wrappers:
                continue
            for call in facts.calls:
                if call.in_with:
                    continue
                targets = program.resolve_spec(call.target, summary.module)
                if not targets or not all(t in returning for t in targets):
                    continue
                callee = program.functions[targets[0]].display
                yield Finding(
                    path=summary.path,
                    line=call.line,
                    column=call.col,
                    rule=self.id,
                    message=(
                        f"`{callee}` returns an open span context but the "
                        "call site does not enter it with `with`; the span "
                        "never closes and telemetry nesting breaks"
                    ),
                    symbol=f"{_display(summary, facts)}:{callee}",
                )

    @staticmethod
    def _span_returning(program: Program) -> Set[str]:
        returning = {
            fn_id
            for fn_id, node in program.functions.items()
            if node.facts.returns_span
        }
        changed = True
        while changed:
            changed = False
            for fn_id, node in program.functions.items():
                if fn_id in returning:
                    continue
                for spec in node.facts.return_targets:
                    resolved = program.resolve_spec(spec, node.module)
                    if resolved and any(t in returning for t in resolved):
                        returning.add(fn_id)
                        changed = True
                        break
        return returning

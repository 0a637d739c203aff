"""Per-module facts and the project-wide call graph behind every lint rule.

The determinism and telemetry contracts are *interprocedural*: a helper
three calls below ``EvalTask.run`` that seeds a generator from a
constant breaks replay just as surely as one in the task itself, and a
function reachable from a pool worker that mutates fork-shared state
races no matter which file it lives in.  Yet most violations are also
plain local facts -- an unseeded constructor is wrong wherever it sits.
This module collects both kinds in one walk per module, for the rules in
:mod:`repro.lint.flow`:

- :func:`extract_summary` distils one parsed module into a
  :class:`ModuleSummary`: its functions and classes, every call site
  (with a symbolic target), RNG constructions with seed-taint verdicts
  and process-global RNG draws, module-global and fork-shared writes,
  wall-clock reads, hashing-API feeds, span facts, and the payloads
  handed to task constructors and pool ``.map`` calls.  Module-scope
  code -- top-level statements, class bodies, decorators, defaults --
  is summarized as one more scope (:attr:`ModuleSummary.body`), so the
  facts cover every call in the file.
- :class:`Program` links summaries into a project: imports (including
  package re-exports) are resolved, methods are bound through parameter
  and attribute type hints plus constructor assignments, calls through a
  base-typed receiver conservatively fan out to every subclass override,
  and receiver-less dynamic dispatch falls back to binding only when the
  method name is unique project-wide.
- :meth:`Program.reachable` answers the closure queries the rules are
  built on, keeping parent links so findings can show the call chain
  from the root to the violation.

The symbolic call-target encoding (``["dotted", ...]`` / ``["local",
...]`` / ``["self", ...]`` / ``["attr", ...]`` / ``["dyn", ...]``) keeps
extraction local: a summary never needs another module.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.core import ModuleSource, expr_window

__all__ = [
    "CallFact",
    "ClassFacts",
    "FunctionFacts",
    "HASHING_TAILS",
    "ModuleSummary",
    "Program",
    "build_program",
    "extract_summary",
    "is_span_call",
    "module_name_for",
]

#: RNG constructors: called with no seed they draw from OS entropy.
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "random.Random",
}

#: ``numpy.random`` attributes that build generators rather than draw
#: from the process-global stream (``np.random.normal``, ``.seed``, ...).
_NUMPY_RNG_TYPES = {
    "default_rng",
    "Generator",
    "RandomState",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Canonical names of the fingerprint/seed-derivation API.
_HASHING_APIS = {
    "repro.exec.hashing.derive_seed",
    "repro.exec.hashing.stable_fingerprint",
    "repro.exec.hashing.canonical_bytes",
}
HASHING_TAILS = {"derive_seed", "stable_fingerprint", "canonical_bytes"}

#: Absolute-time reads.  ``time.perf_counter`` stays legal: durations are
#: telemetry, never inputs.
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Canonical paths of the span context manager.
_SPAN_FUNCS = {"repro.obs.span", "repro.obs.spans.span"}

#: Span-stack plumbing that only ``repro/obs`` itself may call.
_SPAN_INTERNALS = {"record_span", "adopt_span"}

#: Parameter/attribute names that count as a plumbed seed.
_SEED_NAMES = {"rng", "seed", "seeds", "random_state", "generator"}
_SEED_SUFFIXES = ("_rng", "_seed", "_seed_root", "_generator")
_SEED_PREFIXES = ("rng_", "seed_")

#: Constructors whose arguments are pickled into pool workers.
_TASK_CTOR = re.compile(r"^[A-Z]\w*Task$")

#: Receiver names whose ``.map(...)`` dispatches across processes.
_POOL_RECEIVERS = {"evaluator", "pool", "executor"}

#: Constructors whose instances dispatch across processes; a name
#: assigned from one of these makes that name a pool receiver too.
_POOL_TYPES = {"ParallelEvaluator", "ProcessPoolExecutor", "Pool"}

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def seedlike(name: str) -> bool:
    """Whether ``name`` spells a plumbed seed/generator."""
    return (
        name in _SEED_NAMES
        or name.endswith(_SEED_SUFFIXES)
        or name.startswith(_SEED_PREFIXES)
    )


def is_span_call(call: ast.Call, resolved: Optional[str]) -> bool:
    """Whether ``call`` (resolving to ``resolved``) opens a span.

    A bare ``span(...)`` whose name no import explains counts too: it is
    the span context manager under its conventional name.
    """
    if isinstance(call.func, ast.Name) and call.func.id == "span":
        return resolved is None or resolved in _SPAN_FUNCS
    return resolved in _SPAN_FUNCS


def _global_rng_draw(resolved: str) -> bool:
    """Whether ``resolved`` names a process-global RNG function."""
    for prefix, builders in (
        ("numpy.random.", _NUMPY_RNG_TYPES),
        ("random.", {"Random"}),
    ):
        if resolved.startswith(prefix):
            tail = resolved[len(prefix):]
            return "." not in tail and tail not in builders
    return False


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, by climbing ``__init__.py`` chains.

    ``src/repro/exec/tasks.py`` maps to ``repro.exec.tasks`` because
    ``repro/`` and ``repro/exec/`` are packages while ``src/`` is not.
    Files outside any package keep their stem, which is what the
    single-file test fixtures rely on.
    """
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


# --------------------------------------------------------------------- #
# Summary dataclasses
# --------------------------------------------------------------------- #


@dataclass
class CallFact:
    """One call site with a link-time-resolvable symbolic target."""

    line: int
    col: int
    #: ``["dotted", name]`` / ``["local", name]`` / ``["self", cls, m]``
    #: / ``["attr", typespec, m]`` / ``["dyn", m]``.
    target: List
    in_with: bool = False


@dataclass
class FunctionFacts:
    """Everything the rules need to know about one scope.

    A scope is a function (``name`` is its qualname, ``"f"`` or
    ``"Cls.f"``) or a module's top-level code (``name`` ``"<module>"``).
    Facts inside nested defs belong to the enclosing scope.  Site lists
    hold ``line``/``col``; ``window`` is the continuation lines of a
    multiline call, where a suppression pragma also counts.
    """

    name: str
    line: int
    calls: List[CallFact] = field(default_factory=list)
    #: ``{line, col, ctor, seeded, tainted, window}`` per RNG-constructor
    #: call.
    rng_sites: List[Dict] = field(default_factory=list)
    #: ``{name, line, col, window}`` per process-global RNG call
    #: (``np.random.normal``, ``random.random``, ...).
    rng_globals: List[Dict] = field(default_factory=list)
    #: ``{name, line, col, kind}`` with kind ``global`` | ``module-attr``.
    global_writes: List[Dict] = field(default_factory=list)
    #: ``{name, line, col}`` -- attr/subscript stores on ``get_shared_*``
    #: results (fork-shared world objects).
    shared_writes: List[Dict] = field(default_factory=list)
    #: ``{name, line, col}`` wall-clock reads.
    wallclock: List[Dict] = field(default_factory=list)
    #: ``{line, col, api, targets}`` -- hashing-API calls and the
    #: symbolic targets of calls nested in their argument expressions.
    hash_feeds: List[Dict] = field(default_factory=list)
    #: ``{name, line, col}`` -- ``span(...)`` opened outside a ``with``
    #: (name ``span``) and ``record_span``/``adopt_span`` calls.
    span_sites: List[Dict] = field(default_factory=list)
    #: ``{sink, receiver, args, window}`` per ``*Task(...)`` / ``.map(...)``
    #: call: ``receiver`` is the name a ``.map`` is called on (None for
    #: other sinks), ``args`` holds ``{line, col, candidates}`` per
    #: argument that may not pickle (see :func:`_payload_candidates`).
    payloads: List[Dict] = field(default_factory=list)
    #: Returns a raw span record (``return span(...)`` or a variable
    #: holding one).
    returns_span: bool = False
    #: Symbolic targets whose return value this function returns --
    #: span escapes propagate through these.
    return_targets: List[List] = field(default_factory=list)


@dataclass
class ClassFacts:
    """One top-level class: bases, annotated fields, methods."""

    name: str
    line: int
    #: Base-class specs: ``["local", name]`` or ``["dotted", name]``.
    bases: List[List] = field(default_factory=list)
    #: ``{field: {"annotation": source, "line": n}}`` from class-body
    #: ``AnnAssign`` (dataclass fields cross the pool boundary).
    fields: Dict[str, Dict] = field(default_factory=dict)
    #: ``{attr: typespec}`` from class-level hints and ``self.x = Ctor()``
    #: constructor assignments -- how ``self.x.m()`` binds.
    attr_types: Dict[str, List] = field(default_factory=dict)
    methods: Dict[str, FunctionFacts] = field(default_factory=dict)
    is_dataclass: bool = False


@dataclass
class ModuleSummary:
    """The whole-module analysis record."""

    path: str
    module: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    #: Module-scope code: top-level statements, class bodies outside
    #: methods, and the decorators and defaults of every def.
    body: FunctionFacts = field(
        default_factory=lambda: FunctionFacts("<module>", 1)
    )
    #: Names of functions/classes defined *inside* functions (pickle
    #: hazards when referenced from task payloads).
    local_defs: List[str] = field(default_factory=list)
    #: Names whose ``.map(...)`` dispatches across processes: the
    #: conventional receivers plus names bound to a pool constructor.
    pool_names: List[str] = field(default_factory=list)

    def scopes(self) -> Iterator[FunctionFacts]:
        """The module scope, then every function and method."""
        yield self.body
        yield from self.functions.values()
        for cfacts in self.classes.values():
            yield from cfacts.methods.values()


# --------------------------------------------------------------------- #
# Extraction
# --------------------------------------------------------------------- #


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``["base", "a", "b"]`` for a ``base.a.b`` chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _terminal_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _annotation_spec(
    node: Optional[ast.AST], module: ModuleSource
) -> Optional[List]:
    """A symbolic type spec for an annotation expression, if simple."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # Quoted forward reference: parse the string and recurse.
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        # Optional[T] / "T | None" carry the payload type in the slice;
        # for containers the element type does not drive dispatch.
        value = _attr_chain(node.value)
        if value and value[-1] == "Optional":
            return _annotation_spec(node.slice, module)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            spec = _annotation_spec(side, module)
            if spec is not None:
                return spec
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        resolved = module.imports.resolve(node)
        if resolved is not None:
            return ["dotted", resolved]
        if isinstance(node, ast.Name):
            return ["local", node.id]
    return None


def _payload_candidates(value: ast.AST, in_container: bool = False) -> List[List]:
    """``[description, name]`` for each part of ``value`` that may not pickle.

    A lambda (``name`` None) never pickles; a bare name fails only when
    it names a locally-defined function or class, which the rule decides
    against :attr:`ModuleSummary.local_defs`.  ``functools.partial``
    pickles by reference to what it wraps, and a list/tuple/set of
    callables is a payload too.  Candidates come in source order; the
    first bad one is reported.
    """
    if isinstance(value, ast.Lambda):
        return [["a lambda", None]]
    if isinstance(value, ast.Name):
        return [[f"locally-defined '{value.id}'", value.id]]
    if not in_container and isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        return [
            candidate
            for element in value.elts
            for candidate in _payload_candidates(element, in_container=True)
        ]
    if isinstance(value, ast.Call) and _terminal_name(value.func) == "partial":
        out: List[List] = []
        for arg in list(value.args) + [kw.value for kw in value.keywords]:
            if isinstance(arg, ast.Lambda):
                out.append(["a functools.partial wrapping a lambda", None])
            elif isinstance(arg, ast.Name):
                out.append([
                    f"a functools.partial wrapping locally-defined '{arg.id}'",
                    arg.id,
                ])
        return out
    return []


@dataclass
class _ModuleState:
    """Module-wide sets that every scope extractor reads or extends."""

    #: Names bound at module scope.
    names: Set[str]
    local_defs: Set[str] = field(default_factory=set)
    pool_names: Set[str] = field(default_factory=lambda: set(_POOL_RECEIVERS))


class _ScopeExtractor:
    """Distils one scope's code into its :class:`FunctionFacts`."""

    def __init__(
        self,
        facts: FunctionFacts,
        body: Sequence[ast.AST],
        args: Optional[ast.arguments],
        module: ModuleSource,
        class_name: Optional[str],
        state: _ModuleState,
    ) -> None:
        self.facts = facts
        self.body = body
        self.module = module
        self.class_name = class_name
        self.state = state
        #: Function scopes make every def they contain a local def.
        self.in_function = args is not None
        params: List[str] = []
        self.var_types: Dict[str, List] = {}
        if args is not None:
            declared = args.posonlyargs + args.args + args.kwonlyargs
            params = [a.arg for a in declared] + [
                a.arg for a in (args.vararg, args.kwarg) if a is not None
            ]
            for a in declared:
                spec = _annotation_spec(a.annotation, module)
                if spec is not None:
                    self.var_types[a.arg] = spec
        self.shared_vars: Set[str] = set()
        self.locals: Set[str] = set(params)
        self.tainted: Set[str] = {p for p in params if seedlike(p)}
        self.globals_declared: Set[str] = set()
        self.with_ctx: Set[int] = set()
        self.returned_names: Set[str] = set()

    # -- helpers ------------------------------------------------------- #

    def target_spec(self, func: ast.AST) -> List:
        """The symbolic call target for a callee expression."""
        if isinstance(func, ast.Name):
            resolved = self.module.imports.names.get(func.id)
            if resolved is not None:
                return ["dotted", resolved]
            return ["local", func.id]
        if isinstance(func, ast.Attribute):
            resolved = self.module.imports.resolve(func)
            if resolved is not None:
                return ["dotted", resolved]
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and self.class_name is not None:
                    return ["self", self.class_name, func.attr]
                spec = self.var_types.get(base.id)
                if spec is not None:
                    return ["attr", spec, func.attr]
            return ["dyn", func.attr]
        return ["dyn", ""]

    def _expr_tainted(self, node: ast.AST) -> bool:
        """Whether a seed-ish source appears anywhere in ``node``."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.tainted or seedlike(sub.id):
                    return True
            elif isinstance(sub, ast.Attribute) and seedlike(sub.attr):
                return True
            elif isinstance(sub, ast.Call):
                resolved = self.module.imports.resolve_call(sub)
                if resolved is not None and (
                    resolved in _HASHING_APIS
                    or resolved.rsplit(".", 1)[-1] in HASHING_TAILS
                ):
                    return True
        return False

    def _is_store_on_module_name(self, target: ast.AST) -> Optional[Tuple[str, str]]:
        """(name, kind) when ``target`` writes through a module-level name."""
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        name = node.id
        if node is target:
            # Plain ``name = ...`` only writes a module global under a
            # ``global`` declaration; otherwise it creates a local.
            if name in self.globals_declared:
                return name, "global"
            return None
        if name in self.shared_vars:
            return None  # reported as a shared write, not a global one
        if name in self.locals and name not in self.globals_declared:
            return None
        if name in self.globals_declared or name in self.state.names:
            return name, "module-attr"
        resolved = self.module.imports.names.get(name)
        if resolved is not None:
            chain = _attr_chain(target if isinstance(target, ast.Attribute) else node)
            dotted = ".".join([resolved] + (chain[1:] if chain else []))
            return dotted, "module-attr"
        return None

    # -- the walk ------------------------------------------------------ #

    def run(self) -> FunctionFacts:
        self._prescan()
        for stmt in self.body:
            self._visit_stmt(stmt)
        return self.facts

    def _bound_names(self, target: ast.AST, out: Set[str]) -> None:
        """Names *bound* by an assignment target -- not names merely
        written through (``cache[k] = v`` does not bind ``cache``)."""
        if isinstance(target, ast.Name):
            out.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bound_names(element, out)
        elif isinstance(target, ast.Starred):
            self._bound_names(target.value, out)

    def _prescan(self) -> None:
        """Collect locals, ``global`` decls, ``with`` contexts and
        returned names first."""
        for stmt in self.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Global):
                    self.globals_declared.update(sub.names)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        self._bound_names(target, self.locals)
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(sub.target, ast.Name):
                        self.locals.add(sub.target.id)
                elif isinstance(sub, (ast.For, ast.AsyncFor)):
                    self._bound_names(sub.target, self.locals)
                elif isinstance(sub, ast.withitem):
                    self.with_ctx.add(id(sub.context_expr))
                    if sub.optional_vars is not None:
                        self._bound_names(sub.optional_vars, self.locals)
                elif isinstance(sub, ast.Return) and isinstance(sub.value, ast.Name):
                    self.returned_names.add(sub.value.id)

    def _visit_stmt(self, stmt: ast.AST) -> None:
        # One BFS walk per top-level statement handles arbitrarily nested
        # assignments, loops, and comprehensions in near-source order, so
        # taint introduced by an outer node is visible to inner calls.
        # Facts inside nested defs are attributed to this scope: the
        # nested callee is invisible to the linker, and attributing its
        # body here over-approximates reachability (the safe direction).
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                self._note_assign(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None:
                    self._note_assign([node.target], node.value)
                spec = _annotation_spec(node.annotation, self.module)
                if spec is not None and isinstance(node.target, ast.Name):
                    self.var_types[node.target.id] = spec
            elif isinstance(node, ast.AugAssign):
                self._note_store(node.target)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._note_return(node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._note_loop_taint(node.target, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                # Taint the comprehension variables when the *outer* node
                # is seen: ast.walk is breadth-first, so the element
                # expression would otherwise be visited before its
                # generators.
                for gen in node.generators:
                    self._note_loop_taint(gen.target, gen.iter)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                self._note_pool_binding([node.optional_vars], node.context_expr)
            elif isinstance(node, _DEFS):
                self._note_def(node)
            elif isinstance(node, ast.Call):
                self._note_call(node)

    def _note_def(self, node: ast.AST) -> None:
        if self.in_function:
            self.state.local_defs.add(node.name)
        elif isinstance(node, _FUNCTION_DEFS):
            # A def reached at module scope (under an ``if``, or a method
            # of a nested class) is module-level itself; only what it
            # defines is local.
            self.state.local_defs.update(
                child.name
                for child in ast.walk(node)
                if child is not node and isinstance(child, _DEFS)
            )

    def _note_pool_binding(self, targets: List[ast.AST], value: ast.AST) -> None:
        if isinstance(value, ast.Call) and _terminal_name(value.func) in _POOL_TYPES:
            self.state.pool_names.update(
                target.id for target in targets if isinstance(target, ast.Name)
            )

    def _note_loop_taint(self, target: ast.AST, source: ast.AST) -> None:
        """Iterating a tainted source taints the loop variables."""
        if not self._expr_tainted(source):
            return
        for name_node in ast.walk(target):
            if isinstance(name_node, ast.Name):
                self.tainted.add(name_node.id)

    def _note_assign(self, targets: List[ast.AST], value: ast.AST) -> None:
        for target in targets:
            self._note_store(target)
        if not isinstance(value, ast.Call):
            if self._expr_tainted(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.tainted.add(target.id)
            return
        self._note_pool_binding(targets, value)
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and targets[0].id in self.returned_names
            and is_span_call(value, self.module.imports.resolve_call(value))
        ):
            # ``rec = span(...); return rec`` escapes just like a direct
            # ``return span(...)``.
            self.facts.returns_span = True
        spec = self.target_spec(value.func)
        terminal = spec[-1] if spec and isinstance(spec[-1], str) else ""
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if terminal.rsplit(".", 1)[-1].startswith("get_shared_"):
                self.shared_vars.add(target.id)
            elif spec[0] in ("dotted", "local"):
                # ``v = Ctor(...)`` pins v's type for method binding.
                tail = terminal.rsplit(".", 1)[-1]
                if tail[:1].isupper():
                    self.var_types[target.id] = spec
            if self._expr_tainted(value):
                self.tainted.add(target.id)

    def _note_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_store(element)
            return
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name) and node.id in self.shared_vars and node is not target:
            self.facts.shared_writes.append({
                "name": node.id, "line": target.lineno, "col": target.col_offset,
            })
            return
        hit = self._is_store_on_module_name(target)
        if hit is not None:
            name, kind = hit
            self.facts.global_writes.append({
                "name": name, "line": target.lineno,
                "col": target.col_offset, "kind": kind,
            })

    def _note_return(self, value: ast.AST) -> None:
        # ``rec = span(...); return rec`` is handled in _note_assign.
        if isinstance(value, ast.Call):
            if is_span_call(value, self.module.imports.resolve_call(value)):
                self.facts.returns_span = True
            else:
                self.facts.return_targets.append(self.target_spec(value.func))

    def _note_call(self, call: ast.Call) -> None:
        resolved = self.module.imports.resolve_call(call)
        in_with = id(call) in self.with_ctx
        self.facts.calls.append(CallFact(
            line=call.lineno, col=call.col_offset,
            target=self.target_spec(call.func), in_with=in_with,
        ))
        site = {"line": call.lineno, "col": call.col_offset}
        if is_span_call(call, resolved):
            if not in_with:
                self.facts.span_sites.append({"name": "span", **site})
        elif isinstance(call.func, ast.Attribute) and call.func.attr in _SPAN_INTERNALS:
            self.facts.span_sites.append({"name": call.func.attr, **site})
        self._note_payload(call)
        if resolved is None:
            return
        if resolved in _RNG_CONSTRUCTORS:
            seeded = bool(call.args or call.keywords)
            tainted = seeded and any(
                self._expr_tainted(a)
                for a in list(call.args) + [k.value for k in call.keywords]
            )
            self.facts.rng_sites.append({
                **site, "ctor": resolved, "seeded": seeded,
                "tainted": tainted, "window": list(expr_window(call)),
            })
        elif _global_rng_draw(resolved):
            self.facts.rng_globals.append({
                "name": resolved, **site, "window": list(expr_window(call)),
            })
        if resolved in _WALLCLOCK:
            self.facts.wallclock.append({"name": resolved, **site})
        if (
            resolved in _HASHING_APIS
            or (
                resolved.startswith("repro.")
                and resolved.rsplit(".", 1)[-1] in HASHING_TAILS
            )
        ):
            targets = [
                self.target_spec(sub.func)
                for arg in list(call.args) + [k.value for k in call.keywords]
                for sub in ast.walk(arg)
                if isinstance(sub, ast.Call)
            ]
            self.facts.hash_feeds.append({
                **site, "api": resolved.rsplit(".", 1)[-1], "targets": targets,
            })

    def _note_payload(self, call: ast.Call) -> None:
        """Record the arguments a task constructor or ``.map`` pickles."""
        name = _terminal_name(call.func)
        receiver = None
        if _TASK_CTOR.match(name) or name == "EvalTask":
            sink = f"{name}(...)"
        elif isinstance(call.func, ast.Attribute) and name == "map":
            base = call.func.value
            if isinstance(base, ast.Name):
                sink, receiver = f"{base.id}.map(...)", base.id
            elif isinstance(base, ast.Call) and _terminal_name(base.func) in _POOL_TYPES:
                sink = f"{_terminal_name(base.func)}().map(...)"
            else:
                return
        else:
            return
        args = []
        for value in list(call.args) + [kw.value for kw in call.keywords]:
            candidates = _payload_candidates(value)
            if candidates:
                args.append({
                    "line": value.lineno, "col": value.col_offset,
                    "candidates": candidates,
                })
        if args:
            self.facts.payloads.append({
                "sink": sink, "receiver": receiver, "args": args,
                # The pragma may sit anywhere on the call: its first
                # line, the flagged argument, or the closing paren.
                "window": [call.lineno, *expr_window(call)],
            })


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound at module scope (without descending into defs)."""
    names: Set[str] = set()

    def visit(body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, _DEFS):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            names.add(node.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    names.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(stmt, (ast.If, ast.Try)):
                visit(stmt.body)
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body)
                visit(stmt.orelse)
                visit(getattr(stmt, "finalbody", []))

    visit(tree.body)
    return names


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        chain = _attr_chain(target)
        if chain and chain[-1] == "dataclass":
            return True
    return False


def _header(node: ast.AST) -> List[ast.AST]:
    """What a ``def``/``class`` statement evaluates in the enclosing
    scope: decorators, defaults and annotations, or bases and keywords."""
    out: List[ast.AST] = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return out + node.bases + [kw.value for kw in node.keywords]
    args = node.args
    out += args.defaults + [d for d in args.kw_defaults if d is not None]
    for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
        if arg is not None and arg.annotation is not None:
            out.append(arg.annotation)
    if node.returns is not None:
        out.append(node.returns)
    return out


def extract_summary(module: ModuleSource) -> ModuleSummary:
    """The whole-module analysis record for one parsed file."""
    tree = module.tree
    state = _ModuleState(names=_module_level_names(tree))
    summary = ModuleSummary(
        path=module.path,
        module=module_name_for(Path(module.path)),
        imports=dict(module.imports.names),
    )

    def extract_function(
        node: ast.AST, qualname: str, class_name: Optional[str]
    ) -> FunctionFacts:
        return _ScopeExtractor(
            FunctionFacts(name=qualname, line=node.lineno),
            node.body, node.args, module, class_name, state,
        ).run()

    module_scope: List[ast.AST] = []
    for stmt in tree.body:
        if isinstance(stmt, _FUNCTION_DEFS):
            module_scope.extend(_header(stmt))
            summary.functions[stmt.name] = extract_function(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            module_scope.extend(_header(stmt))
            facts = ClassFacts(
                name=stmt.name,
                line=stmt.lineno,
                is_dataclass=_is_dataclass_decorated(stmt),
            )
            for base in stmt.bases:
                resolved = module.imports.resolve(base)
                if resolved is not None:
                    facts.bases.append(["dotted", resolved])
                elif isinstance(base, ast.Name):
                    facts.bases.append(["local", base.id])
            for item in stmt.body:
                if isinstance(item, _FUNCTION_DEFS):
                    module_scope.extend(_header(item))
                    qual = f"{stmt.name}.{item.name}"
                    facts.methods[item.name] = extract_function(
                        item, qual, stmt.name
                    )
                    if item.name == "__init__":
                        _collect_ctor_attr_types(item, module, facts)
                    continue
                module_scope.append(item)
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    facts.fields[item.target.id] = {
                        "annotation": ast.unparse(item.annotation),
                        "line": item.lineno,
                    }
                    spec = _annotation_spec(item.annotation, module)
                    if spec is not None:
                        facts.attr_types[item.target.id] = spec
            summary.classes[stmt.name] = facts
        else:
            module_scope.append(stmt)
    summary.body = _ScopeExtractor(
        FunctionFacts(name="<module>", line=1),
        module_scope, None, module, None, state,
    ).run()
    summary.local_defs = sorted(state.local_defs)
    summary.pool_names = sorted(state.pool_names)
    return summary


def _collect_ctor_attr_types(
    init: ast.AST, module: ModuleSource, facts: ClassFacts
) -> None:
    """``self.x = Ctor(...)`` assignments pin ``self.x``'s type."""
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
            continue
        resolved = module.imports.resolve_call(stmt.value)
        func = stmt.value.func
        spec: Optional[List] = None
        if resolved is not None and resolved.rsplit(".", 1)[-1][:1].isupper():
            spec = ["dotted", resolved]
        elif isinstance(func, ast.Name) and func.id[:1].isupper():
            spec = ["local", func.id]
        if spec is None:
            continue
        for target in stmt.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                facts.attr_types.setdefault(target.attr, spec)


# --------------------------------------------------------------------- #
# Linking
# --------------------------------------------------------------------- #


@dataclass
class FunctionNode:
    """One linked function: its facts plus resolved outgoing edges."""

    id: str  # "module:qualname"
    module: str
    path: str
    facts: FunctionFacts
    edges: List[str] = field(default_factory=list)

    @property
    def display(self) -> str:
        return f"{self.module}:{self.facts.name}"


class Program:
    """Linked whole-program view over a set of module summaries."""

    #: Re-export chasing depth cap (a.b -> a.b.c -> ...).
    _REEXPORT_DEPTH = 6

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self.by_path: Dict[str, ModuleSummary] = {
            s.path: s for s in summaries
        }
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassFacts] = {}  # "module:Cls"
        self._class_modules: Dict[str, str] = {}  # "module:Cls" -> module
        self._name_to_classes: Dict[str, List[str]] = {}
        self._name_to_functions: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, List[str]] = {}
        self._link()

    # -- construction -------------------------------------------------- #

    def _link(self) -> None:
        for summary in self.modules.values():
            for fname, facts in summary.functions.items():
                fid = f"{summary.module}:{fname}"
                self.functions[fid] = FunctionNode(
                    id=fid, module=summary.module, path=summary.path, facts=facts
                )
                self._name_to_functions.setdefault(fname, []).append(fid)
            for cname, cfacts in summary.classes.items():
                cid = f"{summary.module}:{cname}"
                self.classes[cid] = cfacts
                self._class_modules[cid] = summary.module
                self._name_to_classes.setdefault(cname, []).append(cid)
                for mname, mfacts in cfacts.methods.items():
                    fid = f"{summary.module}:{cname}.{mname}"
                    self.functions[fid] = FunctionNode(
                        id=fid, module=summary.module, path=summary.path,
                        facts=mfacts,
                    )
                    self._name_to_functions.setdefault(mname, []).append(fid)
        # Subclass map (transitive expansion happens in lookups).
        for cid, cfacts in sorted(self.classes.items()):
            for base in cfacts.bases:
                base_id = self.resolve_class_spec(
                    base, self._class_modules[cid]
                )
                if base_id is not None:
                    self._subclasses.setdefault(base_id, []).append(cid)
        # Resolve every call fact into edges.
        for node in self.functions.values():
            seen: Set[str] = set()
            for call in node.facts.calls:
                for fid in self.resolve_spec(call.target, node.module):
                    if fid not in seen:
                        seen.add(fid)
                        node.edges.append(fid)

    # -- name resolution ----------------------------------------------- #

    def resolve_dotted(self, dotted: str, depth: int = 0) -> List[str]:
        """Function ids a canonical dotted name can denote."""
        if depth > self._REEXPORT_DEPTH:
            return []
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.modules.get(module)
            if summary is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                name = rest[0]
                if name in summary.functions:
                    return [f"{module}:{name}"]
                if name in summary.classes:
                    return self._ctor_targets(f"{module}:{name}")
                if name in summary.imports:
                    return self.resolve_dotted(summary.imports[name], depth + 1)
                return []
            if len(rest) == 2:
                cls, method = rest
                if cls in summary.classes:
                    return self.lookup_method(f"{module}:{cls}", method)
                if cls in summary.imports:
                    return self.resolve_dotted(
                        f"{summary.imports[cls]}.{method}", depth + 1
                    )
            # Deeper chains only make sense through re-exports.
            if rest[0] in summary.imports:
                return self.resolve_dotted(
                    ".".join([summary.imports[rest[0]]] + rest[1:]), depth + 1
                )
            return []
        return []

    def resolve_class_spec(
        self, spec: Sequence, module: str
    ) -> Optional[str]:
        """Class id for a ``["dotted", d]`` / ``["local", n]`` type spec."""
        if not spec:
            return None
        kind = spec[0]
        if kind == "local":
            name = spec[1]
            cid = f"{module}:{name}"
            if cid in self.classes:
                return cid
            summary = self.modules.get(module)
            if summary is not None and name in summary.imports:
                return self._dotted_class(summary.imports[name])
            candidates = self._name_to_classes.get(name, [])
            return candidates[0] if len(candidates) == 1 else None
        if kind == "dotted":
            return self._dotted_class(spec[1])
        return None

    def _dotted_class(self, dotted: str, depth: int = 0) -> Optional[str]:
        if depth > self._REEXPORT_DEPTH:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.modules.get(module)
            if summary is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                if rest[0] in summary.classes:
                    return f"{module}:{rest[0]}"
                if rest[0] in summary.imports:
                    return self._dotted_class(summary.imports[rest[0]], depth + 1)
            return None
        # Fall back to a unique simple-name match (covers annotations
        # naming a class the module never imports at runtime).
        tail = parts[-1]
        candidates = self._name_to_classes.get(tail, [])
        return candidates[0] if len(candidates) == 1 else None

    def _ctor_targets(self, class_id: str) -> List[str]:
        """Calling a class runs ``__init__`` (its own or inherited)."""
        return self.lookup_method(class_id, "__init__", with_overrides=False)

    def subclasses_of(self, class_id: str) -> List[str]:
        """All transitive subclasses of ``class_id``."""
        out: List[str] = []
        queue = list(self._subclasses.get(class_id, []))
        seen: Set[str] = set()
        while queue:
            cid = queue.pop()
            if cid in seen:
                continue
            seen.add(cid)
            out.append(cid)
            queue.extend(self._subclasses.get(cid, []))
        return sorted(out)

    def lookup_method(
        self, class_id: str, method: str, with_overrides: bool = True
    ) -> List[str]:
        """Function ids ``obj.method()`` can bind to for ``obj: class_id``.

        The defining class (walking bases) contributes one target; with
        ``with_overrides`` every transitive subclass override joins it,
        because a base-typed receiver can hold any subclass instance --
        the conservative direction for reachability.
        """
        out: List[str] = []
        # Walk the class and its bases for the static definition.
        queue = [class_id]
        seen: Set[str] = set()
        while queue:
            cid = queue.pop(0)
            if cid in seen:
                continue
            seen.add(cid)
            cfacts = self.classes.get(cid)
            if cfacts is None:
                continue
            if method in cfacts.methods:
                out.append(f"{self._class_modules[cid]}:{cfacts.name}.{method}")
                break
            module = self._class_modules[cid]
            for base in cfacts.bases:
                base_id = self.resolve_class_spec(base, module)
                if base_id is not None:
                    queue.append(base_id)
        if with_overrides:
            for sub in self.subclasses_of(class_id):
                cfacts = self.classes[sub]
                if method in cfacts.methods:
                    fid = f"{self._class_modules[sub]}:{cfacts.name}.{method}"
                    if fid not in out:
                        out.append(fid)
        return out

    def resolve_spec(self, spec: Sequence, module: str) -> List[str]:
        """Function ids a symbolic call target can reach."""
        if not spec:
            return []
        kind = spec[0]
        if kind == "dotted":
            return self.resolve_dotted(spec[1])
        if kind == "local":
            summary = self.modules.get(module)
            if summary is None:
                return []
            name = spec[1]
            if name in summary.functions:
                return [f"{module}:{name}"]
            if name in summary.classes:
                return self._ctor_targets(f"{module}:{name}")
            return []
        if kind == "self":
            _, cls, method = spec
            return self.lookup_method(f"{module}:{cls}", method)
        if kind == "attr":
            _, typespec, method = spec
            class_id = self.resolve_class_spec(typespec, module)
            if class_id is None:
                return []
            return self.lookup_method(class_id, method)
        if kind == "dyn":
            # Conservative fallback on dynamic dispatch: bind only when
            # the method name is unambiguous project-wide.
            candidates = self._name_to_functions.get(spec[1], [])
            return list(candidates) if len(candidates) == 1 else []
        return []

    # -- queries -------------------------------------------------------- #

    def reachable(
        self, roots: Iterable[str]
    ) -> Dict[str, Optional[str]]:
        """BFS closure over call edges; value = parent id (None at roots)."""
        parents: Dict[str, Optional[str]] = {}
        queue: List[str] = []
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for nxt in self.functions[current].edges:
                if nxt not in parents:
                    parents[nxt] = current
                    queue.append(nxt)
        return parents

    def chain(
        self, parents: Dict[str, Optional[str]], fn_id: str, limit: int = 6
    ) -> List[str]:
        """Display names from a root down to ``fn_id``."""
        out: List[str] = []
        current: Optional[str] = fn_id
        while current is not None and len(out) < limit:
            out.append(self.functions[current].display)
            current = parents.get(current)
        return list(reversed(out))

    def scopes(self) -> Iterator[Tuple[ModuleSummary, FunctionFacts]]:
        """Every scope of every module, by path: what site checks walk."""
        for path in sorted(self.by_path):
            summary = self.by_path[path]
            for facts in summary.scopes():
                yield summary, facts

    def task_classes(self) -> List[str]:
        """Class ids of ``EvalTask`` and every (transitive) subclass."""
        bases = [
            cid for cid, cfacts in sorted(self.classes.items())
            if cfacts.name == "EvalTask"
        ]
        out: List[str] = list(bases)
        for base in bases:
            out.extend(self.subclasses_of(base))
        return sorted(set(out))

    def class_module(self, class_id: str) -> str:
        return self._class_modules[class_id]

    def find_functions(self, name: str) -> List[str]:
        """Every function id whose terminal name is ``name``."""
        return sorted(self._name_to_functions.get(name, []))

    def importers_of(self, module: str) -> List[str]:
        """Modules whose imports resolve into ``module`` (direct only)."""
        out: List[str] = []
        for name, summary in self.modules.items():
            if name == module:
                continue
            for dotted in summary.imports.values():
                if dotted == module or dotted.startswith(module + "."):
                    out.append(name)
                    break
        return sorted(out)

    def reverse_dependency_closure(self, paths: Iterable[str]) -> Set[str]:
        """Paths of the given modules plus everything importing them.

        This is the re-check set for ``--changed-only``: a change in B
        can invalidate any interprocedural fact in a module that imports
        B, transitively.
        """
        wanted: Set[str] = set()
        queue: List[str] = []
        for path in paths:
            summary = self.by_path.get(path)
            if summary is None:
                wanted.add(path)  # unknown files stay in the check set
                continue
            if summary.path not in wanted:
                wanted.add(summary.path)
                queue.append(summary.module)
        seen_modules: Set[str] = set(queue)
        while queue:
            module = queue.pop(0)
            for importer in self.importers_of(module):
                if importer not in seen_modules:
                    seen_modules.add(importer)
                    wanted.add(self.modules[importer].path)
                    queue.append(importer)
        return wanted


def build_program(summaries: Sequence[ModuleSummary]) -> Program:
    """Link ``summaries`` into a queryable :class:`Program`."""
    return Program(summaries)

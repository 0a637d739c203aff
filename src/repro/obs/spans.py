"""Nested wall-clock tracing via the :func:`span` context manager.

Spans nest per thread: entering a span while another is open produces a
dotted path (``pscheme.monthly_scores.detect``), so one histogram per
stage accumulates under a stable name and the recorded span list can be
re-assembled into a call tree.  When the active registry is the no-op
sink, :func:`span` yields immediately without touching the clock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, get_registry

__all__ = [
    "SpanRecord",
    "span",
    "current_span_path",
    "fresh_span_stack",
    "span_stack_snapshot",
]


@dataclass
class SpanRecord:
    """One completed (or in-flight) traced section.

    ``pid`` identifies the process that ran the span: 0 means "the
    recording process" (filled in lazily by exporters), a concrete pid is
    stamped when a :class:`~repro.obs.capsule.TelemetryCapsule` ships the
    record across a process boundary, so merged traces keep worker lanes.
    """

    name: str
    path: str
    depth: int
    start: float = 0.0
    duration: float = 0.0
    annotations: dict = field(default_factory=dict)
    pid: int = 0

    def annotate(self, **kwargs) -> None:
        """Attach key/value context to the span (e.g. sizes, cache keys)."""
        self.annotations.update(kwargs)


#: Live span stacks indexed by thread id.  ``threading.local`` hides the
#: per-thread stacks from other threads, but the sampling profiler
#: (:mod:`repro.obs.profile`) must read *every* thread's innermost span
#: from its own sampler thread, so each stack list is also published
#: here.  Entries for finished threads linger (bounded by the number of
#: threads ever started) and simply read as empty stacks.
_stacks_by_thread: Dict[int, List["SpanRecord"]] = {}


class _SpanStack(threading.local):
    def __init__(self) -> None:
        self.items: List[SpanRecord] = []
        _stacks_by_thread[threading.get_ident()] = self.items


_stack = _SpanStack()


def current_span_path() -> str:
    """Dotted path of the innermost open span ("" outside any span)."""
    return _stack.items[-1].path if _stack.items else ""


def span_stack_snapshot() -> Dict[int, str]:
    """Innermost open span path per live thread ("" when none is open).

    Called from the profiler's sampler thread while other threads keep
    pushing and popping spans; a concurrently emptied stack is read as
    "no span open" rather than raising.
    """
    snapshot: Dict[int, str] = {}
    for tid, items in list(_stacks_by_thread.items()):
        try:
            snapshot[tid] = items[-1].path
        except IndexError:
            snapshot[tid] = ""
    return snapshot


@contextmanager
def fresh_span_stack() -> Iterator[None]:
    """Run a block with an empty span stack, restoring the old one after.

    Used by the execution engine around each captured task so that task
    spans always start at the root -- whether the task runs inline (the
    parent may have spans open) or in a forked pool worker (which
    inherited the parent's stack as of fork time).  This is what makes
    serial and parallel capsules carry identical span paths.  The
    published per-thread stack follows the swap so profiler samples taken
    during the block attribute to the task's spans, not the parent's.
    """
    tid = threading.get_ident()
    saved = _stack.items
    _stack.items = []
    _stacks_by_thread[tid] = _stack.items
    try:
        yield
    finally:
        _stack.items = saved
        _stacks_by_thread[tid] = saved


_NULL_SPAN = SpanRecord(name="", path="", depth=0)


@contextmanager
def span(
    name: str, registry: Optional[MetricsRegistry] = None
) -> Iterator[SpanRecord]:
    """Time a section of code, nesting under any enclosing span.

    Usage::

        with span("pscheme.monthly_scores"):
            with span("detect"):
                ...

    records histograms ``span.pscheme.monthly_scores.seconds`` and
    ``span.pscheme.monthly_scores.detect.seconds`` into the registry
    (the explicit one, or whatever is globally active at entry).
    """
    reg = registry if registry is not None else get_registry()
    if reg is NULL_REGISTRY or not reg.enabled:
        # No sink: skip the clock and the stack entirely.
        yield _NULL_SPAN
        return
    parent = _stack.items[-1] if _stack.items else None
    path = f"{parent.path}.{name}" if parent is not None else name
    record = SpanRecord(
        name=name,
        path=path,
        depth=parent.depth + 1 if parent is not None else 0,
        start=time.perf_counter(),
    )
    _stack.items.append(record)
    try:
        yield record
    finally:
        record.duration = time.perf_counter() - record.start
        popped = _stack.items.pop()
        assert popped is record, "span stack corrupted"
        reg.record_span(record)

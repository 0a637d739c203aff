"""Chunked, cache-aware, deterministic dispatch of :class:`EvalTask`\\ s.

:class:`ParallelEvaluator` is the one entry point: give it a list of
tasks and it returns their results *in task order*, bit-identical
whether ``workers=0`` (inline), the tasks ran chunked across a
:class:`~concurrent.futures.ProcessPoolExecutor`, or some results came
out of the :class:`~repro.exec.cache.MPCache`.  Determinism holds
because tasks derive all randomness from their own identity
(:mod:`repro.exec.tasks`) -- the evaluator never has to care about
scheduling order.

Operational behaviour:

- **Serial fallback.**  ``workers=0``, a single pending task, or any
  platform where the pool cannot start (sandboxes without fork/spawn)
  all run inline; a failed pool degrades to inline mid-flight instead
  of failing the sweep.
- **Fork-friendly.**  The pool starts lazily at the first ``map`` call
  and prefers the ``fork`` start method, so workers inherit whatever
  worlds the parent already built (see
  :func:`~repro.exec.tasks.share_context`).
- **Observable.**  When the active registry collects, every task runs
  under an ``exec.task`` span (timed inside the worker), and
  failure/chunk counts land under ``exec.*``, alongside the cache's
  hit/miss counters.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.exec.cache import MPCache
from repro.exec.tasks import EvalTask, hermetic_schemes
from repro.obs import get_logger
from repro.obs.capsule import TelemetryCapsule
from repro.obs.profile import maybe_task_profiler
from repro.obs.registry import MetricsRegistry, get_registry, use_registry
from repro.obs.series import TimeSeriesRecorder
from repro.obs.spans import fresh_span_stack, span

__all__ = ["ParallelEvaluator"]

logger = get_logger(__name__)

#: Upper bound on tasks per chunk; keeps pool heartbeat and timing
#: granularity reasonable even for huge sweeps.
_CHUNK_CAP = 32

#: ``(value, error, capsule)`` -- one task's complete outcome.
TaskOutcome = Tuple[Any, Optional[str], Optional[TelemetryCapsule]]


def _run_task_timed(
    task: EvalTask, capture: bool = False, hermetic: bool = False
) -> TaskOutcome:
    """``(value, error, capsule)`` for one task; never raises.

    With ``capture`` the task runs under a fresh local registry and an
    empty span stack; everything it records ships back in a
    :class:`TelemetryCapsule` so the dispatching process can merge it --
    this is how worker-side telemetry survives the process boundary, and
    how the serial path stays observationally identical to the pooled one.
    ``hermetic`` additionally builds per-task scheme instances (see
    :func:`~repro.exec.tasks.hermetic_schemes`).
    """
    if not capture:
        try:
            return task.run(), None, None
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            return None, f"{type(exc).__name__}: {exc}", None
    local = MetricsRegistry()
    # A task that closes epochs (e.g. an online replay) records series
    # into its local recorder; the points ride home in the capsule and
    # union into the parent's recorder.  Tasks that never snapshot leave
    # the recorder empty, and empty recorders are not shipped.
    local.attach_series(TimeSeriesRecorder())
    value, error = None, None
    with fresh_span_stack(), use_registry(local), hermetic_schemes(hermetic):
        # When profiling is globally enabled, each captured task samples
        # itself into its local registry -- the samples ride back in the
        # capsule and merge in task order, exactly like counters.  The
        # task profiler nests above any CLI-level profiler, so inline
        # (workers=0) dispatch never double-counts a sample.
        profiler = maybe_task_profiler(local)
        try:
            with span("exec.task", local) as record:
                record.annotate(task=type(task).__name__)
                try:
                    value = task.run()
                except Exception as exc:  # noqa: BLE001 - reported to the parent
                    error = f"{type(exc).__name__}: {exc}"
        finally:
            if profiler is not None:
                profiler.stop()
    return value, error, TelemetryCapsule.capture(local)


def _run_chunk(
    tasks: Sequence[EvalTask], capture: bool = False, hermetic: bool = False
) -> List[TaskOutcome]:
    """Worker-side entry point: run one chunk, returning its outcomes."""
    return [_run_task_timed(task, capture, hermetic) for task in tasks]


class ParallelEvaluator:
    """Maps :class:`EvalTask`\\ s to results, optionally across processes.

    Parameters
    ----------
    workers:
        Process count; ``0`` (default) runs every task inline.
    cache:
        Optional :class:`MPCache`; hits skip execution entirely and the
        evaluator guarantees a hit returns the same value a cold run
        would have produced (task results are pure functions of the
        task).
    registry:
        Metrics sink; ``None`` uses the globally active registry.  When
        the sink is collecting, every task (inline or pooled) runs under
        a fresh local registry and its telemetry is merged back as a
        :class:`~repro.obs.capsule.TelemetryCapsule` -- worker metrics
        and spans are never dropped.
    hermetic_telemetry:
        Build a fresh scheme per captured task instead of sharing the
        process-local instance.  Results are unchanged, but merged
        metrics become bit-identical at any worker count (shared-scheme
        cache hit/miss counts otherwise depend on task packing).  Costs
        cross-task report-cache amortization; off by default.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: Optional[MPCache] = None,
        registry: Optional[MetricsRegistry] = None,
        hermetic_telemetry: bool = False,
    ) -> None:
        self.workers = max(0, int(workers))
        self.cache = cache
        self.hermetic_telemetry = bool(hermetic_telemetry)
        self._registry = registry
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False

    # ------------------------------------------------------------------ #

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics sink (the global one unless injected)."""
        return self._registry if self._registry is not None else get_registry()

    def close(self) -> None:
        """Shut down the worker pool (the evaluator stays usable inline)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        """The lazily created pool, or ``None`` when unavailable."""
        if self._pool is None and not self._pool_broken:
            try:
                import multiprocessing

                kwargs = {"max_workers": self.workers}
                # Prefer fork so workers inherit shared worlds built by
                # the parent (zero per-worker rebuild cost on Linux).
                if "fork" in multiprocessing.get_all_start_methods():
                    kwargs["mp_context"] = multiprocessing.get_context("fork")
                self._pool = ProcessPoolExecutor(**kwargs)
            except (OSError, ValueError, RuntimeError, ImportError) as exc:
                logger.warning(
                    "process pool unavailable (%s); running serially", exc
                )
                self.registry.inc("exec.pool_fallbacks")
                self._pool_broken = True
        return self._pool

    # ------------------------------------------------------------------ #

    def _record(
        self,
        error: Optional[str],
        index: int,
        capsule: Optional[TelemetryCapsule],
        parent_path: str,
        base_depth: int,
    ) -> Any:
        reg = self.registry
        if capsule is not None:
            # Merge before any failure is raised so a crashing task's
            # telemetry (its spans, partial counters) is never lost.
            capsule.merge_into(reg, parent_path=parent_path, base_depth=base_depth)
        if error is not None:
            reg.inc("exec.failures")
            raise ExecutionError(f"evaluation task #{index} failed: {error}")

    def map(self, tasks: Sequence[EvalTask]) -> List[Any]:
        """Results of ``tasks``, in order; cache-aware and chunk-parallel."""
        tasks = list(tasks)
        from repro.obs.ledger import note_tasks

        note_tasks(tasks)  # no-op unless a run-ledger capture is active
        results: List[Any] = [None] * len(tasks)
        keys: List[Optional[str]] = [None] * len(tasks)
        pending: List[int] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                keys[i] = task.fingerprint
                hit, value = self.cache.get(keys[i])
                if hit:
                    results[i] = value
                    continue
            pending.append(i)
        # With a cache, duplicate tasks within one batch collapse onto a
        # single execution; the copies are filled in afterwards.
        duplicates: List[int] = []
        if self.cache is not None:
            first_for_key: dict = {}
            unique_pending: List[int] = []
            for i in pending:
                if keys[i] in first_for_key:
                    duplicates.append(i)
                else:
                    first_for_key[keys[i]] = i
                    unique_pending.append(i)
            pending = unique_pending
        if not pending and not duplicates:
            return results
        reg = self.registry
        capture = bool(reg.enabled)
        reg.set_gauge("exec.workers", float(self.workers))
        pool = (
            self._ensure_pool()
            if self.workers > 0 and len(pending) > 1
            else None
        )
        with span("exec.map", reg) as map_span:
            map_span.annotate(tasks=len(tasks), pending=len(pending))
            parent_path = map_span.path
            base_depth = map_span.depth + 1
            if pool is not None:
                self._map_pool(
                    pool, tasks, pending, results, capture,
                    parent_path, base_depth,
                )
            else:
                for i in pending:
                    value, error, capsule = _run_task_timed(
                        tasks[i], capture, self.hermetic_telemetry
                    )
                    self._record(error, i, capsule, parent_path, base_depth)
                    results[i] = value
                    if self.cache is not None:
                        self.cache.put(keys[i], value)
        if self.cache is not None and pool is not None:
            for i in pending:
                self.cache.put(keys[i], results[i])
        for i in duplicates:
            results[i] = results[first_for_key[keys[i]]]
        return results

    def _map_pool(
        self,
        pool: ProcessPoolExecutor,
        tasks: List[EvalTask],
        pending: List[int],
        results: List[Any],
        capture: bool,
        parent_path: str,
        base_depth: int,
    ) -> None:
        chunksize = max(
            1, min(_CHUNK_CAP, math.ceil(len(pending) / (4 * self.workers)))
        )
        chunks = [
            pending[offset : offset + chunksize]
            for offset in range(0, len(pending), chunksize)
        ]
        self.registry.inc("exec.chunks", len(chunks))
        hermetic = self.hermetic_telemetry
        futures = [
            pool.submit(
                _run_chunk, [tasks[i] for i in chunk], capture, hermetic
            )
            for chunk in chunks
        ]
        degraded = False
        for chunk, future in zip(chunks, futures):
            if degraded:
                outcomes = _run_chunk([tasks[i] for i in chunk], capture, hermetic)
            else:
                try:
                    outcomes = future.result()
                except Exception as exc:  # pool died (e.g. OOM-killed worker)
                    logger.warning(
                        "process pool failed mid-run (%s); finishing serially",
                        exc,
                    )
                    self.registry.inc("exec.pool_fallbacks")
                    self._pool_broken = True
                    degraded = True
                    outcomes = _run_chunk(
                        [tasks[i] for i in chunk], capture, hermetic
                    )
            for i, (value, error, capsule) in zip(chunk, outcomes):
                self._record(error, i, capsule, parent_path, base_depth)
                results[i] = value
        if degraded:
            self.close()

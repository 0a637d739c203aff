"""Persistent run ledger: one JSONL record per invocation, plus checks.

Every CLI/experiment invocation can append one :class:`RunRecord` to an
append-only JSONL file (the *ledger*, a run directory's
``ledger.jsonl``): argv, a workload fingerprint over
the dispatched :class:`~repro.exec.tasks.EvalTask`\\ s, the final
counters/gauges, wall-clock and task-timing percentiles, headline result
digests, and the runtime environment (python/platform/cpu/git).  The
ledger is what makes trajectories visible across invocations: ``repro
runs list|show|diff`` inspect it, and ``repro runs check`` compares the
latest run against a rolling baseline of comparable earlier runs and
flags regressions in results, metrics, or timing.

The module also hosts the per-run *capture* used while a command
executes: :func:`record_digest` collects headline numbers and
:func:`note_tasks` folds dispatched task fingerprints into the workload
hash.  Both are no-ops unless :func:`begin_run_capture` is active, so
instrumented call sites cost nothing in normal runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.obs.logging_setup import get_logger
from repro.obs.registry import MetricsRegistry, get_registry, percentile

__all__ = [
    "RunRecord",
    "RunLedger",
    "RegressionFinding",
    "CheckReport",
    "check_ledger",
    "diff_records",
    "build_record",
    "format_runs_table",
    "runtime_environment",
    "begin_run_capture",
    "end_run_capture",
    "record_digest",
    "note_tasks",
]

logger = get_logger(__name__)

SCHEMA_VERSION = 1

#: Metric namespaces excluded from regression comparison by default:
#: pool/cache bookkeeping depends on topology and warm state (the curve
#: cache's hit/miss split as much as the report cache's), memoization
#: hit/miss splits depend on how tasks were packed onto processes, the
#: ledger/trace counters describe the recording itself, and profiler
#: sample counts are wall-clock-driven (the attributed self-time
#: regression gate lives in the ``timings`` check instead).  Everything else (detector/trust/search/online counts,
#: result digests, timings) is compared.
DEFAULT_IGNORE_PREFIXES = (
    "exec.",
    "ledger.",
    "trace.",
    "pscheme.report_cache.",
    "detector.curve_cache.",
    "pscheme.scores_cache.",
    "sa.scores_cache.",
    "bf.scores_cache.",
    "search.memo.",
    "profile.",
)

#: Per-phase self-time paths recorded into ``timings`` (largest first).
MAX_SELF_TIME_PATHS = 8

#: ``self.*`` timings below this baseline median are noise, not phases;
#: the regression check skips them.  ``wall_seconds`` must also exceed
#: its baseline median by this much to be flagged.
SELF_TIMING_FLOOR_SECONDS = 0.05


# --------------------------------------------------------------------- #
# Environment
# --------------------------------------------------------------------- #


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The short git SHA of ``cwd`` (best-effort; None outside a repo)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def runtime_environment() -> Dict[str, object]:
    """Machine/interpreter facts that make run records comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


# --------------------------------------------------------------------- #
# Per-run capture (digests + workload fingerprints)
# --------------------------------------------------------------------- #


class _RunCapture:
    """Mutable state accumulated while one recorded command executes."""

    def __init__(self) -> None:
        self.digests: Dict[str, float] = {}
        self.task_count = 0
        self._workload_hash = hashlib.blake2b(digest_size=16)

    @property
    def workload(self) -> Dict[str, object]:
        fingerprint = (
            self._workload_hash.hexdigest() if self.task_count else None
        )
        return {"tasks": self.task_count, "fingerprint": fingerprint}


_capture: Optional[_RunCapture] = None


def begin_run_capture() -> _RunCapture:
    """Start collecting digests/workload for the current invocation."""
    global _capture
    _capture = _RunCapture()
    return _capture


def end_run_capture() -> Optional[_RunCapture]:
    """Stop collecting and return the finished capture (None if inactive)."""
    global _capture
    finished, _capture = _capture, None
    return finished


def record_digest(name: str, value: float) -> None:
    """Attach one headline result number to the active run (if any)."""
    if _capture is not None:
        _capture.digests[str(name)] = float(value)


def note_tasks(tasks: Sequence) -> None:
    """Fold dispatched tasks into the active run's workload fingerprint.

    ``tasks`` only need a ``fingerprint`` attribute (duck-typed so this
    module stays import-independent of :mod:`repro.exec`).  No-op unless
    a capture is active -- dispatch hot paths pay one global read.
    """
    if _capture is None or not tasks:
        return
    for task in tasks:
        _capture._workload_hash.update(task.fingerprint.encode("ascii"))
    _capture.task_count += len(tasks)
    get_registry().inc("ledger.tasks_noted", len(tasks))


# --------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------- #


@dataclass
class RunRecord:
    """One ledger entry: everything needed to compare two invocations."""

    run_id: str
    timestamp: float
    command: str
    argv: List[str]
    status: int = 0
    workload: Dict[str, object] = field(default_factory=dict)
    digests: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    env: Dict[str, object] = field(default_factory=dict)
    #: Alert events (``AlertEvent.as_dict()`` payloads) the run produced.
    alerts: List[Dict[str, object]] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    def firing_alerts(self) -> List[Dict[str, object]]:
        """The subset of alert events that are ``firing`` transitions."""
        return [
            event
            for event in self.alerts
            if isinstance(event, dict) and event.get("state") == "firing"
        ]

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in payload.items() if k in known})

    @property
    def when(self) -> str:
        """ISO-ish local timestamp for display."""
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.timestamp))


def build_record(
    command: str,
    argv: Sequence[str],
    registry: Optional[MetricsRegistry] = None,
    wall_seconds: float = 0.0,
    status: int = 0,
    capture: Optional[_RunCapture] = None,
    timestamp: Optional[float] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` for one finished invocation."""
    registry = registry if registry is not None else get_registry()
    # The run ledger is the repo's one sanctioned wall-clock source: a
    # record's timestamp identifies *when a run happened* and is never an
    # input to any fingerprinted or replayed computation.
    timestamp = time.time() if timestamp is None else float(timestamp)  # lint: ignore[wall-clock]
    snapshot = registry.snapshot()
    timings: Dict[str, float] = {"wall_seconds": float(wall_seconds)}
    task_hist = registry.histograms.get("span.exec.task.seconds")
    if task_hist is not None and task_hist.count:
        timings.update(
            task_count=float(task_hist.count),
            task_mean=task_hist.mean,
            task_p50=task_hist.percentile(50),
            task_p90=task_hist.percentile(90),
            task_p99=task_hist.percentile(99),
        )
    # Per-phase *self*-time percentiles over the recorded span tree, for
    # the heaviest MAX_SELF_TIME_PATHS paths.  These are what lets
    # ``runs check`` gate on attributed hot-path regressions ("detector
    # spans got slower") instead of only total wall clock.
    if registry.spans:
        from repro.obs.profile import span_self_times

        self_times = span_self_times(registry.spans)
        totals = {path: sum(values) for path, values in self_times.items()}
        heaviest = sorted(totals, key=lambda p: (-totals[p], p))
        for path in heaviest[:MAX_SELF_TIME_PATHS]:
            ordered = sorted(self_times[path])
            timings[f"self.{path}.p50"] = percentile(ordered, 50.0)
            timings[f"self.{path}.p90"] = percentile(ordered, 90.0)
    # Alert events ride on the record so ``runs check`` can gate on a
    # run that newly started alerting; the recorder (and its engine)
    # hang off the registry when the CLI wired them up.
    recorder = getattr(registry, "series", None)
    engine = getattr(recorder, "engine", None) if recorder is not None else None
    alerts = (
        [event.as_dict() for event in engine.events]
        if engine is not None
        else []
    )
    identity = hashlib.blake2b(
        json.dumps(
            [timestamp, list(argv), command], sort_keys=True
        ).encode("utf-8"),
        digest_size=6,
    ).hexdigest()
    return RunRecord(
        run_id=identity,
        timestamp=timestamp,
        command=command,
        argv=list(argv),
        status=int(status),
        workload=capture.workload if capture is not None else {},
        digests=dict(capture.digests) if capture is not None else {},
        metrics={
            "counters": dict(snapshot["counters"]),
            "gauges": {
                k: v
                for k, v in snapshot["gauges"].items()
                if not math.isnan(v)
            },
        },
        timings=timings,
        env=runtime_environment(),
        alerts=alerts,
    )


# --------------------------------------------------------------------- #
# The ledger store
# --------------------------------------------------------------------- #


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord`\\ s."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._warned_corrupt = False

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def append(self, record: RunRecord) -> None:
        """Append one record (creates the ledger file on first write)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.as_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        get_registry().inc("ledger.records_appended")

    def records(self) -> Iterator[RunRecord]:
        """Yield every readable record, oldest first; corrupt lines skipped."""
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("record line is not a JSON object")
                    record = RunRecord.from_dict(payload)
                except (ValueError, TypeError):
                    get_registry().inc("ledger.corrupt_lines")
                    if not self._warned_corrupt:
                        self._warned_corrupt = True
                        logger.warning(
                            "ledger=%s corrupt line=%d; skipping (counted in "
                            "ledger.corrupt_lines)",
                            self.path,
                            lineno,
                        )
                    continue
                yield record

    def tail(self, n: int) -> List[RunRecord]:
        """The most recent ``n`` records, oldest first."""
        return list(self.records())[-n:]

    def latest(self) -> Optional[RunRecord]:
        """The newest record, or None for an empty/missing ledger."""
        latest = None
        for record in self.records():
            latest = record
        return latest

    def find(self, run_id: str) -> RunRecord:
        """The record whose id starts with ``run_id`` (unique prefix)."""
        matches = [r for r in self.records() if r.run_id.startswith(run_id)]
        if not matches:
            raise ValidationError(f"no run matching id {run_id!r} in {self.path}")
        if len({r.run_id for r in matches}) > 1:
            raise ValidationError(
                f"run id prefix {run_id!r} is ambiguous in {self.path}"
            )
        return matches[-1]


# --------------------------------------------------------------------- #
# Diff + regression check
# --------------------------------------------------------------------- #


def diff_records(a: RunRecord, b: RunRecord) -> List[str]:
    """Human-readable field-level differences between two records."""
    lines: List[str] = []
    if a.command != b.command:
        lines.append(f"command: {a.command} -> {b.command}")
    if a.workload.get("fingerprint") != b.workload.get("fingerprint"):
        lines.append(
            "workload: "
            f"{a.workload.get('fingerprint')} ({a.workload.get('tasks', 0)} tasks)"
            f" -> {b.workload.get('fingerprint')}"
            f" ({b.workload.get('tasks', 0)} tasks)"
        )
    for name in sorted(set(a.digests) | set(b.digests)):
        va, vb = a.digests.get(name), b.digests.get(name)
        if va != vb:
            lines.append(f"digest {name}: {va} -> {vb}")
    counters_a = a.metrics.get("counters", {})
    counters_b = b.metrics.get("counters", {})
    for name in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(name, 0.0), counters_b.get(name, 0.0)
        if va != vb:
            lines.append(f"counter {name}: {va:g} -> {vb:g}")
    wa = a.timings.get("wall_seconds", 0.0)
    wb = b.timings.get("wall_seconds", 0.0)
    if wa and wb and wa != wb:
        lines.append(f"wall_seconds: {wa:.3f} -> {wb:.3f} ({wb / wa:.2f}x)")
    return lines


@dataclass
class RegressionFinding:
    """One flagged discrepancy between the latest run and its baseline."""

    kind: str  # "result-digest" | "metric" | "timing" | "status" | "alert"
    name: str
    latest: float
    baseline: float
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.kind}] {self.name}: latest={self.latest:g} "
            f"baseline={self.baseline:g} ({self.detail})"
        )


@dataclass
class CheckReport:
    """Outcome of comparing the latest run against its rolling baseline.

    ``ok`` means no regression was *found*; ``no_baseline`` flags that
    nothing could be compared at all (empty ledger, or zero earlier runs
    with the same command + workload) -- a distinct outcome the CLI maps
    to its own exit code so CI never mistakes "nothing to compare" for
    "checked and clean".
    """

    latest: Optional[RunRecord]
    baseline_size: int
    findings: List[RegressionFinding] = field(default_factory=list)
    notice: Optional[str] = None
    no_baseline: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_text(self) -> str:
        if self.latest is None:
            return self.notice or "ledger is empty"
        header = (
            f"run {self.latest.run_id} ({self.latest.command}, "
            f"{self.latest.when}) vs baseline of {self.baseline_size} run(s)"
        )
        if self.notice:
            return f"{header}\n{self.notice}"
        if not self.findings:
            return f"{header}\nOK: no regressions detected"
        body = "\n".join(f"  {finding}" for finding in self.findings)
        return f"{header}\n{len(self.findings)} regression(s):\n{body}"


def _comparable(latest: RunRecord, record: RunRecord) -> bool:
    if record.status != 0 or record.command != latest.command:
        return False
    latest_fp = latest.workload.get("fingerprint")
    record_fp = record.workload.get("fingerprint")
    if latest_fp is None and record_fp is None:
        # Neither run dispatched engine tasks (e.g. ``world`` or
        # ``detect``), so there is no workload hash to match on -- fall
        # back to exact argv identity rather than treating every
        # fingerprint-less run of the command as the same workload.
        return record.argv == latest.argv
    return record_fp == latest_fp


def check_ledger(
    ledger: RunLedger,
    window: int = 5,
    max_timing_ratio: float = 1.5,
    metric_tolerance: float = 0.0,
    digest_tolerance: float = 0.0,
    ignore_prefixes: Tuple[str, ...] = DEFAULT_IGNORE_PREFIXES,
    allow_alerts: bool = False,
) -> CheckReport:
    """Compare the latest run against a rolling baseline of earlier runs.

    The baseline is the up-to-``window`` most recent *successful* earlier
    records with the same command and workload fingerprint.  Flags:

    - **status**: the latest run exited non-zero;
    - **result-digest**: a headline digest moved beyond ``digest_tolerance``
      (absolute) from the baseline median;
    - **metric**: a counter moved beyond ``metric_tolerance`` (relative to
      the baseline median) -- namespaces in ``ignore_prefixes`` are skipped;
    - **timing**: wall-clock exceeded both ``max_timing_ratio`` x the
      baseline median and the median plus
      :data:`SELF_TIMING_FLOOR_SECONDS` (a stall of a few tens of
      milliseconds is not a regression of a sub-second run);
    - **alert**: the latest run produced firing alert events while every
      baseline run produced none (suppressed by ``allow_alerts`` -- the
      escape hatch for runs *expected* to alert, e.g. attack scenarios).
    """
    records = list(ledger.records())
    if not records:
        return CheckReport(latest=None, baseline_size=0,
                           notice=f"ledger {ledger.path} is empty",
                           no_baseline=True)
    latest = records[-1]
    findings: List[RegressionFinding] = []
    if latest.status != 0:
        findings.append(
            RegressionFinding(
                kind="status",
                name="exit_status",
                latest=float(latest.status),
                baseline=0.0,
                detail="latest run exited non-zero",
            )
        )
    baseline = [r for r in records[:-1] if _comparable(latest, r)][-window:]
    if not baseline:
        return CheckReport(
            latest=latest,
            baseline_size=0,
            findings=findings,
            notice=(
                None
                if findings
                else "NO BASELINE -- no comparable baseline runs yet "
                     "(same command + workload); nothing was checked"
            ),
            no_baseline=True,
        )
    # Result digests: exact by default; any drift is a quality regression.
    for name in sorted(latest.digests):
        history = [r.digests[name] for r in baseline if name in r.digests]
        if not history:
            continue
        base = median(history)
        if abs(latest.digests[name] - base) > digest_tolerance:
            findings.append(
                RegressionFinding(
                    kind="result-digest",
                    name=name,
                    latest=latest.digests[name],
                    baseline=base,
                    detail=f"moved beyond tolerance {digest_tolerance:g}",
                )
            )
    # Counters: stable for a fixed workload (modulo ignored bookkeeping).
    latest_counters = latest.metrics.get("counters", {})
    for name in sorted(latest_counters):
        if name.startswith(ignore_prefixes):
            continue
        history = [
            r.metrics.get("counters", {})[name]
            for r in baseline
            if name in r.metrics.get("counters", {})
        ]
        if not history:
            continue
        base = median(history)
        scale = max(abs(base), 1.0)
        if abs(latest_counters[name] - base) > metric_tolerance * scale:
            findings.append(
                RegressionFinding(
                    kind="metric",
                    name=name,
                    latest=latest_counters[name],
                    baseline=base,
                    detail=f"relative tolerance {metric_tolerance:g}",
                )
            )
    # Timing: latest wall-clock vs the baseline median.
    base_wall = median(
        [r.timings.get("wall_seconds", 0.0) for r in baseline]
    )
    latest_wall = latest.timings.get("wall_seconds", 0.0)
    bound = max(max_timing_ratio * base_wall, base_wall + SELF_TIMING_FLOOR_SECONDS)
    if base_wall > 0 and latest_wall > bound:
        findings.append(
            RegressionFinding(
                kind="timing",
                name="wall_seconds",
                latest=latest_wall,
                baseline=base_wall,
                detail=f"exceeded {max_timing_ratio:g}x baseline median",
            )
        )
    # Newly-firing alerts: a run that starts alerting when its baseline
    # never did is an operational regression even if every counter and
    # digest matched (alert state also depends on the rule file).
    latest_firing = latest.firing_alerts()
    if (
        not allow_alerts
        and latest_firing
        and all(not r.firing_alerts() for r in baseline)
    ):
        rules = sorted({str(event.get("rule")) for event in latest_firing})
        findings.append(
            RegressionFinding(
                kind="alert",
                name="firing_alerts",
                latest=float(len(latest_firing)),
                baseline=0.0,
                detail=(
                    "newly firing vs alert-free baseline: "
                    + ", ".join(rules)
                    + " (pass --allow-alerts if expected)"
                ),
            )
        )
    # Attributed per-phase self-time: same ratio gate, per span path.
    # Records predating these fields simply contribute no history; tiny
    # baselines (below the floor) are scheduling noise, not phases.
    for name in sorted(latest.timings):
        if not name.startswith("self."):
            continue
        history = [
            r.timings[name] for r in baseline if name in r.timings
        ]
        if not history:
            continue
        base = median(history)
        if base < SELF_TIMING_FLOOR_SECONDS:
            continue
        if latest.timings[name] > max_timing_ratio * base:
            findings.append(
                RegressionFinding(
                    kind="timing",
                    name=name,
                    latest=latest.timings[name],
                    baseline=base,
                    detail=(
                        f"attributed self-time exceeded "
                        f"{max_timing_ratio:g}x baseline median"
                    ),
                )
            )
    return CheckReport(latest=latest, baseline_size=len(baseline),
                       findings=findings)


def format_runs_table(records: Sequence[RunRecord]) -> str:
    """Aligned text table of ledger records (newest last)."""
    from repro.analysis.reporting import format_table

    rows = [
        (
            r.run_id,
            r.when,
            r.command,
            r.status,
            r.workload.get("tasks", 0) or 0,
            f"{r.timings.get('wall_seconds', 0.0):.2f}",
            len(r.digests),
        )
        for r in records
    ]
    if not rows:
        return "(ledger is empty)"
    return format_table(
        ["run", "when", "command", "status", "tasks", "wall s", "digests"],
        rows,
        title="Run ledger",
    )

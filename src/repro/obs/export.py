"""The run directory: one bundle of telemetry files per invocation.

``--run-dir DIR`` on any pipeline command collects the run's telemetry
through one :class:`RunDirectoryWriter` and writes it into ``DIR`` under
the fixed file names below.  Each run rewrites every file except the
ledger, to which it appends one :class:`~repro.obs.ledger.RunRecord`, so
repeated runs into one directory build the history ``repro runs check``
compares.  ``runs``, ``trace``, ``profile`` and ``monitor`` read the
bundle back.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

from repro.obs.alerts import DEFAULT_RULES_PATH, AlertEngine, load_rules
from repro.obs.ledger import (
    RunLedger,
    begin_run_capture,
    build_record,
    end_run_capture,
    runtime_environment,
)
from repro.obs.profile import SpanProfiler, disable_profiling, enable_profiling
from repro.obs.registry import MetricsRegistry, set_registry
from repro.obs.report import report_from_registry, write_report
from repro.obs.series import MetricsStreamWriter, TimeSeriesRecorder
from repro.obs.trace import read_trace, summarize_trace, write_trace

__all__ = [
    "DEFAULT_RUN_DIR",
    "LEDGER_FILE",
    "METRICS_FILE",
    "REPORT_FILE",
    "SERIES_FILE",
    "TRACE_FILE",
    "RunDirectoryWriter",
    "registry_to_dict",
    "write_json",
]

LEDGER_FILE = "ledger.jsonl"    # one appended RunRecord line per run
METRICS_FILE = "metrics.json"   # the registry dump, profile included
TRACE_FILE = "trace.json"       # Perfetto span tree plus profiler lane
SERIES_FILE = "series.jsonl"    # one registry snapshot per epoch close
REPORT_FILE = "report.html"     # the self-contained run report

#: Where the readers look when no ``--run-dir`` is given.
DEFAULT_RUN_DIR = ".repro"


def registry_to_dict(registry: MetricsRegistry) -> Dict[str, object]:
    """A JSON-serializable dump of everything the registry collected."""
    payload = registry.snapshot()
    payload["spans"] = [
        {
            "path": record.path,
            "depth": record.depth,
            "seconds": record.duration,
            **({"annotations": dict(record.annotations)}
               if record.annotations else {}),
        }
        for record in registry.spans
    ]
    # Only present when a profiler ran: keeps un-profiled dumps (and the
    # tests pinning their exact keys) unchanged.
    if getattr(registry, "profile", None):
        payload["profile"] = {
            key: registry.profile[key] for key in sorted(registry.profile)
        }
    return payload


def write_json(registry: MetricsRegistry, path: str) -> None:
    """Write the registry dump to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(registry_to_dict(registry), fh, indent=2, sort_keys=False)
        fh.write("\n")


class RunDirectoryWriter:
    """Collects one invocation's telemetry and writes it as a bundle.

    :meth:`start` creates the directory and installs the whole collecting
    set-up: a registry, a series recorder that streams to
    :data:`SERIES_FILE` and evaluates the packaged alert rules, the
    ledger capture, and the sampling profiler at its default rate (armed
    for pooled tasks too).  :meth:`finish` takes it down and writes the
    rest of the bundle.  Progress and errors go to stderr.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.registry = MetricsRegistry()

    def start(self) -> "RunDirectoryWriter":
        """Create the directory and start collecting.

        Raises :class:`OSError` when the directory or the series file
        cannot be created, before any pipeline work has run.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        engine = AlertEngine(
            load_rules(DEFAULT_RULES_PATH), registry=self.registry
        )
        self.registry.attach_series(TimeSeriesRecorder(
            sink=MetricsStreamWriter(self.path / SERIES_FILE), engine=engine,
        ))
        self._previous = set_registry(self.registry)
        self._capture = begin_run_capture()
        enable_profiling()
        self._profiler = SpanProfiler(self.registry).start()
        self._start = time.perf_counter()
        return self

    def finish(self, command: str, argv: Sequence[str], status: int) -> int:
        """Stop collecting and write the bundle; return the exit status.

        A file that cannot be written prints ``error: ...`` and turns a
        zero ``status`` into 2.  The ledger record is written last, so it
        carries that status.
        """
        wall_seconds = time.perf_counter() - self._start
        self._profiler.stop()
        disable_profiling()
        set_registry(self._previous)
        end_run_capture()
        registry = self.registry
        recorder = registry.series
        if recorder.empty:
            # Commands with no epoch structure still stream one closing
            # snapshot (and one alert evaluation) at epoch 0.
            recorder.record_epoch(0, registry)
        recorder.sink.close()
        print(f"metrics stream written to {recorder.sink.path} "
              f"({recorder.sink.lines_written} snapshots)", file=sys.stderr)
        firing = recorder.engine.firing()
        if firing:
            print(f"alerts firing at exit: {', '.join(firing)}", file=sys.stderr)

        def append_record(path: Path) -> str:
            # Built last, after every other file: it records their failure.
            record = build_record(
                command=command, argv=argv, registry=registry,
                wall_seconds=wall_seconds, status=status, capture=self._capture,
            )
            RunLedger(path).append(record)
            return f"run {record.run_id}"

        def write_html_report(path: Path) -> None:
            try:
                summary = summarize_trace(read_trace(self.path / TRACE_FILE))
            except (OSError, ValueError):
                summary = None
            write_report(report_from_registry(
                registry, title=f"repro {command} run report",
                environment=runtime_environment(), trace_summary=summary,
            ), path)

        for what, name, write in (
            ("metrics", METRICS_FILE, lambda path: write_json(registry, path)),
            ("trace", TRACE_FILE,
             lambda path: f"{write_trace(registry, path)} events"),
            ("report", REPORT_FILE, write_html_report),
            ("run record", LEDGER_FILE, append_record),
        ):
            path = self.path / name
            try:
                detail = write(path)
            except OSError as exc:
                print(f"error: cannot write {what}: {exc}", file=sys.stderr)
                status = status or 2
            else:
                print(f"{what} written to {path}"
                      + (f" ({detail})" if detail else ""), file=sys.stderr)
        return status

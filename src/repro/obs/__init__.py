"""Observability for the rating pipeline: metrics, spans, logs, exporters.

The pipeline (detectors -> joint detection -> trust -> aggregation ->
online epochs -> attack optimizer) is instrumented end to end through
this package:

- :class:`MetricsRegistry` -- process-local counters, gauges, and
  histograms with summary statistics.  The default global sink is
  :data:`NULL_REGISTRY` (no-op, near-zero overhead); install a collecting
  registry with :func:`set_registry` / :func:`use_registry`, or inject one
  into any instrumented component.
- :func:`span` -- nested wall-clock tracing; per-stage durations land in
  ``span.<dotted.path>.seconds`` histograms.
- :func:`setup_logging` / :func:`get_logger` -- structured ``key=value``
  logging under the ``repro`` logger tree (silent until configured).
- :class:`TelemetryCapsule` -- pickleable registry snapshots that carry
  worker-side telemetry across process boundaries (merged back by the
  execution engine, so pooled runs export the same telemetry as serial).
- :func:`write_trace` / :func:`read_trace` / :func:`summarize_trace` --
  Chrome/Perfetto ``trace_event`` export of the recorded span tree, with
  one lane per worker process (plus a profiler-sample lane when one ran).
- :class:`SpanProfiler` -- low-overhead sampling wall-clock profiler
  whose samples attribute to the open span stack; a speedscope JSON
  exporter (:mod:`repro.obs.profile`).
- :class:`RunLedger` / :func:`check_ledger` -- the persistent run ledger
  (JSONL, one record per invocation) and its regression checker.
- :func:`score_detection` / :class:`Scorecard` -- ground-truth detection
  scorecards: provenance-attributed confusion counts, detection latency,
  bias at detection, folded into ``quality.*`` metrics.
- :class:`DriftMonitor` -- assumption drift monitors (Poisson arrival
  dispersion, residual whiteness, mean drift) raising structured
  warnings and ``drift.*`` counters.
- :func:`render_html` / :func:`write_report` -- the self-contained
  HTML/Markdown run-report generator (inline SVG sparklines, zero
  external assets).
- :class:`TimeSeriesRecorder` -- per-epoch snapshots of the registry
  into ring-buffered metric series (epoch index as the time axis), with
  a JSONL streaming sink (:mod:`repro.obs.series`).
- :class:`AlertRule` / :class:`AlertEngine` -- declarative alert
  conditions (threshold, rate-of-change, burn-rate) over recorded
  series, evaluated at epoch close with firing/resolved hysteresis
  (:mod:`repro.obs.alerts`); ``repro monitor`` renders the series and
  the alert board (:mod:`repro.obs.monitor`).
- :mod:`repro.obs.export` -- :func:`write_json`, and the ``--run-dir``
  bundle: one ``RunDirectoryWriter`` collects an invocation's telemetry
  and writes its ledger record, metrics, trace, profile, series and
  HTML report under the fixed file names the module defines.

Quickstart::

    from repro.obs import MetricsRegistry, use_registry, write_json

    registry = MetricsRegistry()
    with use_registry(registry):
        scheme.monthly_scores(dataset)
    print(registry.counter_value("pscheme.scores_cache.misses"))
    write_json(registry, "metrics.json")
"""

from repro.obs.alerts import (
    DEFAULT_RULES_PATH,
    AlertEngine,
    AlertEvent,
    AlertRule,
    load_rules,
)
from repro.obs.capsule import TelemetryCapsule
from repro.obs.ledger import (
    CheckReport,
    RunLedger,
    RunRecord,
    check_ledger,
    runtime_environment,
)
from repro.obs.logging_setup import get_logger, setup_logging
from repro.obs.trace import read_trace, summarize_trace, write_trace
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.profile import (
    DEFAULT_HZ,
    SpanProfiler,
    disable_profiling,
    enable_profiling,
    maybe_task_profiler,
    profiling_enabled,
    span_self_times,
    speedscope_document,
    write_speedscope,
)
from repro.obs.series import (
    DEFAULT_SERIES_IGNORE,
    MetricsStreamWriter,
    TimeSeriesRecorder,
    flatten_registry,
    read_metrics_stream,
)
from repro.obs.monitor import render_frame, replay_stream, sparkline
from repro.obs.spans import (
    SpanRecord,
    current_span_path,
    fresh_span_stack,
    span,
    span_stack_snapshot,
)

# Imported last: repro.obs.quality (and so repro.obs.report and the
# run-directory writer) pulls in repro.detectors, whose modules import
# the names above from this (then partially initialized) package.
from repro.obs.drift import (  # noqa: E402
    DriftMonitor,
    DriftMonitorConfig,
    DriftWarning,
)
from repro.obs.quality import (  # noqa: E402
    ConfusionCounts,
    Scorecard,
    aggregate_confusions,
    emit_scorecards,
    roc_auc,
    score_detection,
)
from repro.obs.report import (  # noqa: E402
    ReportData,
    RocSweep,
    confusion_from_counters,
    render_html,
    render_markdown,
    report_from_registry,
    svg_roc,
    svg_sparkline,
    write_report,
)
from repro.obs.export import registry_to_dict, write_json  # noqa: E402

__all__ = [
    "TelemetryCapsule",
    "RunLedger",
    "RunRecord",
    "CheckReport",
    "check_ledger",
    "runtime_environment",
    "write_trace",
    "read_trace",
    "summarize_trace",
    "fresh_span_stack",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "SpanRecord",
    "span",
    "current_span_path",
    "span_stack_snapshot",
    "DEFAULT_HZ",
    "SpanProfiler",
    "disable_profiling",
    "enable_profiling",
    "maybe_task_profiler",
    "profiling_enabled",
    "span_self_times",
    "speedscope_document",
    "write_speedscope",
    "get_logger",
    "setup_logging",
    "registry_to_dict",
    "write_json",
    "ConfusionCounts",
    "Scorecard",
    "aggregate_confusions",
    "emit_scorecards",
    "roc_auc",
    "score_detection",
    "DriftMonitor",
    "DriftMonitorConfig",
    "DriftWarning",
    "ReportData",
    "RocSweep",
    "confusion_from_counters",
    "render_html",
    "render_markdown",
    "report_from_registry",
    "svg_roc",
    "svg_sparkline",
    "write_report",
    "DEFAULT_RULES_PATH",
    "DEFAULT_SERIES_IGNORE",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "MetricsStreamWriter",
    "TimeSeriesRecorder",
    "flatten_registry",
    "load_rules",
    "read_metrics_stream",
    "render_frame",
    "replay_stream",
    "sparkline",
]

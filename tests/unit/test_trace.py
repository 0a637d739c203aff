"""Unit tests for the Chrome/Perfetto trace exporter (repro.obs.trace)."""

import json
import os

import pytest

from repro.errors import ValidationError
from repro.obs import (
    MetricsRegistry,
    read_trace,
    span,
    summarize_trace,
    use_registry,
    write_trace,
)
from repro.obs.profile import span_self_times
from repro.obs.spans import SpanRecord
from repro.obs.trace import trace_events


def traced_registry():
    registry = MetricsRegistry()
    registry.inc("detector.joint.calls", 2)
    with use_registry(registry):
        with span("exec.map"):
            with span("exec.task") as record:
                record.annotate(task="PopulationEvalTask")
    return registry


class TestTraceEvents:
    def test_complete_events_cover_every_span(self):
        registry = traced_registry()
        events = trace_events(registry)
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["path"] for e in complete} == {
            "exec.map",
            "exec.map.exec.task",
        }
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == os.getpid()
            assert event["cat"] == "exec"

    def test_timestamps_normalized_to_earliest_span(self):
        events = trace_events(traced_registry())
        complete = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) == pytest.approx(0.0)

    def test_annotations_become_event_args(self):
        events = trace_events(traced_registry())
        task = next(e for e in events if e["name"] == "exec.task")
        assert task["args"]["task"] == "PopulationEvalTask"

    def test_counters_exported_as_counter_event(self):
        events = trace_events(traced_registry())
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"]["detector.joint.calls"] == 2.0

    def test_process_metadata_per_pid_lane(self):
        from dataclasses import replace

        registry = traced_registry()
        # Simulate a merged worker record: non-zero foreign pid.
        registry.spans[0] = replace(registry.spans[0], pid=99999)
        events = trace_events(registry)
        meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert meta[os.getpid()] == "repro main"
        assert meta[99999] == "repro worker 99999"
        # Metadata events come first so viewers name lanes before drawing.
        phases = [e["ph"] for e in events]
        assert phases[: phases.count("M")] == ["M"] * phases.count("M")

    def test_empty_registry_yields_only_main_metadata(self):
        events = trace_events(MetricsRegistry())
        assert [e["ph"] for e in events] == ["M"]


class TestWriteReadRoundTrip:
    def test_round_trip_is_structurally_valid(self, tmp_path):
        path = tmp_path / "trace.json"
        registry = traced_registry()
        count = write_trace(registry, path)
        payload = read_trace(path)
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"
        assert registry.counter_value("trace.events_written") == count

    def test_read_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_trace(path)

    def test_read_rejects_missing_trace_events(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"events": []}))
        with pytest.raises(ValidationError, match="traceEvents"):
            read_trace(path)

    def test_read_rejects_event_without_phase(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        with pytest.raises(ValidationError, match="'ph'/'name'"):
            read_trace(path)

    def test_read_rejects_complete_event_with_bad_timestamp(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {"name": "x", "ph": "X", "ts": "soon",
                         "dur": 1, "pid": 1}
                    ]
                }
            )
        )
        with pytest.raises(ValidationError, match="non-numeric 'ts'"):
            read_trace(path)


class TestSummarize:
    def test_summary_mentions_lanes_and_longest_spans(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(traced_registry(), path)
        text = summarize_trace(read_trace(path))
        assert "process lanes:" in text
        assert str(os.getpid()) in text
        assert "exec.map" in text

    def test_summary_of_empty_trace(self):
        text = summarize_trace({"traceEvents": []})
        assert "0 events" in text
        assert "(none)" in text

    def test_cache_hit_rate_from_counters(self):
        registry = MetricsRegistry()
        registry.inc("exec.cache.hits", 3)
        registry.inc("exec.cache.misses", 1)
        text = summarize_trace({"traceEvents": trace_events(registry)})
        assert "MP cache: 3/4 lookups hit (75%)" in text
        assert "corrupt" not in text

    def test_cache_line_on_fully_warm_run(self):
        # A warm run dispatches zero tasks but answers every lookup from
        # the cache; the hit rate must still read 100%, not 0.
        registry = MetricsRegistry()
        registry.inc("exec.cache.hits", 8)
        text = summarize_trace({"traceEvents": trace_events(registry)})
        assert "MP cache: 8/8 lookups hit (100%)" in text

    def test_corrupt_entries_surfaced(self):
        registry = MetricsRegistry()
        registry.inc("exec.cache.hits", 2)
        registry.inc("exec.cache.misses", 2)
        registry.inc("exec.cache.corrupt", 1)
        text = summarize_trace({"traceEvents": trace_events(registry)})
        assert "1 corrupt entries treated as misses" in text

    def test_no_cache_line_without_lookups(self):
        text = summarize_trace(
            {"traceEvents": trace_events(traced_registry())}
        )
        assert "MP cache" not in text

    def test_summary_reports_self_time_alongside_total(self):
        text = summarize_trace(
            {"traceEvents": trace_events(traced_registry())}
        )
        assert "(total / self):" in text
        assert "ms self" in text
        assert "self-time paths:" in text

    def test_self_time_subtracts_nested_children(self):
        events = [
            {"name": "p", "ph": "X", "ts": 0.0, "dur": 1000.0,
             "pid": 1, "tid": 1, "cat": "exec", "args": {"path": "p"}},
            {"name": "p.c", "ph": "X", "ts": 200.0, "dur": 300.0,
             "pid": 1, "tid": 1, "cat": "exec", "args": {"path": "p.c"}},
        ]
        text = summarize_trace({"traceEvents": events})
        assert "0.70 ms self  p" in text
        assert "0.30 ms self  p.c" in text

    def test_self_time_paths_match_the_ledger_rule(self):
        # The summary (from the written trace, in µs) and the ledger's
        # self.* timings (from the span records, in seconds) read one
        # containment rule: same per-path self time, worker lane included.
        registry = MetricsRegistry()
        for record in (
            SpanRecord("map", "map", 0, start=100.0, duration=0.050),
            SpanRecord("task", "map.task", 1, start=100.002, duration=0.030),
            SpanRecord("detect", "map.task.detect", 2, start=100.004,
                       duration=0.0125),
            SpanRecord("task", "map.task", 1, start=100.0335, duration=0.010),
            SpanRecord("task", "map.task", 1, start=100.001, duration=0.020,
                       pid=4242),
        ):
            registry.adopt_span(record)
        text = summarize_trace({"traceEvents": trace_events(registry)}, top=10)
        printed = {}
        for line in text.split("self-time paths:\n", 1)[1].splitlines():
            ms, path = line.split(" ms self  ")
            printed[path] = float(ms)
        expected = {
            path: sum(values)
            for path, values in span_self_times(registry.spans).items()
        }
        assert expected == pytest.approx(
            {"map": 0.010, "map.task": 0.0475, "map.task.detect": 0.0125}
        )
        assert printed == pytest.approx(
            {path: seconds * 1e3 for path, seconds in expected.items()},
            abs=0.005,
        )


class TestProfilerLane:
    def profiled_registry(self):
        registry = traced_registry()
        registry.add_profile_samples({
            "span:exec.map;repro/cli.py:main;f.py:busy": 42.0,
            "span:-;pool.py:idle": 8.0,
        })
        registry.set_gauge("profile.hz", 100.0)
        return registry

    def test_profile_samples_become_a_dedicated_lane(self):
        from repro.obs.profile import PROFILE_TID

        events = trace_events(self.profiled_registry())
        lane = [e for e in events if e.get("cat") == "profile"]
        assert len(lane) == 2
        assert all(e["tid"] == PROFILE_TID for e in lane)
        assert all(e["pid"] == os.getpid() for e in lane)
        # 42 samples at 100 Hz = 0.42s rendered as event duration.
        stacks = {e["args"]["stack"]: e["dur"] for e in lane}
        assert stacks[
            "span:exec.map;repro/cli.py:main;f.py:busy"
        ] == pytest.approx(0.42e6)
        # The lane is named so viewers label it before drawing.
        names = [
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "profiler samples" in names
        # Metadata still leads the event list.
        phases = [e["ph"] for e in events]
        assert phases[: phases.count("M")] == ["M"] * phases.count("M")

    def test_summary_mentions_the_profiler_lane(self):
        text = summarize_trace(
            {"traceEvents": trace_events(self.profiled_registry())}
        )
        assert "profiler lane: 2 sampled stacks" in text
        assert "0.50 s of samples" in text

    def test_unprofiled_registry_has_no_profile_lane(self):
        events = trace_events(traced_registry())
        assert not any(e.get("cat") == "profile" for e in events)
        text = summarize_trace({"traceEvents": events})
        assert "profiler lane" not in text

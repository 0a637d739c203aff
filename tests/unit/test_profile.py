"""Unit tests for the span-attributed sampling profiler (repro.obs.profile)."""

import json
import os
import time

import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry, span, use_registry
from repro.obs.profile import (
    DEFAULT_HZ,
    PROFILE_TID,
    SpanProfiler,
    attributed_fraction,
    disable_profiling,
    enable_profiling,
    maybe_task_profiler,
    profile_trace_events,
    profiling_enabled,
    profiling_hz,
    registry_hz,
    reparent_profile_key,
    self_seconds_by_span,
    span_self_times,
    speedscope_document,
    top_frames,
    write_speedscope,
)
from repro.obs.spans import SpanRecord


def read_speedscope(path) -> dict:
    """Load a speedscope JSON file and check it structurally.

    Raises :class:`~repro.errors.ValidationError` on anything the
    speedscope importer would reject: missing ``shared.frames`` /
    ``profiles``, mismatched ``samples``/``weights`` lengths, or frame
    indices outside the shared frame table.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    shared = payload.get("shared")
    if not isinstance(shared, dict) or not isinstance(shared.get("frames"), list):
        raise ValidationError(f"{path}: missing 'shared.frames' list")
    profiles = payload.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValidationError(f"{path}: missing non-empty 'profiles' list")
    n_frames = len(shared["frames"])
    for p_index, profile in enumerate(profiles):
        if not isinstance(profile, dict) or profile.get("type") != "sampled":
            raise ValidationError(
                f"{path}: profile #{p_index} is not a sampled profile"
            )
        sample_stacks = profile.get("samples")
        weights = profile.get("weights")
        if (
            not isinstance(sample_stacks, list)
            or not isinstance(weights, list)
            or len(sample_stacks) != len(weights)
        ):
            raise ValidationError(
                f"{path}: profile #{p_index} samples/weights length mismatch"
            )
        for stack in sample_stacks:
            if not isinstance(stack, list) or any(
                not isinstance(i, int) or not 0 <= i < n_frames for i in stack
            ):
                raise ValidationError(
                    f"{path}: profile #{p_index} has a frame index outside "
                    "the shared frame table"
                )
    return payload


def busy(seconds: float) -> None:
    """Burn CPU so the sampler has something to catch."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(i * i for i in range(500))


SAMPLES = {
    "span:detect.detector.ME;repro/cli.py:main;_methods.py:_mean": 30.0,
    "span:detect.detector.ME;repro/cli.py:main;ar.py:fit": 10.0,
    "span:detect.detector.HC;repro/cli.py:main;hist.py:counts": 20.0,
    "span:-;repro/cli.py:main": 40.0,
}


class TestSampling:
    def test_samples_attribute_to_the_open_span(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with SpanProfiler(registry, hz=250) as profiler:
                with span("unit.hot"):
                    busy(0.25)
        assert sum(profiler.samples.values()) > 0
        assert all(key.startswith("span:") for key in profiler.samples)
        in_span = sum(
            count
            for key, count in profiler.samples.items()
            if key.startswith("span:unit.hot;")
        )
        assert in_span / sum(profiler.samples.values()) > 0.5
        # Frames below the span root are src-relative python labels.
        some_key = next(
            key for key in profiler.samples if key.startswith("span:unit.hot;")
        )
        assert ";" in some_key
        for label in some_key.split(";")[1:]:
            assert ":" in label

    def test_stop_flushes_samples_and_metrics_into_registry(self):
        registry = MetricsRegistry()
        with SpanProfiler(registry, hz=250):
            with use_registry(registry), span("unit.flush"):
                busy(0.1)
        assert registry.profile
        assert registry.counter_value("profile.samples") == pytest.approx(
            sum(registry.profile.values())
        )
        assert registry.gauges["profile.hz"].value == 250.0
        assert registry_hz(registry) == 250.0

    def test_stop_is_idempotent_and_start_returns_self(self):
        profiler = SpanProfiler(MetricsRegistry(), hz=100)
        assert profiler.start() is profiler
        assert profiler.running
        first = profiler.stop()
        assert not profiler.running
        assert profiler.stop() == first

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValidationError, match="hz must be positive"):
            SpanProfiler(MetricsRegistry(), hz=0)

    def test_inner_profiler_wins_over_outer(self):
        # When the execution engine starts a per-task profiler under a
        # CLI-level one, only the innermost records: the outer must not
        # double-count the same threads.
        outer = SpanProfiler(MetricsRegistry(), hz=100).start()
        inner = SpanProfiler(MetricsRegistry(), hz=100).start()
        try:
            outer._sample_once()
            assert outer.samples == {}
            inner._sample_once()
            assert inner.samples
        finally:
            inner.stop()
            outer.stop()

    def test_unattributed_samples_use_the_dash_span(self):
        profiler = SpanProfiler(MetricsRegistry(), hz=100).start()
        try:
            profiler._sample_once()  # no span open on this thread
        finally:
            profiler.stop()
        assert any(key.startswith("span:-;") for key in profiler.samples)


class TestEnablement:
    def test_disabled_is_the_default_and_task_profiler_is_none(self):
        assert not profiling_enabled()
        assert maybe_task_profiler(MetricsRegistry()) is None

    def test_enable_then_disable_round_trip(self):
        enable_profiling(hz=123)
        try:
            assert profiling_enabled()
            assert profiling_hz() == 123
            profiler = maybe_task_profiler(MetricsRegistry())
            assert profiler is not None
            assert profiler.running
            assert profiler.hz == 123
            profiler.stop()
        finally:
            disable_profiling()
        assert not profiling_enabled()


class TestAggregation:
    def test_reparent_prefixes_the_span_segment(self):
        key = "span:detect;repro/cli.py:main"
        assert (
            reparent_profile_key(key, "exec.map.exec.task")
            == "span:exec.map.exec.task.detect;repro/cli.py:main"
        )

    def test_reparent_leaves_unattributed_and_foreign_keys_alone(self):
        assert reparent_profile_key("span:-;f.py:g", "exec.task") == "span:-;f.py:g"
        assert reparent_profile_key("noise", "exec.task") == "noise"
        assert reparent_profile_key("span:detect;f.py:g", "") == "span:detect;f.py:g"

    def test_attributed_fraction(self):
        assert attributed_fraction({}) == 1.0
        assert attributed_fraction(SAMPLES) == pytest.approx(0.6)

    def test_self_seconds_by_span_groups_by_innermost_span(self):
        by_span = self_seconds_by_span(SAMPLES, hz=10)
        assert by_span == pytest.approx(
            {"detect.detector.ME": 4.0, "detect.detector.HC": 2.0, "-": 4.0}
        )

    def test_top_frames_ranks_leaf_frames(self):
        frames = top_frames(SAMPLES, 2)
        assert frames[0] == ("repro/cli.py:main", 40.0)
        assert frames[1] == ("_methods.py:_mean", 30.0)


class TestSpanSelfTimes:
    def test_child_time_is_subtracted_from_parent(self):
        spans = [
            SpanRecord("child", "parent.child", 1, start=1.0, duration=2.0),
            SpanRecord("parent", "parent", 0, start=0.0, duration=10.0),
        ]
        assert span_self_times(spans) == {"parent": [8.0], "parent.child": [2.0]}

    def test_siblings_both_subtract(self):
        spans = [
            SpanRecord("p", "p", 0, start=0.0, duration=10.0),
            SpanRecord("a", "p.a", 1, start=1.0, duration=3.0),
            SpanRecord("b", "p.b", 1, start=5.0, duration=4.0),
        ]
        assert span_self_times(spans) == {"p": [3.0], "p.a": [3.0], "p.b": [4.0]}

    def test_per_pid_containment_never_crosses_processes(self):
        # A worker span inside the parent's wall-clock window must not be
        # subtracted from the parent lane's span.
        spans = [
            SpanRecord("p", "p", 0, start=0.0, duration=10.0, pid=1),
            SpanRecord("w", "w", 0, start=2.0, duration=5.0, pid=2),
        ]
        assert span_self_times(spans) == {"p": [10.0], "w": [5.0]}

    def test_per_record_values_grouped_by_path(self):
        spans = [
            SpanRecord("t", "t", 0, start=0.0, duration=2.0),
            SpanRecord("t", "t", 0, start=5.0, duration=3.0),
        ]
        assert span_self_times(spans) == {"t": [2.0, 3.0]}


class TestExporters:
    def test_speedscope_document_round_trips_weights(self, tmp_path):
        path = tmp_path / "profile.speedscope.json"
        assert write_speedscope(SAMPLES, path, hz=10) == len(SAMPLES)
        payload = read_speedscope(path)
        profile = payload["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert sum(profile["weights"]) == pytest.approx(10.0)
        assert len(profile["samples"]) == len(profile["weights"])
        frame_count = len(payload["shared"]["frames"])
        for stack in profile["samples"]:
            assert all(0 <= index < frame_count for index in stack)

    def test_speedscope_document_dedups_frames(self):
        document = speedscope_document(SAMPLES, hz=10)
        names = [frame["name"] for frame in document["shared"]["frames"]]
        assert len(names) == len(set(names))
        assert "repro/cli.py:main" in names

    def test_read_speedscope_rejects_bad_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="JSON"):
            read_speedscope(path)
        path.write_text(json.dumps({"shared": {"frames": []}, "profiles": []}))
        with pytest.raises(ValidationError, match="profiles"):
            read_speedscope(path)
        path.write_text(json.dumps({
            "shared": {"frames": [{"name": "f"}]},
            "profiles": [{
                "type": "sampled", "samples": [[0]], "weights": [1.0, 2.0],
            }],
        }))
        with pytest.raises(ValidationError, match="weights"):
            read_speedscope(path)
        path.write_text(json.dumps({
            "shared": {"frames": [{"name": "f"}]},
            "profiles": [{
                "type": "sampled", "samples": [[4]], "weights": [1.0],
            }],
        }))
        with pytest.raises(ValidationError, match="frame index"):
            read_speedscope(path)

    def test_profile_trace_events_render_back_to_back(self):
        events = profile_trace_events(SAMPLES, hz=10)
        assert [e["ph"] for e in events] == ["X"] * len(SAMPLES)
        assert all(
            e["pid"] == os.getpid() and e["tid"] == PROFILE_TID for e in events
        )
        assert all(e["cat"] == "profile" for e in events)
        # Back-to-back: each event starts where the previous ended.
        ts = 0.0
        for event in events:
            assert event["ts"] == pytest.approx(ts)
            ts += event["dur"]
        assert ts == pytest.approx(sum(SAMPLES.values()) / 10 * 1e6)

    def test_profile_trace_events_skip_zero_counts(self):
        events = profile_trace_events({"span:a;f.py:g": 0.0}, hz=10)
        assert events == []


class TestArtifact:
    def test_registry_hz_defaults_when_gauge_missing(self):
        assert registry_hz(MetricsRegistry()) == float(DEFAULT_HZ)

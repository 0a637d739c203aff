"""Unit tests for repro.obs.series: recorder and stream sink."""

import pickle

import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry
from repro.obs.series import (
    MetricsStreamWriter,
    TimeSeriesRecorder,
    flatten_registry,
    read_metrics_stream,
)


class TestFlattenRegistry:
    def test_counters_and_gauges_flatten(self):
        registry = MetricsRegistry()
        registry.inc("drift.warnings", 2)
        registry.set_gauge("alert.active", 3.0)
        flat = flatten_registry(registry)
        assert flat["drift.warnings"] == 2.0
        assert flat["alert.active"] == 3.0

    def test_non_finite_gauge_skipped(self):
        registry = MetricsRegistry()
        registry.set_gauge("alert.active", float("nan"))
        registry.set_gauge("series.metrics", float("inf"))
        assert flatten_registry(registry) == {}

    def test_ignored_prefixes_dropped(self):
        registry = MetricsRegistry()
        registry.inc("exec.tasks", 5)
        registry.inc("ledger.appends", 1)
        registry.observe("span.detect.seconds", 0.5)
        registry.inc("drift.warnings")
        assert set(flatten_registry(registry)) == {"drift.warnings"}

    def test_histogram_derived_series(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("alert.latency_epochs", value)
        flat = flatten_registry(registry)
        assert flat["alert.latency_epochs.count"] == 3.0
        assert flat["alert.latency_epochs.mean"] == pytest.approx(2.0)
        assert flat["alert.latency_epochs.max"] == 3.0
        assert "alert.latency_epochs.p50" in flat
        assert "alert.latency_epochs.p90" in flat

    def test_timing_histograms_export_count_only(self):
        registry = MetricsRegistry()
        registry.observe("detector.HC.seconds", 0.25)
        flat = flatten_registry(registry)
        assert flat == {"detector.HC.seconds.count": 1.0}


class TestTimeSeriesRecorder:
    def test_fresh_recorder_is_empty(self):
        recorder = TimeSeriesRecorder()
        assert recorder.empty
        assert recorder.names() == []
        assert recorder.latest() == {}
        assert recorder.last_epoch is None

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            TimeSeriesRecorder(capacity=0)

    def test_single_epoch_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("drift.warnings", 4)
        recorder = TimeSeriesRecorder()
        events = recorder.record_epoch(0, registry)
        assert events == []
        assert not recorder.empty
        assert recorder.series("drift.warnings") == [(0, 4.0)]
        assert recorder.last_epoch == 0

    def test_self_telemetry_appears_from_next_epoch(self):
        # The snapshot is taken before series.* bumps: deterministic
        # regardless of how many metrics the epoch itself added.
        registry = MetricsRegistry()
        registry.inc("drift.warnings")
        recorder = TimeSeriesRecorder()
        recorder.record_epoch(0, registry)
        assert "series.snapshots" not in recorder.names()
        recorder.record_epoch(1, registry)
        assert recorder.series("series.snapshots") == [(1, 1.0)]

    def test_ring_wraparound_keeps_most_recent(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(capacity=4)
        for epoch in range(10):
            registry.inc("online.ratings_ingested")
            recorder.record_epoch(epoch, registry)
        points = recorder.series("online.ratings_ingested")
        assert [epoch for epoch, _ in points] == [6, 7, 8, 9]
        assert registry.counter_value("series.dropped_points") > 0

    def test_same_epoch_resolves_to_max(self):
        registry = MetricsRegistry()
        registry.inc("drift.warnings", 2)
        recorder = TimeSeriesRecorder()
        recorder.record_epoch(3, registry)
        registry.inc("drift.warnings", 5)
        recorder.record_epoch(3, registry)
        assert recorder.series("drift.warnings") == [(3, 7.0)]

    def test_ingest_skips_non_finite(self):
        recorder = TimeSeriesRecorder()
        recorder.ingest_snapshot(0, {"a": 1.0, "b": float("nan")})
        assert recorder.names() == ["a"]

    def test_merge_is_order_independent(self):
        def build(epochs):
            recorder = TimeSeriesRecorder()
            for epoch, value in epochs:
                recorder.ingest_snapshot(epoch, {"m": value})
            return recorder

        a = build([(0, 1.0), (2, 5.0)])
        b = build([(1, 3.0), (2, 4.0)])
        ab = build([])
        ab.merge_state(a.state())
        ab.merge_state(b.state())
        ba = build([])
        ba.merge_state(b.state())
        ba.merge_state(a.state())
        assert ab.state() == ba.state()
        # The epoch-2 conflict resolved to max on both sides.
        assert ab.series("m") == [(0, 1.0), (1, 3.0), (2, 5.0)]

    def test_state_pickles_and_round_trips(self):
        recorder = TimeSeriesRecorder()
        recorder.ingest_snapshot(0, {"m": 1.0})
        recorder.ingest_snapshot(1, {"m": 2.0})
        state = pickle.loads(pickle.dumps(recorder.state()))
        clone = TimeSeriesRecorder()
        clone.merge_state(state)
        assert clone.series("m") == recorder.series("m")
        assert clone.last_epoch == recorder.last_epoch

    def test_merge_truncates_to_capacity(self):
        big = TimeSeriesRecorder()
        for epoch in range(10):
            big.ingest_snapshot(epoch, {"m": float(epoch)})
        small = TimeSeriesRecorder(capacity=3)
        small.merge_state(big.state())
        assert [e for e, _ in small.series("m")] == [7, 8, 9]

    def test_clear_resets_points(self):
        recorder = TimeSeriesRecorder()
        recorder.ingest_snapshot(0, {"m": 1.0})
        recorder.clear()
        assert recorder.empty
        assert recorder.last_epoch is None


class TestMetricsStream:
    def test_writer_reader_round_trip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with MetricsStreamWriter(path) as writer:
            writer.write(0, {"a": 1.0, "b": 2.5})
            writer.write(1, {"a": 2.0})
        assert writer.lines_written == 2
        snapshots = read_metrics_stream(path)
        assert snapshots == [
            (0, {"a": 1.0, "b": 2.5}),
            (1, {"a": 2.0}),
        ]

    def test_corrupt_and_partial_lines_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with MetricsStreamWriter(path) as writer:
            writer.write(0, {"a": 1.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write('{"epoch": 1, "metrics": {"a"')  # partial tail
        assert read_metrics_stream(path) == [(0, {"a": 1.0})]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_metrics_stream(tmp_path / "absent.jsonl") == []

    def test_recorder_streams_through_sink(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        registry = MetricsRegistry()
        registry.inc("drift.warnings")
        recorder = TimeSeriesRecorder(sink=MetricsStreamWriter(path))
        recorder.record_epoch(0, registry)
        recorder.sink.close()
        assert read_metrics_stream(path) == [(0, {"drift.warnings": 1.0})]

"""Unit tests for the observability subsystem (repro.obs) and the
instrumentation threaded through the pipeline."""

import json
import logging

import numpy as np
import pytest

from repro.aggregation import PScheme
from repro.attacks.optimizer import SearchArea, heuristic_region_search
from repro.detectors import JointDetector, provenance_labels
from repro.detectors.base import (
    PROV_L_ARC,
    PROV_MC,
    PROV_PATH1,
    DetectionReport,
)
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    current_span_path,
    get_registry,
    registry_to_dict,
    set_registry,
    setup_logging,
    span,
    use_registry,
    write_json,
)
from repro.types import RatingDataset, RatingStream


def fair_stream(seed=0, days=100, per_day=5, product="p"):
    rng = np.random.default_rng(seed)
    n = int(days * per_day)
    times = np.sort(rng.uniform(0.0, days, n))
    values = np.clip(np.round(rng.normal(4.0, 0.6, n) * 2.0) / 2.0, 0, 5)
    return RatingStream(product, times, values, [f"u{i}" for i in range(n)])


def attacked_stream(seed=0, n_attack=50):
    base = fair_stream(seed=seed)
    rng = np.random.default_rng(seed + 1000)
    times = np.sort(rng.uniform(45.0, 60.0, n_attack))
    values = np.clip(rng.normal(0.8, 0.3, n_attack), 0, 5)
    attack = RatingStream(
        base.product_id, times, values,
        [f"atk{i}" for i in range(n_attack)], unfair=np.ones(n_attack, bool),
    )
    return base.merge(attack)


def small_dataset(seed=0):
    return RatingDataset([fair_stream(seed=seed)])


class TestRegistryPrimitives:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        assert reg.counter_value("a") == 3
        assert reg.counter_value("never") == 0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("a", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.5)
        assert reg.gauges["g"].value == 7.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in [1.0, 2.0, 3.0, 4.0]:
            reg.observe("h", v)
        summary = reg.histograms["h"].summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] <= summary["p50"] <= summary["max"]

    def test_empty_histogram_summary(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        assert reg.histograms["h"].summary() == {"count": 0}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("h", 1.0)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestGlobalRegistry:
    def test_default_is_null(self):
        assert get_registry() is NULL_REGISTRY
        assert not NULL_REGISTRY.enabled

    def test_null_registry_is_noop(self):
        NULL_REGISTRY.inc("x")
        NULL_REGISTRY.observe("y", 1.0)
        NULL_REGISTRY.set_gauge("z", 1.0)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_set_and_restore(self):
        reg = MetricsRegistry()
        previous = set_registry(reg)
        try:
            assert get_registry() is reg
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_use_registry_restores_on_exit(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            get_registry().inc("inside")
        assert get_registry() is NULL_REGISTRY
        assert reg.counter_value("inside") == 1


class TestSpans:
    def test_nested_paths_and_records(self):
        reg = MetricsRegistry()
        with span("outer", reg) as outer:
            assert current_span_path() == "outer"
            with span("inner", reg) as inner:
                assert current_span_path() == "outer.inner"
            assert inner.path == "outer.inner"
            assert inner.depth == 1
        assert current_span_path() == ""
        assert "span.outer.seconds" in reg.histograms
        assert "span.outer.inner.seconds" in reg.histograms
        assert outer.duration >= inner.duration >= 0.0

    def test_durations_monotone_under_nesting(self):
        reg = MetricsRegistry()
        with span("parent", reg):
            for _ in range(3):
                with span("child", reg):
                    sum(range(1000))
        parent = reg.histograms["span.parent.seconds"]
        child = reg.histograms["span.parent.child.seconds"]
        assert child.count == 3
        # The parent encloses all three children.
        assert parent.total >= child.total

    def test_annotations_exported(self):
        reg = MetricsRegistry()
        with span("work", reg) as record:
            record.annotate(items=5)
        dump = registry_to_dict(reg)
        assert dump["spans"][0]["annotations"] == {"items": 5}

    def test_null_registry_fast_path(self):
        with span("anything") as record:
            assert record.path == ""
        assert current_span_path() == ""

    def test_uses_global_registry_when_unspecified(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with span("global-span"):
                pass
        assert "span.global-span.seconds" in reg.histograms


class TestExporters:
    def test_write_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 0.5)
        reg.observe("h", 1.5)
        with span("s", reg):
            pass
        out = tmp_path / "m.json"
        write_json(reg, str(out))
        payload = json.loads(out.read_text())
        assert payload["counters"]["c"] == 2
        assert payload["gauges"]["g"] == 0.5
        assert payload["histograms"]["h"]["count"] == 1
        assert payload["spans"][0]["path"] == "s"


class TestLoggingSetup:
    def test_idempotent_handler_install(self):
        logger = setup_logging("INFO")
        logger2 = setup_logging("DEBUG")
        assert logger is logger2
        assert len(logger.handlers) == 1
        assert logger.level == logging.DEBUG
        assert logger.propagate is False

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            setup_logging("LOUD")


class TestPSchemeTelemetry:
    def test_scores_cache_hits_after_repeat_call(self):
        reg = MetricsRegistry()
        scheme = PScheme(registry=reg)
        dataset = small_dataset()
        first = scheme.monthly_scores(dataset)
        second = scheme.monthly_scores(dataset)
        assert reg.counter_value("pscheme.scores_cache.misses") == 1
        assert reg.counter_value("pscheme.scores_cache.hits") >= 1
        np.testing.assert_allclose(first["p"], second["p"])

    def test_report_cache_counters(self):
        reg = MetricsRegistry()
        scheme = PScheme(registry=reg)
        dataset = small_dataset()
        scheme.detect(dataset)
        assert reg.counter_value("pscheme.report_cache.misses") == 1
        scheme.detect(dataset)
        assert reg.counter_value("pscheme.report_cache.hits") == 1

    def test_stage_spans_recorded(self):
        reg = MetricsRegistry()
        scheme = PScheme(registry=reg)
        scheme.monthly_scores(small_dataset())
        for stage in ("detect", "trust", "aggregate"):
            name = f"span.pscheme.monthly_scores.{stage}.seconds"
            assert name in reg.histograms, name
            assert reg.histograms[name].total >= 0.0
        total = reg.histograms["span.pscheme.monthly_scores.seconds"]
        stages = sum(
            reg.histograms[f"span.pscheme.monthly_scores.{s}.seconds"].total
            for s in ("detect", "trust", "aggregate")
        )
        assert total.total >= stages

    def test_detector_timings_recorded(self):
        # Path 2 consults HC on an L-ARC alarm and ME on an H-ARC alarm,
        # so the stream carries a low attack and a burst of high ratings,
        # which raise both.
        rng = np.random.default_rng(9)
        high = RatingStream(
            "p", np.sort(rng.uniform(20.0, 22.0, 60)), np.full(60, 5.0),
            [f"b{i}" for i in range(60)], unfair=np.ones(60, bool),
        )
        stream = attacked_stream().merge(high)
        reg = MetricsRegistry()
        scheme = PScheme(registry=reg)
        scheme.monthly_scores(RatingDataset([stream]))
        for kind in ("MC", "H-ARC", "L-ARC", "HC", "ME"):
            hist = reg.histograms[
                f"span.pscheme.monthly_scores.detect.detector.{kind}.seconds"
            ]
            assert hist.count == 1
            assert hist.total > 0.0
        # A fair stream raises neither alarm: HC and ME never run.
        reg = MetricsRegistry()
        PScheme(registry=reg).monthly_scores(small_dataset())
        names = [name.split(".")[-2] for name in reg.histograms]
        assert {"MC", "H-ARC", "L-ARC"} <= set(names)
        assert not {"HC", "ME"} & set(names)

    def test_trust_telemetry(self):
        reg = MetricsRegistry()
        scheme = PScheme(registry=reg)
        scheme.monthly_scores(small_dataset())
        assert reg.counter_value("trust.epochs") >= 1
        assert reg.histograms["trust.value"].count >= 1
        assert 0.0 <= reg.histograms["trust.value"].min
        assert reg.histograms["trust.value"].max <= 1.0

    def test_no_registry_means_no_collection(self):
        scheme = PScheme()
        scheme.monthly_scores(small_dataset())
        assert NULL_REGISTRY.snapshot()["counters"] == {}


class TestCachePoisoningRegression:
    def test_detect_returns_write_protected_masks(self):
        scheme = PScheme()
        dataset = small_dataset()
        marks = scheme.detect(dataset)
        mask = marks["p"]
        with pytest.raises(ValueError):
            mask[0] = True

    def test_mutation_attempt_cannot_poison_cache_hits(self):
        scheme = PScheme()
        dataset = RatingDataset([attacked_stream()])
        first = scheme.detect(dataset)["p"]
        original = first.copy()
        with pytest.raises(ValueError):
            first[:] = False
        second = scheme.detect(dataset)["p"]
        np.testing.assert_array_equal(second, original)

    def test_trust_pass_masks_also_protected(self):
        scheme = PScheme()
        dataset = small_dataset()
        marks = scheme.detect(dataset, trust_lookup=lambda rid: 0.5)
        with pytest.raises(ValueError):
            marks["p"][0] = True


class TestProvenance:
    def test_provenance_matches_suspicious_mask(self):
        report = JointDetector().analyze(attacked_stream())
        assert report.any_detection
        assert report.provenance_consistent
        np.testing.assert_array_equal(
            report.provenance != 0, report.suspicious
        )

    def test_marked_ratings_name_contributors(self):
        report = JointDetector().analyze(attacked_stream())
        index = int(np.nonzero(report.suspicious)[0][0])
        labels = report.provenance_of(index)
        assert any(label in ("path1", "path2") for label in labels)
        assert any(
            label in ("MC", "H-ARC", "L-ARC", "HC", "ME") for label in labels
        )

    def test_fair_stream_has_empty_provenance(self):
        report = JointDetector().analyze(fair_stream())
        assert report.provenance_consistent
        if not report.any_detection:
            assert not report.provenance.any()

    def test_provenance_labels_decoding(self):
        code = PROV_PATH1 | PROV_MC | PROV_L_ARC
        assert provenance_labels(code) == ("path1", "MC", "L-ARC")
        assert provenance_labels(0) == ()

    def test_default_provenance_is_zeros(self):
        report = DetectionReport("p", np.zeros(4, dtype=bool))
        assert report.provenance.shape == (4,)
        assert not report.provenance.any()
        with pytest.raises(ValueError):
            report.provenance[0] = 1

    def test_short_stream_report_consistent(self):
        stream = fair_stream()
        short = RatingStream(
            "p", stream.times[:5], stream.values[:5],
            tuple(stream.rater_ids[:5]),
        )
        report = JointDetector().analyze(short)
        assert report.provenance_consistent


class TestSearchTelemetry:
    def test_probe_counters_and_timings(self):
        reg = MetricsRegistry()
        area = SearchArea(bias_min=-4.0, bias_max=0.0, std_min=0.0, std_max=2.0)
        result = heuristic_region_search(
            lambda bias, std: -bias * (1.0 + std),
            area,
            n_subareas=4,
            probes_per_subarea=2,
            max_rounds=2,
            registry=reg,
        )
        probes = reg.counter_value("search.probes")
        assert probes >= 8  # 2 rounds x 4 subareas x 2 probes, plus final
        assert reg.histograms["search.probe_seconds"].count == probes
        assert reg.histograms["search.probe_mp"].count == probes
        assert reg.gauges["search.best_mp"].value == pytest.approx(
            result.best_mp
        )

    def test_batched_path_observes_mp_per_request_and_no_timings(self):
        reg = MetricsRegistry()
        area = SearchArea(bias_min=-4.0, bias_max=0.0, std_min=0.0, std_max=2.0)
        batches = []

        def probe_batch(requests):
            batches.append(list(requests))
            return [-bias * (1.0 + std) * count for bias, std, count in requests]

        heuristic_region_search(
            None,
            area,
            n_subareas=4,
            probes_per_subarea=2,
            max_rounds=2,
            registry=reg,
            probe_batch=probe_batch,
        )
        requests = [request for batch in batches for request in batch]
        assert len(batches) >= 2
        assert reg.histograms["search.probe_mp"].count == len(requests)
        assert reg.counter_value("search.probes") == sum(r[2] for r in requests)
        # The evaluator's ``exec.map`` span times a batch; no per-request
        # share of it is recorded.
        assert "search.probe_seconds" not in reg.histograms


class TestHistogramEdgeCases:
    def test_percentile_on_empty_is_nan(self):
        from repro.obs import Histogram

        hist = Histogram()
        for q in (0, 50, 99, 100):
            assert np.isnan(hist.percentile(q))

    def test_percentile_on_single_sample_is_that_sample(self):
        from repro.obs import Histogram

        hist = Histogram()
        hist.observe(2.5)
        for q in (0, 37, 50, 99, 100):
            assert hist.percentile(q) == pytest.approx(2.5)

    def test_merge_state_with_empty_donor_is_noop(self):
        from repro.obs import Histogram

        hist = Histogram()
        hist.observe(1.0)
        hist.merge_state(*Histogram().state())
        assert hist.count == 1
        assert hist.min == hist.max == 1.0

    def test_merge_state_into_empty_reproduces_donor(self):
        from repro.obs import Histogram

        donor = Histogram()
        for v in (3.0, 1.0, 2.0):
            donor.observe(v)
        hist = Histogram()
        hist.merge_state(*donor.state())
        assert hist.summary() == donor.summary()

    @pytest.mark.parametrize("values", [
        # Order-sensitive sums: a compensated or pairwise sum rounds
        # these differently from left-to-right accumulation.
        [1e16, 1.0, -1e16, 0.1, 0.7, 1e-3, 3.0] * 100,
        [0.4, float("nan"), -2.0, 9.0],
    ])
    def test_observe_many_matches_an_observe_loop(self, values):
        from repro.obs import Histogram

        looped, batched = Histogram(), Histogram()
        for hist in (looped, batched):
            for value in (2.5, 0.1, 0.2):
                hist.observe(value)
        for value in values:
            looped.observe(value)
        batched.observe_many(iter(values))
        # repr is exact for floats and renders NaN alike on both sides.
        assert repr(batched.state()) == repr(looped.state())


class TestSpansAcrossThreads:
    def test_span_stacks_are_thread_local(self):
        import threading

        registry = MetricsRegistry()
        paths = {}

        def worker(tag):
            with span(f"outer-{tag}", registry):
                with span("inner", registry) as record:
                    paths[tag] = record.path

        with use_registry(registry):
            with span("main-span", registry):
                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        # Other threads never see this thread's open spans: their paths
        # start at their own roots, not under "main-span".
        assert paths[0] == "outer-0.inner"
        assert paths[1] == "outer-1.inner"

    def test_fresh_span_stack_isolates_and_restores(self):
        from repro.obs import fresh_span_stack

        registry = MetricsRegistry()
        with span("outer", registry):
            assert current_span_path() == "outer"
            with fresh_span_stack():
                assert current_span_path() == ""
                with span("task-root", registry) as record:
                    assert record.path == "task-root"
                    assert record.depth == 0
            assert current_span_path() == "outer"


class TestNullRegistryCapsulePath:
    def test_null_registry_adopt_span_is_noop(self):
        from repro.obs import SpanRecord

        NULL_REGISTRY.adopt_span(SpanRecord(name="x", path="x", depth=0))
        assert NULL_REGISTRY.spans == []

    def test_capture_of_null_registry_is_empty(self):
        from repro.obs import TelemetryCapsule
        from repro.obs.registry import NullRegistry

        null = NullRegistry()
        null.inc("anything", 5)
        null.observe("h", 1.0)
        capsule = TelemetryCapsule.capture(null)
        assert capsule.empty

    def test_merge_into_disabled_registry_is_noop(self):
        from repro.obs import TelemetryCapsule

        donor = MetricsRegistry()
        donor.inc("detector.joint.calls", 2)
        capsule = TelemetryCapsule.capture(donor)
        disabled = MetricsRegistry()
        disabled.enabled = False
        capsule.merge_into(disabled)
        assert disabled.snapshot()["counters"] == {}

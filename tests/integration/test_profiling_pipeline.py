"""Integration tests for the sampling profiler on real pipeline work.

Pins the acceptance criteria for ``repro.obs.profile``: sample
attribution on the detector workload stays >= 95%, the sampler's own
CPU work at the default rate stays under 10% of the workload's
(slow-marked), profiles ride telemetry capsules out of live worker
processes, and the CLI round-trips a run directory's ``profile.json``
through ``repro profile`` and its speedscope re-export.
"""

from contextlib import nullcontext

import pytest

from repro.attacks.population import PopulationConfig, generate_population
from repro.cli import main
from repro.detectors import JointDetector
from repro.marketplace.challenge import RatingChallenge
from repro.obs import (
    MetricsRegistry,
    SpanProfiler,
    disable_profiling,
    enable_profiling,
    read_speedscope,
    set_registry,
    span,
    use_registry,
)
from repro.obs.export import PROFILE_FILE
from repro.obs.profile import attributed_fraction, read_profile

SEED = 2008


def detector_workload(population_size, registry, profile=False, hz=97, passes=1):
    """The bench-detectors scenario: joint detection over attacked data.

    The attacked datasets are built before the profiler starts, and the
    detection loop runs ``passes`` times under a ``detect`` span as
    ``PScheme.detect`` does in production, so every profiled sample has
    a span to land in.  Passes after the first find every stream's
    curves in the detector's cache, so they are mostly decision work.
    """
    challenge = RatingChallenge(seed=SEED)
    population = generate_population(
        challenge, PopulationConfig(size=population_size), seed=SEED + 1
    )
    datasets = [challenge.attacked_dataset(s) for s in population]
    detector = JointDetector(registry=registry)
    profiler = SpanProfiler(registry, hz=hz) if profile else nullcontext()
    with use_registry(registry), span("detect", registry), profiler:
        for _ in range(passes):
            for dataset in datasets:
                for product_id in dataset:
                    detector.analyze(dataset[product_id])


class TestAttribution:
    def test_at_least_95_percent_of_samples_land_in_a_span(self):
        registry = MetricsRegistry()
        # 499 Hz, not the default 97, and 25 passes: the sub-detector
        # spans hold about 6% of the first pass's ~55 ms and about 12% of
        # each cached pass's ~22 ms, so about 35 samples are expected
        # there. One pass alone gives them 0-5, too few for the check
        # below to pass every time.
        detector_workload(2, registry, profile=True, hz=499, passes=25)
        assert sum(registry.profile.values()) > 0
        assert attributed_fraction(registry.profile) >= 0.95
        # Attribution reaches the individual sub-detector spans, not
        # just the outer ``detect`` span.
        assert any(
            key.startswith("span:detect.detector.") for key in registry.profile
        )


def sampler_cost(hz=97):
    """``(sampler CPU seconds, samples taken, plain CPU seconds, profiled
    wall seconds)`` of the detector workload.

    The sampler's work is counted, not timed against a second run: every
    ``SpanProfiler._sample_once`` call is wrapped to sum the sampler
    thread's own CPU time (``time.thread_time``).  The plain run's
    process CPU time is the basis.
    """
    import time

    detector_workload(4, MetricsRegistry())  # warm caches/imports
    start = time.process_time()
    detector_workload(4, MetricsRegistry())
    plain_cpu = time.process_time() - start

    sample_once = SpanProfiler._sample_once
    spent = {"cpu": 0.0, "calls": 0}

    def counted(self):
        tick = time.thread_time()
        try:
            sample_once(self)
        finally:
            spent["cpu"] += time.thread_time() - tick
            spent["calls"] += 1

    SpanProfiler._sample_once = counted
    try:
        start = time.perf_counter()
        detector_workload(4, MetricsRegistry(), profile=True, hz=hz)
        profiled_wall = time.perf_counter() - start
    finally:
        SpanProfiler._sample_once = sample_once
    return spent["cpu"], spent["calls"], plain_cpu, profiled_wall


@pytest.mark.slow
class TestOverhead:
    def test_profiler_overhead_under_ten_percent(self):
        """The profiler at the default rate costs under 10% of the
        workload it samples, counted as the sampler thread's CPU time."""
        hz = 97
        sampler_cpu, calls, plain_cpu, profiled_wall = sampler_cost(hz)
        assert calls > 0
        assert sampler_cpu / plain_cpu < 0.10, (
            f"sampler CPU {sampler_cpu:.4f}s is {sampler_cpu / plain_cpu:.3f} "
            f"of the plain run's {plain_cpu:.3f}s, over the 0.10 budget"
        )
        # Absolute-deadline pacing never bursts past the configured rate.
        assert calls <= hz * profiled_wall + 1


class TestWorkerProfiles:
    def test_parallel_tasks_profile_themselves_and_merge_back(self):
        from repro.experiments.context import ExperimentContext

        registry = MetricsRegistry()
        previous = set_registry(registry)
        enable_profiling(hz=200)
        try:
            context = ExperimentContext(
                seed=SEED,
                population_size=3,
                workers=2,
                hermetic_telemetry=True,
            )
            context.results_for("P")
            context.close()
        finally:
            disable_profiling()
            set_registry(previous)
        assert registry.profile
        # Worker samples were re-parented under the dispatching span.
        assert any(
            key.startswith("span:exec.map.exec.task.")
            for key in registry.profile
        )
        assert registry.counter_value("profile.samples") == pytest.approx(
            sum(registry.profile.values())
        )


class TestCliProfileRoundTrip:
    def test_profile_out_then_inspect_and_reexport(self, tmp_path, capsys):
        profile_path = tmp_path / PROFILE_FILE
        speedscope_path = tmp_path / "profile.speedscope.json"
        status = main([
            "population",
            "--seed", "7",
            "--size", "3",
            "--scheme", "P",
            "--top", "2",
            "--run-dir", str(tmp_path),
        ])
        assert status == 0
        payload = read_profile(profile_path)  # structural validation
        assert sum(payload["samples"].values()) > 0

        status = main([
            "profile", "--run-dir", str(tmp_path),
            "--top", "5",
            "--speedscope", str(speedscope_path),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "structurally valid" in out
        assert "span-attributed" in out
        document = read_speedscope(speedscope_path)
        assert document["profiles"][0]["samples"]

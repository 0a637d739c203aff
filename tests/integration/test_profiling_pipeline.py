"""Integration tests for the sampling profiler on real pipeline work.

Pins the ISSUE's acceptance criteria for ``repro.obs.profile``: sample
attribution on the detector workload stays >= 95%, the profiler's
wall-clock overhead at the default rate stays under 10% (slow-marked --
timing-sensitive), profiles ride telemetry capsules out of live worker
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


def detector_workload(population_size, registry, profile=False, hz=97):
    """The bench-detectors scenario: joint detection over attacked data.

    The attacked datasets are built before the profiler starts, and the
    detection loop runs under a ``detect`` span as ``PScheme.detect``
    does in production, so every profiled sample has a span to land in.
    """
    challenge = RatingChallenge(seed=SEED)
    population = generate_population(
        challenge, PopulationConfig(size=population_size), seed=SEED + 1
    )
    datasets = [challenge.attacked_dataset(s) for s in population]
    detector = JointDetector(registry=registry)
    profiler = SpanProfiler(registry, hz=hz) if profile else nullcontext()
    with use_registry(registry), span("detect", registry), profiler:
        for dataset in datasets:
            for product_id in dataset:
                detector.analyze(dataset[product_id])


class TestAttribution:
    def test_at_least_95_percent_of_samples_land_in_a_span(self):
        registry = MetricsRegistry()
        # 499 Hz, not the default 97: the sub-detector spans hold only
        # ~25 ms of this workload, two or three samples at 97 Hz, so the
        # check below failed whenever none happened to land there.
        detector_workload(2, registry, profile=True, hz=499)
        assert sum(registry.profile.values()) > 0
        assert attributed_fraction(registry.profile) >= 0.95
        # Attribution reaches the individual sub-detector spans, not
        # just the outer ``detect`` span.
        assert any(
            key.startswith("span:detect.detector.") for key in registry.profile
        )


@pytest.mark.slow
class TestOverhead:
    def test_profiler_overhead_under_ten_percent(self):
        """bench_obs_baseline's profiler_overhead_ratio, as an assertion."""
        import time

        def timed(profile):
            registry = MetricsRegistry()
            start = time.perf_counter()
            detector_workload(4, registry, profile=profile)
            return time.perf_counter() - start

        timed(False)  # warm caches/imports before measuring
        timed(True)
        # Five pairs, interleaved with the order flipped each pair, so
        # host drift hits both sides alike; the minimum of each side is
        # what the workload costs without scheduler noise, which is the
        # honest overhead basis.
        runs = {False: [], True: []}
        for pair in range(5):
            for profile in (pair % 2 == 1, pair % 2 == 0):
                runs[profile].append(timed(profile))
        plain, profiled = min(runs[False]), min(runs[True])
        assert profiled / plain < 1.10, (
            f"profiler overhead x{profiled / plain:.3f} exceeds the 1.10 "
            f"budget (plain={plain:.2f}s profiled={profiled:.2f}s)"
        )


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

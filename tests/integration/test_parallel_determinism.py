"""Serial vs parallel (and cold vs cached) runs must be bit-identical.

The execution engine's whole contract is that ``workers`` and
``cache_dir`` are pure throughput knobs: every figure, search
trajectory, and MP value is the same no matter how the work was
dispatched.  These tests pin that contract end to end.
"""

import numpy as np
import pytest

from repro.analysis.landscape import sweep_landscape
from repro.exec import MPCache, ParallelEvaluator
from repro.experiments.context import ExperimentContext
from repro.experiments.figures import (
    run_bias_variance_figure,
    run_headline_comparison,
    run_region_search_figure,
)
from repro.experiments.sensitivity import sweep_detector_parameter
from repro.marketplace.challenge import RatingChallenge
from repro.obs import MetricsRegistry, set_registry

SEED = 2008
POP = 6


def assert_mp_results_equal(a, b):
    """MPResult equality (dataclass ``==`` chokes on the ndarray dicts)."""
    assert a.scheme_name == b.scheme_name
    assert a.total == b.total
    assert a.per_product == b.per_product
    assert set(a.deltas) == set(b.deltas)
    for pid in a.deltas:
        assert np.array_equal(a.deltas[pid], b.deltas[pid])


@pytest.fixture(scope="module")
def serial_context():
    return ExperimentContext(seed=SEED, population_size=POP)


@pytest.fixture(scope="module")
def parallel_context():
    context = ExperimentContext(seed=SEED, population_size=POP, workers=2)
    yield context
    context.close()


class TestPopulationDeterminism:
    def test_headline_comparison_identical(self, serial_context, parallel_context):
        serial = run_headline_comparison(serial_context)
        parallel = run_headline_comparison(parallel_context)
        assert serial.max_mp == parallel.max_mp

    def test_all_results_bit_identical(self, serial_context, parallel_context):
        for scheme in ("P", "SA", "BF"):
            serial = serial_context.results_for(scheme)
            parallel = parallel_context.results_for(scheme)
            assert set(serial) == set(parallel)
            for sid in serial:
                assert_mp_results_equal(serial[sid], parallel[sid])

    def test_fig2_surface_identical(self, serial_context, parallel_context):
        serial = run_bias_variance_figure(serial_context, "P")
        parallel = run_bias_variance_figure(parallel_context, "P")
        assert serial.points == parallel.points
        assert serial.winner_region_counts == parallel.winner_region_counts


class TestRegionSearchDeterminism:
    def test_trajectories_identical_across_worker_counts(self):
        context = ExperimentContext(seed=SEED, population_size=2)
        serial = run_region_search_figure(context, "SA", probes_per_subarea=2)
        parallel_ctx = ExperimentContext(
            seed=SEED, population_size=2, workers=2
        )
        try:
            parallel = run_region_search_figure(
                parallel_ctx, "SA", probes_per_subarea=2
            )
        finally:
            parallel_ctx.close()
        assert len(serial.search.rounds) == len(parallel.search.rounds)
        for a, b in zip(serial.search.rounds, parallel.search.rounds):
            assert a.area == b.area
            assert a.subareas == b.subareas
            assert a.scores == b.scores
            assert a.best_index == b.best_index
        assert serial.search.best_mp == parallel.search.best_mp
        assert serial.search.final_area == parallel.search.final_area


class TestLandscapeDeterminism:
    def test_grid_identical_across_worker_counts(self):
        challenge = RatingChallenge(seed=SEED)
        kwargs = dict(
            bias_values=(-3.0, -1.0), std_values=(0.2, 1.0), probes=2, seed=3
        )
        serial = sweep_landscape(challenge, "SA", **kwargs)
        with ParallelEvaluator(workers=2) as evaluator:
            parallel = sweep_landscape(
                challenge, "SA", evaluator=evaluator, **kwargs
            )
        assert np.array_equal(serial.mp, parallel.mp)
        assert serial.peak == parallel.peak


class TestSensitivityDeterminism:
    def test_sweep_identical_across_worker_counts(self):
        kwargs = dict(n_fair_worlds=1, n_attacks=1, seed=5)
        values = [2.0, 8.0]
        serial = sweep_detector_parameter(
            "larc_peak_threshold", values, **kwargs
        )
        with ParallelEvaluator(workers=2) as evaluator:
            parallel = sweep_detector_parameter(
                "larc_peak_threshold", values, evaluator=evaluator, **kwargs
            )
        assert serial == parallel


class TestCacheDeterminism:
    def test_warm_cache_replays_cold_results(self, tmp_path):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            cold_ctx = ExperimentContext(
                seed=SEED, population_size=3, cache_dir=str(tmp_path)
            )
            cold = cold_ctx.results_for("SA")
            assert registry.counter_value("exec.cache.misses") > 0
            # A fresh context (new process in spirit) replays from disk.
            warm_ctx = ExperimentContext(
                seed=SEED, population_size=3, cache_dir=str(tmp_path)
            )
            warm = warm_ctx.results_for("SA")
            assert registry.counter_value("exec.cache.disk_hits") == 3
        finally:
            set_registry(previous)
        assert set(cold) == set(warm)
        for sid in cold:
            assert_mp_results_equal(cold[sid], warm[sid])

    def test_cache_hit_equals_cold_evaluation(self, tmp_path):
        cache = MPCache(cache_dir=tmp_path, registry=MetricsRegistry())
        evaluator = ParallelEvaluator(
            workers=0, cache=cache, registry=MetricsRegistry()
        )
        from repro.exec import PopulationEvalTask

        task = PopulationEvalTask(
            root_seed=SEED, population_size=2, scheme_name="SA", index=0
        )
        cold = evaluator.map([task])[0]
        cache.clear_memory()
        warm = evaluator.map([task])[0]
        assert_mp_results_equal(cold, warm)


@pytest.mark.slow
class TestPaperScaleParallel:
    """Exercise the pool at closer-to-paper scale (excluded from tier 1)."""

    def test_headline_comparison_identical_at_scale(self):
        serial_ctx = ExperimentContext(seed=SEED, population_size=25)
        parallel_ctx = ExperimentContext(
            seed=SEED, population_size=25, workers=4
        )
        try:
            for scheme in ("P", "SA", "BF"):
                serial = serial_ctx.results_for(scheme)
                parallel = parallel_ctx.results_for(scheme)
                for sid in serial:
                    assert_mp_results_equal(serial[sid], parallel[sid])
            assert (
                run_headline_comparison(serial_ctx).max_mp
                == run_headline_comparison(parallel_ctx).max_mp
            )
        finally:
            parallel_ctx.close()

"""Unit tests for the repro.exec execution engine."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.errors import ExecutionError, ValidationError
from repro.exec import (
    EvalTask,
    MPCache,
    ParallelEvaluator,
    PopulationEvalTask,
    RegionProbeTask,
    canonical_bytes,
    derive_seed,
    get_shared_scheme,
    share_challenge,
    stable_fingerprint,
)
from repro.marketplace.challenge import RatingChallenge
from repro.obs.registry import MetricsRegistry


# --------------------------------------------------------------------- #
# Hashing
# --------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    y: int
    label: str


class TestCanonicalBytes:
    def test_covers_value_types(self):
        values = [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            float("nan"),
            "text",
            b"bytes",
            np.arange(4.0),
            (1, 2),
            [1, 2],
            {"a": 1},
            {3, 1, 2},
            _Point(1.0, 2, "p"),
        ]
        for value in values:
            assert isinstance(canonical_bytes(value), bytes)

    def test_distinct_values_distinct_encodings(self):
        pairs = [
            (0, 0.0),  # int vs float are different cache identities
            (True, 1),
            ("1", 1),
            ((1, 2), (2, 1)),
            (np.float64(1.5), np.float32(1.5).item() + 1e-9),
            (_Point(1.0, 2, "p"), _Point(1.0, 2, "q")),
        ]
        for a, b in pairs:
            assert canonical_bytes(a) != canonical_bytes(b)

    def test_set_encoding_order_independent(self):
        assert canonical_bytes({1, 2, 3}) == canonical_bytes({3, 2, 1})

    def test_dict_encoding_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_ndarray_dtype_and_shape_matter(self):
        a = np.arange(4, dtype=np.int64)
        assert canonical_bytes(a) != canonical_bytes(a.astype(np.float64))
        assert canonical_bytes(a) != canonical_bytes(a.reshape(2, 2))

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_fingerprint_is_stable_hex(self):
        fp = stable_fingerprint(_Point(1.0, 2, "p"))
        assert fp == stable_fingerprint(_Point(1.0, 2, "p"))
        int(fp, 16)  # hex, safe as a filename


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1.5) == derive_seed(7, "a", 1.5)

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, "a", 1.5, 0)
        assert derive_seed(8, "a", 1.5, 0) != base
        assert derive_seed(7, "b", 1.5, 0) != base
        assert derive_seed(7, "a", 1.6, 0) != base
        assert derive_seed(7, "a", 1.5, 1) != base

    def test_in_numpy_seed_range(self):
        for trial in range(20):
            seed = derive_seed(trial, "x")
            assert 0 <= seed < 2**63
            np.random.default_rng(seed)


# --------------------------------------------------------------------- #
# Cache
# --------------------------------------------------------------------- #


class TestMPCache:
    def test_memory_roundtrip(self):
        cache = MPCache(registry=MetricsRegistry())
        hit, _ = cache.get("k")
        assert not hit
        cache.put("k", {"v": 1})
        hit, value = cache.get("k")
        assert hit and value == {"v": 1}

    def test_disk_roundtrip_and_metrics(self, tmp_path):
        reg = MetricsRegistry()
        cache = MPCache(cache_dir=tmp_path, registry=reg)
        cache.put("a", [1, 2, 3])
        cache.clear_memory()
        assert len(cache) == 0
        hit, value = cache.get("a")
        assert hit and value == [1, 2, 3]
        assert reg.counter_value("exec.cache.disk_hits") == 1
        assert reg.counter_value("exec.cache.puts") == 1

    def test_second_process_would_see_entry(self, tmp_path):
        MPCache(cache_dir=tmp_path, registry=MetricsRegistry()).put("a", 41)
        fresh = MPCache(cache_dir=tmp_path, registry=MetricsRegistry())
        hit, value = fresh.get("a")
        assert hit and value == 41

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        reg = MetricsRegistry()
        cache = MPCache(cache_dir=tmp_path, registry=reg)
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        hit, _ = cache.get("bad")
        assert not hit
        assert reg.counter_value("exec.cache.misses") == 1
        assert reg.counter_value("exec.cache.corrupt") == 1

    def test_corrupt_entries_counted_but_warned_once(self, tmp_path):
        import logging

        reg = MetricsRegistry()
        cache = MPCache(cache_dir=tmp_path, registry=reg)
        for name in ("bad1", "bad2", "bad3"):
            (tmp_path / f"{name}.pkl").write_bytes(b"torn")
        # Listen on the module logger directly: the repro tree does not
        # propagate to root once setup_logging has run elsewhere.
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        cache_logger = logging.getLogger("repro.exec.cache")
        cache_logger.addHandler(handler)
        old_level = cache_logger.level
        cache_logger.setLevel(logging.WARNING)
        try:
            for name in ("bad1", "bad2", "bad3"):
                assert cache.get(name) == (False, None)
        finally:
            cache_logger.removeHandler(handler)
            cache_logger.setLevel(old_level)
        assert reg.counter_value("exec.cache.corrupt") == 3
        warnings = [r for r in records if "unreadable" in r.getMessage()]
        assert len(warnings) == 1

    def test_missing_entry_is_not_counted_corrupt(self, tmp_path):
        reg = MetricsRegistry()
        cache = MPCache(cache_dir=tmp_path, registry=reg)
        hit, _ = cache.get("never-written")
        assert not hit
        assert reg.counter_value("exec.cache.corrupt") == 0
        assert reg.counter_value("exec.cache.misses") == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = MPCache(cache_dir=tmp_path, registry=MetricsRegistry())
        for i in range(5):
            cache.put(f"k{i}", np.arange(i))
        leftovers = [p for p in tmp_path.iterdir() if not p.name.endswith(".pkl")]
        assert leftovers == []


# --------------------------------------------------------------------- #
# Tasks
# --------------------------------------------------------------------- #


class TestTasks:
    def test_population_task_matches_direct_evaluation(self):
        from repro.experiments.context import ExperimentContext

        context = ExperimentContext(seed=13, population_size=2)
        task = PopulationEvalTask(
            root_seed=13, population_size=2, scheme_name="SA", index=1
        )
        direct = context.challenge.evaluate(
            context.population[1], context.scheme("SA"), validate=False
        )
        via_task = task.run()
        assert via_task.total == direct.total
        assert via_task.per_product == direct.per_product

    def test_tasks_pickle(self):
        task = RegionProbeTask(
            challenge_seed=3, scheme_name="SA", targets=(), bias=-2.0,
            std=0.5, trial=0, seed_root=8,
        )
        assert pickle.loads(pickle.dumps(task)) == task

    def test_fingerprint_changes_with_any_field(self):
        base = PopulationEvalTask(
            root_seed=1, population_size=2, scheme_name="SA", index=0
        )
        variants = [
            dataclasses.replace(base, root_seed=2),
            dataclasses.replace(base, scheme_name="BF"),
            dataclasses.replace(base, index=1),
        ]
        fingerprints = {base.fingerprint} | {v.fingerprint for v in variants}
        assert len(fingerprints) == 4

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValidationError):
            get_shared_scheme(("challenge", 0), "nope")

    def test_share_challenge_requires_seed(self):
        challenge = RatingChallenge(seed=4)
        share_challenge(challenge)  # reconstructible: fine
        opaque = RatingChallenge(fair_dataset=challenge.fair_dataset)
        assert opaque.seed is None
        with pytest.raises(ValidationError):
            share_challenge(opaque)

    def test_base_task_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            EvalTask().run()


# --------------------------------------------------------------------- #
# ParallelEvaluator
# --------------------------------------------------------------------- #


_CALLS = []


@dataclasses.dataclass(frozen=True)
class _SquareTask(EvalTask):
    value: int

    def run(self) -> int:
        _CALLS.append(self.value)
        return self.value**2


@dataclasses.dataclass(frozen=True)
class _BoomTask(EvalTask):
    def run(self):
        raise ValueError("boom")


class TestParallelEvaluator:
    def setup_method(self):
        _CALLS.clear()

    def test_serial_map_preserves_order(self):
        evaluator = ParallelEvaluator(workers=0, registry=MetricsRegistry())
        tasks = [_SquareTask(v) for v in (3, 1, 2)]
        assert evaluator.map(tasks) == [9, 1, 4]
        assert _CALLS == [3, 1, 2]

    def test_cache_elides_repeat_work(self):
        reg = MetricsRegistry()
        evaluator = ParallelEvaluator(
            workers=0, cache=MPCache(registry=reg), registry=reg
        )
        first = evaluator.map([_SquareTask(5)])
        second = evaluator.map([_SquareTask(5)])
        assert first == second == [25]
        assert _CALLS == [5]  # second map never re-ran the task
        assert reg.counter_value("exec.cache.hits") == 1

    def test_duplicate_tasks_in_one_map_hit_cache(self):
        evaluator = ParallelEvaluator(
            workers=0, cache=MPCache(registry=MetricsRegistry()),
            registry=MetricsRegistry(),
        )
        assert evaluator.map([_SquareTask(2)] * 3) == [4, 4, 4]
        assert _CALLS == [2]

    def test_failure_raises_execution_error(self):
        reg = MetricsRegistry()
        evaluator = ParallelEvaluator(workers=0, registry=reg)
        with pytest.raises(ExecutionError, match="boom"):
            evaluator.map([_BoomTask()])
        assert reg.counter_value("exec.failures") == 1

    def test_task_metrics_recorded(self):
        reg = MetricsRegistry()
        evaluator = ParallelEvaluator(workers=0, registry=reg)
        evaluator.map([_SquareTask(v) for v in range(4)])
        assert reg.histograms["span.exec.task.seconds"].count == 4
        assert [s.path for s in reg.spans].count("exec.map.exec.task") == 4

    def test_pool_matches_serial(self):
        tasks = [
            PopulationEvalTask(
                root_seed=13, population_size=3, scheme_name="SA", index=i
            )
            for i in range(3)
        ]
        serial = ParallelEvaluator(workers=0, registry=MetricsRegistry()).map(tasks)
        with ParallelEvaluator(workers=2, registry=MetricsRegistry()) as pooled:
            parallel = pooled.map(tasks)
        for a, b in zip(serial, parallel):
            assert a.total == b.total
            assert a.per_product == b.per_product
            assert set(a.deltas) == set(b.deltas)
            for pid in a.deltas:
                assert np.array_equal(a.deltas[pid], b.deltas[pid])

    def test_context_manager_close_keeps_serial_path_usable(self):
        evaluator = ParallelEvaluator(workers=0, registry=MetricsRegistry())
        with evaluator:
            pass
        assert evaluator.map([_SquareTask(6)]) == [36]

    def test_explicit_chunksize(self):
        reg = MetricsRegistry()
        tasks = [
            PopulationEvalTask(
                root_seed=13, population_size=3, scheme_name="SA", index=i
            )
            for i in range(3)
        ]
        with ParallelEvaluator(workers=2, registry=reg) as evaluator:
            evaluator.map(tasks)
        if reg.counter_value("exec.pool_fallbacks") == 0:
            assert reg.counter_value("exec.chunks") == 3

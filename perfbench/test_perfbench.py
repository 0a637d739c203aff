"""Self-test of the benchmark: tiny-size smoke runs of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import re
from pathlib import Path

import pytest

import bootstrap
import run

bootstrap.prepare_environment()
import layers  # noqa: E402  (needs the path set up above)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _names(kind):
    return [metric["name"] for metric in SPEC[kind]]


def test_spec_lists_every_emitted_per_layer_metric():
    assert _names("per_layer") == [name for name, _, _ in layers.per_layer_specs()]
    assert set(_names("end_to_end")) == set(run.END_TO_END_UNITS)
    assert set(WORKLOADS) == {"headline", "search", "online"}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(workload, trace):
    result, record = run.run_benchmark(workload, 3, 0.01, trace, scale="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"] + record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _names("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == expected
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert set(entry) == {"value", "unit"}
        assert math.isfinite(entry["value"])
    env = record["env"]
    for key in ("nproc", "python", "numpy", "scipy", "blas_threads", "git_sha"):
        assert key in env
    assert record["load"] == {"worker_processes": 0, "threads": 1}
    assert record["evaluator_workers"] == ([] if workload == "online" else [0])


def test_traced_run_attributes_layers_to_their_workloads():
    online, _ = run.run_benchmark("online", 3, 0.01, True, scale="tiny")
    search, _ = run.run_benchmark("search", 3, 0.01, True, scale="tiny")

    def value(result, name):
        return result["metrics"][name]["value"]

    assert value(online, "online.ingest.self_s") > 0
    assert value(search, "online.ingest.self_s") == 0
    assert value(search, "aggregation.BF.self_s") == 0
    shares = [
        value(search, f"{layer}.share") for layer in layers.LAYERS
    ] + [value(search, "other.share")]
    assert math.isclose(sum(shares), 1.0)


def test_a_pass_warmed_by_an_earlier_one_is_flagged(monkeypatch):
    import types

    import workloads

    # Without the per-pass reset of the engine's shared objects, the
    # P-scheme and its report cache outlive a pass: later passes give the
    # same outputs with less detection work.  Earlier runs in this process
    # leave their last pass's objects behind, so start from an empty one.
    workloads.exec_tasks._SHARED.clear()
    monkeypatch.setattr(workloads, "exec_tasks", types.SimpleNamespace(_SHARED={}))
    result, record = run.run_benchmark("search", 3, 0.01, True, scale="tiny")
    assert record["passes"]["traced"] >= 2
    assert result["failed"] == 0
    assert not result["correct"]
    assert any("cold one" in problem for problem in record["problems"])


@pytest.mark.parametrize("workload", ["headline", "online"])
def test_an_op_that_raises_is_counted_not_fatal(workload):
    result, record = run.run_benchmark(
        workload, 3, 0.01, False, scale="tiny", fail_op=1
    )
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["attempted"] > 1
    assert 0 < record["failed_frac"] < 1
    assert "ForcedOpFailure" in record["errors"][0]


def test_an_output_mismatch_is_counted(monkeypatch):
    def wrong_pins(workload, seed, size):
        return {"size": size, "ops": [0.5] * 9, "pass": "0"}

    monkeypatch.setattr(run, "load_pins", wrong_pins)
    result, record = run.run_benchmark("headline", 3, 0.01, False, scale="tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 9
    assert any("pass digest" in problem for problem in record["problems"])


def test_every_workload_is_pinned_on_two_seeds():
    import workloads

    pins = json.loads(run.PINS.read_text())
    assert set(pins) == set(WORKLOADS)
    for workload, seeds in pins.items():
        assert set(seeds) == {"2008", "7"}
        for entry in seeds.values():
            assert entry["size"] == workloads.SIZES[workload]["full"]


def test_a_pinned_seed_reproduces_its_digest():
    result, record = run.run_benchmark("headline", 7, 0.01, True)
    assert record["pinned"]
    assert result["correct"], record["problems"] + record["errors"]


def test_without_sources_the_command_fails_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bootstrap, "SRC", tmp_path / "src")
    code = run.main(["--workload", "headline", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

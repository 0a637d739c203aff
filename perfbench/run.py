"""End-to-end, layer-by-layer benchmark of the repro pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``headline``: a population scored under P, SA and BF (the paper's E7);
- ``search``: Procedure 2 region search against the P-scheme;
- ``online``: online replays of population submissions.

A run repeats identical passes over the seed's inputs.  With ``--trace
0`` it reports the end-to-end metrics: ``setup_s`` (median of fresh
set-up processes), ``ops_per_s`` and ``op_p50_ms`` (from each op's
fastest repetition across passes), and ``peak_rss_mb``.  The summary
lines add ``op_tail_ms`` (over every op latency of the run) and
``failed_frac``.  Taking each op's fastest repetition keeps seconds-long
contention on a shared host out of the figures.  With ``--trace 1`` it
alternates traced and untraced passes, starting with a traced one, and
reports the per-layer metrics of the traced ones.  Every traced pass
must do the same counted work as the first, cold one.  Every op's output
is checked: against the values pinned in ``perfbench/digests.json`` for
a pinned seed, else against the first pass.  The last line of output is
one JSON object; the exit code is 0 only when every check passed and no
op failed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import bootstrap

HERE = Path(__file__).resolve().parent
PINS = HERE / "digests.json"

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = {"full": 5, "tiny": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("headline", "search", "online")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------- #
# Run environment
# --------------------------------------------------------------------- #


def blas_threads() -> Optional[int]:
    """The thread count the loaded OpenBLAS reports (None if unknown)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def git_sha() -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(bootstrap.ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=bootstrap.ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """Content digest of ``src/**/*.py``: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(bootstrap.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(bootstrap.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_record() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in bootstrap.BLAS_ENV},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "platform": platform.platform(),
    }


def host_steal_seconds() -> Optional[float]:
    """CPU time the hypervisor has taken from this machine, all CPUs."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def load_sample() -> Dict[str, int]:
    """Worker processes and threads alive in this process right now."""
    return {
        "worker_processes": len(multiprocessing.active_children()),
        "threads": threading.active_count(),
    }


def single_process_problems(
    load: Dict[str, int], evaluator_workers: List[int]
) -> List[str]:
    """The load ran in this process on one thread, with no workers."""
    problems = []
    if load["worker_processes"]:
        problems.append(f"{load['worker_processes']} worker processes were alive")
    if load["threads"] != 1:
        problems.append(f"{load['threads']} threads were alive")
    if any(evaluator_workers):
        problems.append(f"evaluators ran with {evaluator_workers} workers; expected 0")
    return problems


# --------------------------------------------------------------------- #
# Measurements
# --------------------------------------------------------------------- #


def setup_sample(workload: str, seed: int, size: int) -> Dict[str, float]:
    """Time one fresh process from its start to the workload's inputs built."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(size)],
        cwd=bootstrap.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    marks = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "setup_s": marks["ready"] - spawned,
        "import_s": marks["imported"] - marks["started"],
        "build_s": marks["ready"] - marks["imported"],
    }


def tail_latency(latencies: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with 10 samples above.

    With fewer than 11 samples there is no such percentile; the maximum
    is reported as the 100th.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def best_latencies(passes: List[List[Optional[float]]]) -> List[float]:
    """Each op's fastest completed repetition across identical passes."""
    best = []
    for repetitions in zip(*passes):
        done = [t for t in repetitions if t is not None]
        if done:
            best.append(min(done))
    return best


def load_pins(workload: str, seed: int, size: int) -> Optional[Dict[str, Any]]:
    """The pinned outputs for this workload, seed and size, if recorded."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    entry = pins.get(workload, {}).get(str(seed))
    return entry if entry is not None and entry["size"] == size else None


class PassChecker:
    """Checks each pass's op outputs and pass digest against expectations.

    Expectations come from the pinned record when there is one, else
    from the first pass: every pass does identical work, so every pass
    must reproduce it exactly.  Traced passes are also checked for the
    work they did, as counted by the layer wrappers and the program's
    counters: every pass must start from the same cold state, so a pass
    that does less work than the first, cold one has been warmed by an
    earlier pass and would report a gain a fresh run never sees.
    """

    def __init__(self, bench, pinned: Optional[Dict[str, Any]]) -> None:
        self.bench = bench
        self.expected_ops = list(pinned["ops"]) if pinned else None
        self.expected_digest = pinned["pass"] if pinned else None
        self.expected_work: Optional[Dict[str, float]] = None
        self.problems: List[str] = []

    def check(self, oplog, offset: int, extra: Dict[str, Any]) -> None:
        outputs = oplog.outputs[offset:]
        if self.expected_ops is None:
            self.expected_ops = list(outputs)
        if len(outputs) != len(self.expected_ops):
            self.problems.append(
                f"pass ran {len(outputs)} ops, expected {len(self.expected_ops)}"
            )
        for i, (got, want) in enumerate(zip(outputs, self.expected_ops)):
            if got is not None and want is not None and got != want:
                oplog.mark_failed(offset + i, f"{got!r} != {want!r}")
        self.problems.extend(self.bench.check_pass(outputs, extra))
        digest = self.bench.pass_digest(outputs, extra)
        if self.expected_digest is None:
            self.expected_digest = digest
        elif digest != self.expected_digest:
            self.problems.append(
                f"pass digest {digest} != expected {self.expected_digest}"
            )

    def check_work(self, work: Dict[str, float]) -> None:
        if self.expected_work is None:
            self.expected_work = work
            return
        differ = sorted(
            name
            for name in set(work) | set(self.expected_work)
            if work.get(name, 0) != self.expected_work.get(name, 0)
        )
        if differ:
            shown = {
                name: (self.expected_work.get(name, 0), work.get(name, 0))
                for name in differ[:5]
            }
            self.problems.append(
                f"a traced pass did other work than the first, cold one "
                f"(first, this): {shown}"
            )


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    fail_op: Optional[int] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one benchmark; return ``(result, record)``.

    Passes repeat until they have run for ``seconds`` (a pass is not
    started when less than half of the last one would fit).  Untraced
    runs time a fresh set-up process before the first pass and after
    each pass, so the set-up samples spread over the run.  Traced runs
    alternate traced and untraced passes, starting traced so that the
    first traced pass is the process's cold one, and run at least two
    traced passes so that the work of a later one is checked against it.

    ``result`` is the final JSON line; ``record`` holds everything else
    worth keeping (environment, pass digest, tail percentile, errors).
    ``fail_op`` forces the op with that index to raise (self-test only).
    """
    import_start = time.perf_counter()
    import layers
    import workloads
    from repro.obs.registry import MetricsRegistry, use_registry

    bootstrap.check_imported_sources()
    import_s = time.perf_counter() - import_start
    # Drift warnings are logged per epoch; keep them off stderr so log
    # I/O is not part of what the online workload measures.
    logging.getLogger("repro").setLevel(logging.ERROR)

    bench = workloads.WORKLOADS[workload]
    size = workloads.SIZES[workload][scale]
    pinned = load_pins(workload, seed, size)
    checker = PassChecker(bench, pinned)
    oplog = workloads.OpLog(fail_op=fail_op)
    tracer = layers.LayerTracer() if trace else None
    registry = MetricsRegistry() if trace else None
    setup_left = 0 if trace else SETUP_REPEATS[scale]
    setup_samples: List[Dict[str, float]] = []
    walls: Dict[str, List[float]] = {"untraced": [], "traced": []}
    op_phases: List[float] = []  # op-phase seconds of each untraced pass
    pass_latencies: List[List[Optional[float]]] = []
    search_requests = 0
    load = load_sample()
    evaluator_workers: List[int] = []
    steal_start = host_steal_seconds()

    while True:
        if setup_left:
            setup_samples.append(setup_sample(workload, seed, size))
            setup_left -= 1
        traced = trace and len(walls["traced"]) <= len(walls["untraced"])
        if traced:
            work_before = layers.work_done(tracer, registry)
        with ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed())
                stack.enter_context(use_registry(registry))
            pass_start = time.perf_counter()
            inputs = bench.prepare(seed, size)
            ops_start = time.perf_counter()
            offset = oplog.attempted
            extra = bench.run_pass(inputs, oplog)
            pass_end = time.perf_counter()
        del inputs
        walls["traced" if traced else "untraced"].append(pass_end - pass_start)
        now = load_sample()
        load = {k: max(v, now[k]) for k, v in load.items()}
        if "evaluator_workers" in extra:
            evaluator_workers.append(extra["evaluator_workers"])
        checker.check(oplog, offset, extra)
        if traced:
            search_requests += extra.get("requests", 0)
            work_after = layers.work_done(tracer, registry)
            checker.check_work(
                {
                    name: count - work_before.get(name, 0)
                    for name, count in work_after.items()
                    if count != work_before.get(name, 0)
                }
            )
        else:
            op_phases.append(pass_end - ops_start)
            pass_latencies.append(oplog.latencies[offset:])

        elapsed = sum(walls["untraced"]) + sum(walls["traced"])
        last = pass_end - pass_start
        if elapsed + last / 2 > seconds and (not trace or len(walls["traced"]) >= 2):
            break
    while setup_left:
        setup_samples.append(setup_sample(workload, seed, size))
        setup_left -= 1
    problems = checker.problems + single_process_problems(load, evaluator_workers)
    steal_end = host_steal_seconds()

    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "scale": scale,
        "trace": int(trace),
        "pinned": pinned is not None,
        "passes": {kind: len(w) for kind, w in walls.items()},
        "pass_walls_s": walls,
        "pass_digest": checker.expected_digest,
        "ops": {"attempted": oplog.attempted, "failed": oplog.failed},
        "failed_frac": oplog.failed / max(oplog.attempted, 1),
        "load": load,
        "evaluator_workers": sorted(set(evaluator_workers)),
        "host_steal_s": (
            steal_end - steal_start if None not in (steal_start, steal_end) else None
        ),
        "problems": problems,
        "errors": oplog.errors[:20],
    }
    metrics: Dict[str, float] = {}
    if trace:
        traced_wall = sum(walls["traced"])
        passes = len(walls["traced"])
        metrics.update(tracer.layer_metrics(traced_wall, passes))
        metrics.update(layers.registry_metrics(registry, passes, search_requests))
        metrics["obs.trace_overhead"] = min(walls["traced"]) / min(walls["untraced"])
        metrics["setup.import_s"] = import_s
        record["cross_check"] = layers.span_cross_check(tracer, registry)
        units = {name: unit for name, unit, _ in layers.per_layer_specs()}
    else:
        best = best_latencies(pass_latencies)
        completed = [t for latencies in pass_latencies for t in latencies if t is not None]
        tail, percentile = tail_latency(completed) if completed else (0.0, 0.0)
        # Time a pass spends between ops (engine and search bookkeeping):
        # its op phase minus its ops' own latencies.
        between = [
            phase - sum(t for t in latencies if t is not None)
            for latencies, phase in zip(pass_latencies, op_phases)
        ]
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup_samples)
        metrics["ops_per_s"] = len(best) / (sum(best) + statistics.median(between))
        metrics["op_p50_ms"] = statistics.median(best) * 1e3 if best else 0.0
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        record["ops_per_pass"] = len(best)
        record["op_tail_ms"] = tail * 1e3
        record["op_tail_percentile"] = percentile
        record["op_tail_samples"] = len(completed)
        record["pass_ops_per_s"] = [
            sum(t is not None for t in latencies) / phase
            for latencies, phase in zip(pass_latencies, op_phases)
        ]
        record["setup_samples"] = setup_samples
        units = END_TO_END_UNITS
    record["env"] = environment_record()

    result = {
        "correct": oplog.failed == 0 and not problems,
        "attempted": oplog.attempted,
        "failed": oplog.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare_environment()
    except bootstrap.MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        for name, entry in result["metrics"].items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
        print(
            f"op_tail_ms {record['op_tail_ms']:.6g} ms "
            f"(p{record['op_tail_percentile']:.3g} of {record['op_tail_samples']} ops)"
        )
        print(f"failed_frac {record['failed_frac']:.6g} ratio")
    for problem in record["problems"] + record["errors"]:
        print(f"check: {problem}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

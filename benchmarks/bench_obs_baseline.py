"""Observability baseline: the headline MP benchmark with metrics on.

Times the E7 headline comparison (P vs SA vs BF over one challenge world
and synthetic population) in three variants -- the no-op metrics sink
(the uninstrumented wall clock), a collecting registry, and the registry
plus the sampling profiler -- and writes the timings, the
instrumentation overhead ratio, the profiler overhead ratio
(instrumented+profiled over instrumented) and the P-scheme report-cache
hit counts to ``BENCH_obs_baseline.json`` at the repo root.

A second measurement times the series recording path: the online
challenge replay (epoch closes snapshotting the registry, streaming
JSONL, evaluating the default alert ruleset) against the same replay
with no recorder attached -- ``series_overhead_ratio`` in the payload,
asserted < 1.05 by the slow-marked benchmark test.

Both measurements run their variants interleaved, run by run, and take
the best of several samples of at least ``MIN_SAMPLE_SECONDS`` per
variant (see :func:`measure_series_overhead`).

Population size defaults to 30 (a quick pass); set ``REPRO_POPULATION``
to 251 for the full paper-scale run, matching the pytest benches.

Usage::

    make bench-baseline
    # or
    PYTHONPATH=src python benchmarks/bench_obs_baseline.py [out.json]
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.aggregation import PScheme
from repro.experiments import ExperimentContext, run_headline_comparison
from repro.marketplace.challenge import RatingChallenge
from repro.obs import (
    DEFAULT_RULES_PATH,
    AlertEngine,
    MetricsRegistry,
    MetricsStreamWriter,
    SpanProfiler,
    TimeSeriesRecorder,
    load_rules,
    use_registry,
)
from repro.obs.profile import attributed_fraction

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_obs_baseline.json"

#: Shortest timed sample of the series-overhead measurement, in seconds.
MIN_SAMPLE_SECONDS = 0.5


#: The headline variants, in the order the first round runs them.
HEADLINE_VARIANTS = ("plain", "instrumented", "profiled")


def _run(population: int, variant: str):
    """One headline run from a cold context; ``(wall seconds, registry)``.

    ``variant`` is ``plain`` (no metrics sink), ``instrumented`` (a
    collecting registry) or ``profiled`` (the registry plus the sampling
    profiler at the default rate, what a ``--run-dir`` run adds).
    """
    registry = None if variant == "plain" else MetricsRegistry()
    context = ExperimentContext(seed=2008, population_size=population)
    start = time.perf_counter()
    with use_registry(registry):
        if variant == "profiled":
            with SpanProfiler(registry):
                run_headline_comparison(context)
        else:
            run_headline_comparison(context)
    return time.perf_counter() - start, registry


def _replay_once(challenge, with_series: bool) -> float:
    """One online replay under a collecting registry; wall seconds.

    ``with_series`` attaches the full recording stack an operator would
    run: per-epoch snapshots, a JSONL stream sink, and the default
    alert ruleset.
    """
    registry = MetricsRegistry()
    recorder = sink = None
    if with_series:
        handle = tempfile.NamedTemporaryFile(
            suffix=".jsonl", delete=False
        )
        handle.close()
        sink = MetricsStreamWriter(handle.name)
        recorder = TimeSeriesRecorder(
            sink=sink,
            engine=AlertEngine(load_rules(DEFAULT_RULES_PATH)),
        )
        registry.attach_series(recorder)
    start = time.perf_counter()
    challenge.replay_online(PScheme(), registry=registry)
    elapsed = time.perf_counter() - start
    if sink is not None:
        sink.close()
        os.unlink(sink.path)
    return elapsed


def _interleaved_sample(run_once, variants) -> dict:
    """Each variant's mean wall seconds per run over one sample.

    The variants run one after another, in reversed order every other
    round, until each has run for at least ``MIN_SAMPLE_SECONDS``.
    """
    seconds = dict.fromkeys(variants, 0.0)
    rounds = 0
    while min(seconds.values()) < MIN_SAMPLE_SECONDS:
        order = variants if rounds % 2 == 0 else variants[::-1]
        for variant in order:
            seconds[variant] += run_once(variant)
        rounds += 1
    return {variant: total / rounds for variant, total in seconds.items()}


def measure_series_overhead(repeats: int = 5) -> dict:
    """Best-of-``repeats`` online-replay timings with and without the
    series recorder; the ratio is what a ``--run-dir`` run's
    ``series.jsonl`` costs.

    The two variants run *interleaved* replay by replay (plain, series,
    series, plain, ...), and each timed sample sums at least
    ``MIN_SAMPLE_SECONDS`` of replays per variant.  Host load drifts in
    phases: on a shared 2-vCPU container, replays ran 40-60% slower for
    one to two seconds at a time, so a variant timed in a block of its
    own could land in a slow phase the other missed.  Replay-level
    interleaving puts both variants in the same phases.  The true
    recording cost, about 0.2 ms per epoch close, is far below that
    noise.  Timings are seconds per replay.
    """
    challenge = RatingChallenge(seed=2008)
    _replay_once(challenge, False)  # warm caches outside the timings
    _replay_once(challenge, True)
    samples = [
        _interleaved_sample(lambda v: _replay_once(challenge, v), (False, True))
        for _ in range(repeats)
    ]
    plain = min(sample[False] for sample in samples)
    recorded = min(sample[True] for sample in samples)
    return {
        "replay_seconds": plain,
        "replay_with_series_seconds": recorded,
        "series_overhead_ratio": recorded / plain if plain else None,
    }


def measure_headline_overhead(population: int, repeats: int = 5) -> dict:
    """Best-of-``repeats`` headline timings of the three variants.

    Timed like :func:`measure_series_overhead`: the variants alternate
    run by run, each sample holds at least ``MIN_SAMPLE_SECONDS`` of runs
    per variant, and each variant keeps its fastest sample.  Timed with
    one cold run per variant, the ratios read 0.88-1.22 (telemetry) and
    0.95-1.14 (profiler) over five invocations: host noise, which hid a
    telemetry cost of about 5%.  Also returns the last collecting and
    profiled registries, for their counters.
    """
    registries = {}

    def run_once(variant):
        seconds, registries[variant] = _run(population, variant)
        return seconds

    for variant in HEADLINE_VARIANTS:  # warm imports outside the timings
        run_once(variant)
    # A run outlasts MIN_SAMPLE_SECONDS, so a sample is one round: flip
    # the order from sample to sample instead.
    samples = [
        _interleaved_sample(
            run_once, HEADLINE_VARIANTS[::-1] if i % 2 else HEADLINE_VARIANTS
        )
        for i in range(repeats)
    ]
    best = {v: min(sample[v] for sample in samples) for v in HEADLINE_VARIANTS}
    return {"seconds": best, "registries": registries}


def main() -> int:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    population = int(os.environ.get("REPRO_POPULATION", "30"))

    headline = measure_headline_overhead(population)
    baseline_seconds = headline["seconds"]["plain"]
    instrumented_seconds = headline["seconds"]["instrumented"]
    profiled_seconds = headline["seconds"]["profiled"]
    registry = headline["registries"]["instrumented"]
    profiled_registry = headline["registries"]["profiled"]

    # The online replay with and without series recording.
    series = measure_series_overhead()

    payload = {
        "benchmark": "headline_mp_comparison",
        "population": population,
        "baseline_seconds": baseline_seconds,
        "instrumented_seconds": instrumented_seconds,
        "overhead_ratio": (
            instrumented_seconds / baseline_seconds if baseline_seconds else None
        ),
        "profiled_seconds": profiled_seconds,
        "profiler_overhead_ratio": (
            profiled_seconds / instrumented_seconds
            if instrumented_seconds else None
        ),
        "profile_attributed_fraction": attributed_fraction(
            profiled_registry.profile
        ),
        **series,
        "report_cache": {
            "hits": registry.counter_value("pscheme.report_cache.hits"),
            "misses": registry.counter_value("pscheme.report_cache.misses"),
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"population={population}")
    print(f"baseline      : {baseline_seconds:.2f}s (no metrics sink)")
    print(f"instrumented  : {instrumented_seconds:.2f}s "
          f"(x{payload['overhead_ratio']:.3f})")
    print(f"profiled      : {profiled_seconds:.2f}s "
          f"(x{payload['profiler_overhead_ratio']:.3f} over instrumented, "
          f"{payload['profile_attributed_fraction']:.1%} attributed)")
    print(f"online replay : {series['replay_seconds']:.3f}s plain, "
          f"{series['replay_with_series_seconds']:.3f}s with series "
          f"(x{series['series_overhead_ratio']:.3f})")
    hits = payload["report_cache"]["hits"]
    misses = payload["report_cache"]["misses"]
    total = hits + misses
    if total:
        print(f"report cache  : {hits:.0f}/{total:.0f} hits "
              f"({100.0 * hits / total:.1f}%)")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Detector hot-path baseline: the joint detector under the profiler.

Runs :class:`~repro.detectors.JointDetector` over every product stream
of every attacked dataset in a seeded challenge population, with a
collecting registry and the span-attributed sampling profiler on, and
writes ``BENCH_detectors.json`` at the repo root:

- per sub-detector (MC, H-ARC, L-ARC, HC, ME) and for the
  ``detector.batch`` precompute (which builds every stream's MC curve and
  ARC series, and the HC and ME curves of the streams Path 2 consults):
  call count plus p50/p90 wall-clock seconds from the
  ``span.detector.<kind>.seconds`` span histograms, so the regression
  gate also sees the curve work that runs inside the batch.  Each
  ``analyze_batch`` call runs every sub-detector it needs over the whole
  batch under one span, so ``calls`` counts batches and the p50s are per
  batch; HC runs only on a batch with an L-ARC alarm and ME only on one
  with an H-ARC alarm, so a kind no batch consulted has no entry;
- the reports' H-ARC and L-ARC alarm counts (``alarms``) and how many
  reports hold an HC and an ME curve (``consulted``): Path 2 consults HC
  on each L-ARC alarm and ME on each H-ARC alarm, and the gate holds the
  two counts equal;
- aggregate ``analyze_batch`` wall time per population (the batching win,
  distinct from the per-detector incremental win);
- the top self-time frames the profiler attributed to detector spans;
- the overall sample attribution fraction and sampling rate.

Detection runs through :meth:`JointDetector.analyze_batch` -- the
production path since the batched fast-path rewrite -- so the per-kind
percentiles reflect what serial, parallel, and online runs actually pay.

The committed file pins the detector hot-path baseline: future PRs that
touch the detectors re-run ``make bench-detectors`` and diff the per-kind
percentiles and the frame ranking.  A speedscope export of the same
profile lands next to the other benchmark artifacts in
``benchmarks/results/``.

Population size defaults to 30 (a quick pass); set ``REPRO_POPULATION``
to 251 for the full paper-scale run, matching the pytest benches.

Usage::

    make bench-detectors
    # or
    PYTHONPATH=src python benchmarks/bench_detectors.py [out.json]
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.attacks.population import PopulationConfig, generate_population
from repro.detectors import JointDetector
from repro.marketplace.challenge import RatingChallenge
from repro.obs import MetricsRegistry, SpanProfiler, use_registry
from repro.obs.profile import attributed_fraction, top_frames, write_speedscope

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_detectors.json"
SPEEDSCOPE_OUT = (
    Path(__file__).resolve().parent / "results" / "detectors.speedscope.json"
)
DETECTOR_KINDS = ("batch", "MC", "H-ARC", "L-ARC", "HC", "ME")


def main() -> int:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    population_size = int(os.environ.get("REPRO_POPULATION", "30"))

    challenge = RatingChallenge(seed=2008)
    population = generate_population(
        challenge, PopulationConfig(size=population_size), seed=2009
    )

    registry = MetricsRegistry()
    detector = JointDetector(registry=registry)
    streams = 0
    alarms = {"H-ARC": 0, "L-ARC": 0}
    consulted = {"HC": 0, "ME": 0}
    batch_seconds = []
    start = time.perf_counter()
    with use_registry(registry), SpanProfiler(registry):
        for submission in population:
            dataset = challenge.attacked_dataset(submission)
            batch_start = time.perf_counter()
            reports = detector.analyze_batch(dataset)
            batch_seconds.append(time.perf_counter() - batch_start)
            streams += len(reports)
            for report in reports.values():
                for kind, fired in report.alarms.items():
                    alarms[kind] += fired
                for kind in consulted:
                    consulted[kind] += kind in report.curves
    wall_seconds = time.perf_counter() - start

    detectors = {}
    for kind in DETECTOR_KINDS:
        hist = registry.histograms.get(f"span.detector.{kind}.seconds")
        if hist is None or not hist.count:
            continue
        detectors[kind] = {
            "calls": float(hist.count),
            "p50_seconds": hist.percentile(50),
            "p90_seconds": hist.percentile(90),
        }

    samples = registry.profile
    total_batch = sum(batch_seconds)
    payload = {
        "benchmark": "detector_hot_path",
        "population": population_size,
        "streams_analyzed": streams,
        "wall_seconds": wall_seconds,
        "analyze_batch": {
            "datasets": len(batch_seconds),
            "total_seconds": total_batch,
            "mean_seconds_per_dataset": (
                total_batch / len(batch_seconds) if batch_seconds else 0.0
            ),
        },
        "hz": registry.gauges["profile.hz"].value,
        "total_samples": sum(samples.values()),
        "attributed_fraction": attributed_fraction(samples),
        "detectors": detectors,
        "alarms": alarms,
        "consulted": consulted,
        "top_self_frames": [
            {"frame": frame, "samples": count}
            for frame, count in top_frames(samples, 10)
        ],
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    SPEEDSCOPE_OUT.parent.mkdir(parents=True, exist_ok=True)
    write_speedscope(
        samples, SPEEDSCOPE_OUT, hz=payload["hz"], name="detector hot path"
    )

    print(f"population={population_size} streams={streams} "
          f"wall={wall_seconds:.2f}s")
    print(f"analyze_batch: {len(batch_seconds)} datasets in "
          f"{total_batch:.2f}s "
          f"({payload['analyze_batch']['mean_seconds_per_dataset'] * 1e3:.1f}ms "
          f"per dataset)")
    print(f"profile: {payload['total_samples']:.0f} samples at "
          f"{payload['hz']:.0f} Hz, "
          f"{payload['attributed_fraction']:.1%} span-attributed")
    for kind, stats in detectors.items():
        print(f"  {kind:6s} calls={stats['calls']:.0f}  "
              f"p50={stats['p50_seconds'] * 1e3:.3f}ms  "
              f"p90={stats['p90_seconds'] * 1e3:.3f}ms")
    print(f"alarms: H-ARC {alarms['H-ARC']}, L-ARC {alarms['L-ARC']}; "
          f"consulted: ME {consulted['ME']}, HC {consulted['HC']}")
    print(f"wrote {out_path}")
    print(f"wrote {SPEEDSCOPE_OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Series recording must be nearly free (slow-marked, timing-sensitive).

A ``--run-dir`` run snapshots the registry, streams ``series.jsonl``, and
runs the default alert ruleset once per epoch close -- microseconds
against a replay measured in tenths of seconds.  This pins the budget the bench
records as ``series_overhead_ratio`` in ``BENCH_obs_baseline.json``.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.mark.slow
class TestSeriesOverhead:
    def test_series_recording_overhead_under_five_percent(self):
        sys.path.insert(0, str(BENCHMARKS))
        try:
            from bench_obs_baseline import measure_series_overhead
        finally:
            sys.path.remove(str(BENCHMARKS))
        result = measure_series_overhead(repeats=3)
        ratio = result["series_overhead_ratio"]
        assert ratio < 1.05, (
            f"series recording overhead x{ratio:.3f} exceeds the 1.05 "
            f"budget (plain={result['replay_seconds']:.2f}s "
            f"recorded={result['replay_with_series_seconds']:.2f}s)"
        )

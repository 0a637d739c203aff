"""Gate a fresh detector bench run against the committed baseline.

Compares a freshly produced ``BENCH_detectors.json`` (first argument)
against the committed reference file (second argument) and fails when

- any per-detector p50 present in both records regressed more than
  ``ALLOWED_RATIO`` (1.5x), subject to a noise floor: p50s below
  ``NOISE_FLOOR_SECONDS`` in both records are too close to timer
  resolution on shared CI runners to gate on;
- a kind that runs on every detected stream (``ALWAYS_RUN``) is missing
  from the fresh run;
- the fresh count of reports holding an ME or HC curve (``consulted``)
  differs from the fresh H-ARC or L-ARC alarm count: Path 2 consults ME
  on each H-ARC alarm and HC on each L-ARC alarm, and nowhere else, so a
  small population may consult neither;
- an ME or HC span entry is present without a consultation, or missing
  with one.  Spans count batches (one per ``analyze_batch`` call and
  kind that ran), not consultations.

Structural checks from the original smoke job are kept here too, so the
CI step stays a single invocation::

    python benchmarks/check_detector_regression.py fresh.json committed.json
"""

import json
import sys
from pathlib import Path

ALLOWED_RATIO = 1.5
NOISE_FLOOR_SECONDS = 0.010
ALWAYS_RUN = ("batch", "MC", "H-ARC", "L-ARC")
#: Path 2's consulted kind -> the alarm it is consulted on.
CONSULTED_ON = {"ME": "H-ARC", "HC": "L-ARC"}


def check_structure(fresh: dict) -> None:
    for key in (
        "benchmark",
        "detectors",
        "analyze_batch",
        "top_self_frames",
        "attributed_fraction",
        "hz",
        "wall_seconds",
        "alarms",
        "consulted",
    ):
        assert key in fresh, f"missing {key}"
    assert fresh["benchmark"] == "detector_hot_path"
    assert set(fresh["detectors"]), "no detector stats recorded"
    for stats in fresh["detectors"].values():
        assert stats["calls"] > 0
        assert stats["p90_seconds"] >= stats["p50_seconds"] >= 0
    batch = fresh["analyze_batch"]
    assert batch["datasets"] > 0
    assert batch["total_seconds"] >= 0


def check_consultations(fresh: dict) -> list:
    failures = []
    for kind in ALWAYS_RUN:
        if kind not in fresh["detectors"]:
            failures.append(f"{kind}: missing from fresh run")
    for kind, alarm in CONSULTED_ON.items():
        consulted = int(fresh["consulted"][kind])
        alarms = int(fresh["alarms"][alarm])
        if consulted != alarms:
            failures.append(
                f"{kind}: {consulted} reports hold its curve, but {alarms} "
                f"{alarm} alarms (Path 2 consults {kind} once per {alarm} alarm)"
            )
        if (kind in fresh["detectors"]) != (consulted > 0):
            failures.append(
                f"{kind}: span entry {'present' if consulted == 0 else 'missing'}"
                f" with {consulted} consultations"
            )
    return failures


def check_regressions(fresh: dict, committed: dict) -> list:
    failures = []
    for kind, ref in committed.get("detectors", {}).items():
        now = fresh["detectors"].get(kind)
        if now is None:
            continue
        ref_p50 = float(ref["p50_seconds"])
        now_p50 = float(now["p50_seconds"])
        # Below the noise floor, timer jitter dominates: only gate once
        # the fresh p50 clears the floor outright.
        limit = max(ALLOWED_RATIO * ref_p50, NOISE_FLOOR_SECONDS)
        if now_p50 > limit:
            failures.append(
                f"{kind}: p50 {now_p50 * 1e3:.3f}ms exceeds limit "
                f"{limit * 1e3:.3f}ms "
                f"(committed {ref_p50 * 1e3:.3f}ms x {ALLOWED_RATIO})"
            )
    return failures


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    fresh = json.loads(Path(sys.argv[1]).read_text())
    committed = json.loads(Path(sys.argv[2]).read_text())
    check_structure(fresh)
    failures = check_consultations(fresh) + check_regressions(fresh, committed)
    print("structure OK:", sorted(fresh["detectors"]))
    for kind in sorted(committed.get("detectors", {})):
        ref = committed["detectors"][kind]
        now = fresh["detectors"].get(kind, {})
        print(
            f"  {kind:6s} committed p50={float(ref['p50_seconds']) * 1e3:.3f}ms  "
            f"fresh p50={float(now.get('p50_seconds', float('nan'))) * 1e3:.3f}ms"
        )
    if failures:
        print("REGRESSION:")
        for failure in failures:
            print(" -", failure)
        return 1
    print("ME and HC consultations match the H-ARC and L-ARC alarms; no per-detector "
          f"p50 regression beyond {ALLOWED_RATIO}x "
          f"(noise floor {NOISE_FLOOR_SECONDS * 1e3:.0f}ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

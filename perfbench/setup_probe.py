"""One set-up sample: import ``repro`` and build a workload's inputs.

Run as a fresh process by ``run.py`` (``setup_probe.py WORKLOAD SEED
SIZE``).  Prints one JSON line of ``time.monotonic()`` readings, which
share one clock with the parent on Linux, so the parent measures set-up
from the moment it started this process.
"""

import json
import sys
import time

if __name__ == "__main__":
    started = time.monotonic()
    import bootstrap

    bootstrap.prepare_environment()
    import workloads

    bootstrap.check_imported_sources()
    imported = time.monotonic()
    name, seed, size = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    workloads.WORKLOADS[name].prepare(seed, size)
    ready = time.monotonic()
    print(json.dumps({"started": started, "imported": imported, "ready": ready}))

"""Locate the checkout's ``repro`` sources and pin the run environment.

Standard library only: this runs before ``repro`` or numpy is imported,
so the BLAS thread count it sets takes effect.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One BLAS thread: the load is a single driver thread, so more BLAS
#: threads would only add contention, and never more than ``nproc``.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSources(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def prepare_environment() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Raises :class:`MissingSources` when ``src/repro`` is absent, so a
    benchmark copied away from its sources fails instead of measuring
    some other installed ``repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSources(f"no repro package under {SRC}")
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported_sources() -> None:
    """Raise unless ``repro`` was imported from this checkout's ``src``."""
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSources(f"repro was imported from {origin}, not {SRC}")

"""Shared low-level helpers used across the :mod:`repro` library.

The submodules are deliberately small and dependency-free (numpy only):

- :mod:`repro.utils.validation` -- argument checking helpers that raise
  :class:`repro.errors.ValidationError` with readable messages.
- :mod:`repro.utils.rng` -- seeding helpers producing
  :class:`numpy.random.Generator` instances.
"""

from repro.utils.rng import resolve_rng, spawn_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "resolve_rng",
    "spawn_rng",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
]

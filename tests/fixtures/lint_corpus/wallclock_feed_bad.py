"""wall-clock: a clock read feeding a fingerprint input."""

import time

from repro.exec.hashing import derive_seed


def now_tag() -> int:
    # The read is pragma'd: this module *means* to read the clock here.
    # The feed below must still be flagged, because a pragma at the
    # read does not bless a fingerprint chain through it.
    return int(time.time())  # lint: ignore[wall-clock]


def fingerprint_seed(root: int) -> int:
    return derive_seed(root, now_tag())  # BAD: wall clock in the input

"""span-balance: an open span returned from a helper, never entered."""

from repro.obs import span


def open_phase(name: str):
    # The bare-span site check is pragma'd off: returning the open
    # context *is* this helper's contract.  Call sites must enter it.
    return span(f"phase:{name}")  # lint: ignore[span-balance]


def run_phase(work) -> None:
    open_phase("detect")  # BAD: span never entered, never closed
    work()


def run_phase_balanced(work) -> None:
    with open_phase("detect"):  # OK: consumed by a `with`
        work()

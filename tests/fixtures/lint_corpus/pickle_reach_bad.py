"""pickle-safety: task fields that cannot cross the pool boundary."""

from dataclasses import dataclass
from typing import Callable, Tuple

from lint_corpus.tasks_base import EvalTask


@dataclass(frozen=True)
class Inner:
    """Picklable-looking wrapper hiding an opaque field."""

    weights: Tuple
    fn: object  # the rot is one dataclass deep


@dataclass(frozen=True)
class OpaqueTask(EvalTask):
    payload: object  # BAD: no picklable shape
    hook: Callable  # BAD: callables pickle by qualname reference only
    inner: Inner  # BAD (transitively): Inner.fn is opaque

    def run(self) -> float:
        return 0.0

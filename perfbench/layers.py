"""Per-layer timing for the traced run, from the benchmark's own code.

:class:`LayerTracer` wraps the public entry point of each layer of the
paper's pipeline (world generation, injection, detection, trust,
aggregation, MP, the engine, online ingest, drift) with a timer.  A
wrapper records the call's wall time and its *self* time: the wall time
minus the time spent in wrapped callees, so the self times of all layers
add up to at most the traced wall time and ``other.share`` is the rest.

The wrappers are installed only around traced passes and removed after
each; :meth:`LayerTracer.installed` restores every original attribute.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple, Union

#: ``(layer, module, attribute path)`` of every wrapped callable.  A
#: layer given as a callable names the layer from the instance (H-/L-ARC
#: are two instances of one class).  Two rows may feed one layer: HC and
#: ME threshold a precomputed curve on the batched path.
BOUNDARIES: Tuple[Tuple[Union[str, Callable], str, str], ...] = (
    ("marketplace.world", "repro.marketplace.challenge", "RatingChallenge.__init__"),
    ("marketplace.inject", "repro.marketplace.challenge", "RatingChallenge.attacked_dataset"),
    ("marketplace.validate", "repro.marketplace.challenge", "RatingChallenge.validate"),
    ("marketplace.mp", "repro.marketplace.mp", "manipulation_power"),
    ("attacks.population", "repro.attacks.population", "generate_population"),
    ("attacks.generate", "repro.attacks.generator", "AttackGenerator.generate"),
    ("attacks.search", "repro.attacks.optimizer", "heuristic_region_search"),
    ("exec.map", "repro.exec.parallel", "ParallelEvaluator.map"),
    ("aggregation.P", "repro.aggregation.pscheme", "PScheme.monthly_scores"),
    ("aggregation.P.detect", "repro.aggregation.pscheme", "PScheme.detect"),
    ("aggregation.SA", "repro.aggregation.simple", "SimpleAveragingScheme.monthly_scores"),
    ("aggregation.BF", "repro.aggregation.beta_filter", "BetaFilterScheme.monthly_scores"),
    ("detectors.batch", "repro.detectors.integration", "JointDetector.analyze_batch"),
    ("detectors.joint", "repro.detectors.integration", "JointDetector.analyze"),
    ("detectors.MC", "repro.detectors.mean_change", "MeanChangeDetector.analyze"),
    (lambda det: f"detectors.{det.kind}", "repro.detectors.arrival_rate", "ArrivalRateDetector.analyze"),
    ("detectors.HC", "repro.detectors.histogram", "HistogramChangeDetector.analyze"),
    ("detectors.HC", "repro.detectors.histogram", "HistogramChangeDetector.report_from_curve"),
    ("detectors.ME", "repro.detectors.model_error", "ModelErrorDetector.analyze"),
    ("detectors.ME", "repro.detectors.model_error", "ModelErrorDetector.report_from_curve"),
    ("trust.run", "repro.trust.manager", "TrustManager.run"),
    ("online.ingest", "repro.online.system", "OnlineRatingSystem.submit_many"),
    ("online.close_epoch", "repro.online.system", "OnlineRatingSystem.close_epoch"),
    ("online.snapshot", "repro.online.system", "OnlineRatingSystem.dataset"),
    ("obs.drift", "repro.obs.drift", "DriftMonitor.check_epoch"),
)

#: Every timed layer, in pipeline order.
LAYERS: Tuple[str, ...] = (
    "marketplace.world",
    "marketplace.inject",
    "marketplace.validate",
    "marketplace.mp",
    "attacks.population",
    "attacks.generate",
    "attacks.search",
    "exec.map",
    "aggregation.P",
    "aggregation.P.detect",
    "aggregation.SA",
    "aggregation.BF",
    "detectors.batch",
    "detectors.MC",
    "detectors.H-ARC",
    "detectors.L-ARC",
    "detectors.HC",
    "detectors.ME",
    "detectors.joint",
    "trust.run",
    "online.ingest",
    "online.close_epoch",
    "online.snapshot",
    "obs.drift",
)

#: ``(metric, unit, better)`` of the layer-level figures beside the
#: per-layer ``calls`` / ``self_s`` / ``share`` / ``p50_ms`` quartet.
EXTRA_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("attacks.search.memo_hit_ratio", "ratio", "higher"),
    ("aggregation.P.report_cache_hit_ratio", "ratio", "higher"),
    ("aggregation.P.scores_cache_hit_ratio", "ratio", "higher"),
    ("detectors.ratings", "count", "lower"),
    ("detectors.batch.fallbacks", "count", "lower"),
    ("online.ratings_ingested", "count", "higher"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("setup.import_s", "s", "lower"),
    ("other.share", "ratio", "lower"),
)

_QUARTET = (("calls", "count"), ("self_s", "s"), ("share", "ratio"), ("p50_ms", "ms"))


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in output order."""
    specs = [
        (f"{layer}.{suffix}", unit, "lower")
        for layer in LAYERS
        for suffix, unit in _QUARTET
    ]
    return specs + list(EXTRA_METRICS)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, owner.__dict__[attribute]


class LayerTracer:
    """Self-time accounting over the wrapped layer boundaries."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)

    def _wrap(self, layer: Union[str, Callable], fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        durations = self.durations

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args[0])
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[name] += elapsed - children[0]
                durations[name].append(elapsed)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every boundary for the duration of the block.

        Module-level functions are replaced wherever a loaded module holds
        a reference to them (``from x import f`` copies the reference), so
        callers that imported the name directly are timed too.
        """
        patches = []  # (owner, attribute, original)
        for layer, module_name, path in BOUNDARIES:
            owner, attribute, original = _resolve(module_name, path)
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                patches.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is None:
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapper)
        try:
            yield
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)
            for owner, attribute, original in patches:
                if getattr(owner, "__dict__")[attribute] is not original:
                    raise RuntimeError(f"failed to restore {owner!r}.{attribute}")

    def layer_metrics(self, traced_wall: float, passes: int) -> Dict[str, float]:
        """Per-pass calls and self time, share of traced wall, p50 wall."""
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            durations = self.durations.get(layer, [])
            self_s = self.self_s.get(layer, 0.0)
            metrics[f"{layer}.calls"] = len(durations) / passes
            metrics[f"{layer}.self_s"] = self_s / passes
            metrics[f"{layer}.share"] = self_s / traced_wall
            metrics[f"{layer}.p50_ms"] = (
                statistics.median(durations) * 1e3 if durations else 0.0
            )
        metrics["other.share"] = 1.0 - sum(
            metrics[f"{layer}.share"] for layer in LAYERS
        )
        return metrics


def work_done(tracer: LayerTracer, registry) -> Dict[str, float]:
    """Work counted so far: wrapped calls per layer and program counters."""
    work = {f"calls.{layer}": float(len(d)) for layer, d in tracer.durations.items()}
    work.update(
        (f"counter.{name}", counter.value)
        for name, counter in registry.counters.items()
    )
    return work


def registry_metrics(registry, passes: int, search_requests: int) -> Dict[str, float]:
    """Layer figures read from the counters the program already emits."""
    counter = registry.counter_value

    def ratio(hits: str, misses: str) -> float:
        total = counter(hits) + counter(misses)
        return counter(hits) / total if total else 0.0

    memo_hits = counter("search.memo.hits")
    return {
        "attacks.search.memo_hit_ratio": (
            memo_hits / search_requests if search_requests else 0.0
        ),
        "aggregation.P.report_cache_hit_ratio": ratio(
            "pscheme.report_cache.hits", "pscheme.report_cache.misses"
        ),
        "aggregation.P.scores_cache_hit_ratio": ratio(
            "pscheme.scores_cache.hits", "pscheme.scores_cache.misses"
        ),
        "detectors.ratings": counter("detector.batch.ratings") / passes,
        "detectors.batch.fallbacks": counter("detector.batch.fallbacks") / passes,
        "online.ratings_ingested": counter("online.ratings_ingested") / passes,
    }


def _span_seconds(registry, path: str) -> float:
    """Summed seconds of span ``path`` under any parent span."""
    exact = f"span.{path}.seconds"
    return sum(
        h.total
        for name, h in registry.histograms.items()
        if name == exact or (name.startswith("span.") and name.endswith(f".{path}.seconds"))
    )


def span_cross_check(tracer: LayerTracer, registry) -> Dict[str, Dict[str, float]]:
    """Compare wrapper timings with the program's own spans and timers.

    Each row gives the benchmark's inclusive seconds for a boundary, the
    program's seconds for the same work, and their ratio.  The wrappers
    sit just outside the spans, so the ratio should sit slightly above 1.
    """
    total = {layer: sum(d) for layer, d in tracer.durations.items()}
    rows = {
        "pscheme.monthly_scores.detect": (
            total.get("aggregation.P.detect", 0.0),
            _span_seconds(registry, "pscheme.monthly_scores.detect"),
        ),
        "pscheme.monthly_scores.trust": (
            total.get("trust.run", 0.0),
            _span_seconds(registry, "pscheme.monthly_scores.trust"),
        ),
        "pscheme.monthly_scores.aggregate": (
            tracer.self_s.get("aggregation.P", 0.0),
            _span_seconds(registry, "pscheme.monthly_scores.aggregate"),
        ),
    }
    for kind in ("MC", "H-ARC", "L-ARC", "HC", "ME"):
        rows[f"detector.{kind}"] = (
            total.get(f"detectors.{kind}", 0.0),
            _span_seconds(registry, f"detector.{kind}"),
        )
    return {
        name: {
            "bench_s": bench,
            "program_s": program,
            "ratio": bench / program if program else float("nan"),
        }
        for name, (bench, program) in rows.items()
    }

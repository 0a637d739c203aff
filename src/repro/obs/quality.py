"""Ground-truth detection scorecards -- the paper's own evaluation axis.

The observability stack can say how *fast* a run was; this module says
how *well* it detected.  A :class:`Scorecard` joins one
:class:`~repro.detectors.base.DetectionReport`'s per-rating provenance
bitmask against the ground-truth unfair labels carried by the stream
(every synthetic rating knows whether an attack generator produced it;
known attacker rater ids can be joined in as a fallback for data that
lost its flags in serialization).  The join yields

- a **joint confusion matrix** (tp/fp/fn/tn) for the P-scheme's unioned
  verdict, plus one per contributing path/sub-detector, attributed via
  the ``PROV_*`` provenance bits;
- the **detection latency**: days (and 30-day MP epochs) from the first
  unfair rating to the first flagged rating at or after it;
- the **bias at detection**: how far the attack had already moved the
  product's mean when the first flag landed -- the damage an online
  deployment would have published before reacting.

:func:`emit_scorecards` folds a batch of scorecards into the active
metrics registry under the ``quality.*`` namespace, so scorecards travel
through :class:`~repro.obs.capsule.TelemetryCapsule` like any other
counter and are bit-identical between serial and hermetic parallel runs.

Sweep-level summaries: :func:`roc_auc` turns the (false-alarm, recall)
pairs of a sensitivity sweep into a trapezoidal AUC with the
conventional (0,0)/(1,1) anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.detectors.base import PROVENANCE_FLAGS, DetectionReport
from repro.errors import ValidationError
from repro.obs.registry import MetricsRegistry
from repro.types import RatingStream

__all__ = [
    "ConfusionCounts",
    "Scorecard",
    "score_detection",
    "aggregate_confusions",
    "emit_scorecards",
    "roc_auc",
]

#: The paper's MP metric is defined over 30-day periods (Section III).
EPOCH_DAYS = 30.0

#: Scorecard rows, in display order: the unioned verdict first, then the
#: provenance flags (paths before sub-detectors, as in PROVENANCE_FLAGS).
DETECTOR_ORDER: Tuple[str, ...] = ("joint",) + tuple(PROVENANCE_FLAGS)


@dataclass(frozen=True)
class ConfusionCounts:
    """One 2x2 confusion matrix: detector verdict vs ground truth."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        """Ratings judged."""
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        """Flagged ratings that really were unfair (NaN when none flagged)."""
        flagged = self.tp + self.fp
        return self.tp / flagged if flagged else float("nan")

    @property
    def recall(self) -> float:
        """Unfair ratings caught (NaN when the stream had none)."""
        unfair = self.tp + self.fn
        return self.tp / unfair if unfair else float("nan")

    @property
    def false_alarm_rate(self) -> float:
        """Fair ratings wrongly flagged (NaN when the stream had none)."""
        fair = self.fp + self.tn
        return self.fp / fair if fair else float("nan")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            tn=self.tn + other.tn,
        )

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form (JSON-friendly)."""
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}

    @classmethod
    def from_masks(
        cls, predicted: np.ndarray, truth: np.ndarray
    ) -> "ConfusionCounts":
        """Count the four cells from aligned boolean masks."""
        predicted = np.asarray(predicted, dtype=bool)
        truth = np.asarray(truth, dtype=bool)
        if predicted.shape != truth.shape:
            raise ValidationError(
                f"predicted mask shape {predicted.shape} does not match "
                f"truth shape {truth.shape}"
            )
        return cls(
            tp=int((predicted & truth).sum()),
            fp=int((predicted & ~truth).sum()),
            fn=int((~predicted & truth).sum()),
            tn=int((~predicted & ~truth).sum()),
        )


@dataclass(frozen=True)
class Scorecard:
    """Detection quality of one product stream against ground truth.

    Attributes
    ----------
    product_id:
        The judged product.
    joint:
        Confusion counts for the unioned P-scheme verdict
        (``DetectionReport.suspicious``).
    per_detector:
        Confusion counts attributed per provenance flag (``path1``,
        ``path2``, ``MC``, ...): a rating counts toward a detector's
        tp/fp when that detector's bit is set in its provenance, and
        toward its fn when the rating is unfair but the bit is unset.
    detection_latency_days / detection_latency_epochs:
        Days (MP epochs) from the first unfair rating to the first flag
        at or after it; ``None`` when the stream has no unfair ratings
        or the attack was never flagged.
    bias_at_detection:
        Attacked-mean minus fair-mean over the ratings up to (and
        including) the first flag -- the published damage when detection
        reacted.  ``None`` whenever the latency is.
    """

    product_id: str
    joint: ConfusionCounts
    per_detector: Mapping[str, ConfusionCounts] = field(default_factory=dict)
    detection_latency_days: Optional[float] = None
    bias_at_detection: Optional[float] = None

    @property
    def detected(self) -> bool:
        """Whether any truly unfair rating was flagged."""
        return self.joint.tp > 0

    @property
    def attacked(self) -> bool:
        """Whether the stream contained any unfair ratings at all."""
        return (self.joint.tp + self.joint.fn) > 0

    @property
    def detection_latency_epochs(self) -> Optional[float]:
        """The latency in the paper's 30-day MP epochs."""
        if self.detection_latency_days is None:
            return None
        return self.detection_latency_days / EPOCH_DAYS

    def counts(self) -> List[Tuple[str, ConfusionCounts]]:
        """``(name, counts)`` rows in :data:`DETECTOR_ORDER`."""
        rows: List[Tuple[str, ConfusionCounts]] = [("joint", self.joint)]
        for name in PROVENANCE_FLAGS:
            rows.append((name, self.per_detector.get(name, ConfusionCounts())))
        return rows


def _ground_truth(
    stream: RatingStream, attacker_ids: Optional[Iterable[str]]
) -> np.ndarray:
    """Per-rating unfair labels: generator flags, plus attacker-id joins."""
    truth = np.asarray(stream.unfair, dtype=bool).copy()
    if attacker_ids:
        ids = set(attacker_ids)
        truth |= np.fromiter(
            (rater in ids for rater in stream.rater_ids),
            dtype=bool,
            count=len(stream),
        )
    return truth


def score_detection(
    stream: RatingStream,
    report: DetectionReport,
    attacker_ids: Optional[Iterable[str]] = None,
) -> Scorecard:
    """Join one detection report against the stream's ground truth.

    ``attacker_ids`` optionally supplements the stream's ``unfair``
    flags: ratings from these rater ids count as unfair even when the
    flags were lost (e.g. a CSV round-trip without the unfair column).
    """
    n = len(stream)
    if report.suspicious.shape != (n,):
        raise ValidationError(
            f"report for {report.product_id!r} covers "
            f"{report.suspicious.shape[0]} ratings, stream has {n}"
        )
    truth = _ground_truth(stream, attacker_ids)
    suspicious = np.asarray(report.suspicious, dtype=bool)
    provenance = np.asarray(report.provenance, dtype=np.uint8)
    per_detector = {
        name: ConfusionCounts.from_masks((provenance & bit) != 0, truth)
        for name, bit in PROVENANCE_FLAGS.items()
    }
    latency = bias = None
    if truth.any() and (suspicious & truth).any():
        first_unfair = float(stream.times[truth][0])
        flagged_after = suspicious & (stream.times >= first_unfair)
        first_flag = float(stream.times[flagged_after][0])
        latency = first_flag - first_unfair
        upto = stream.times <= first_flag
        fair_upto = upto & ~truth
        if fair_upto.any():
            bias = float(
                stream.values[upto].mean() - stream.values[fair_upto].mean()
            )
    return Scorecard(
        product_id=stream.product_id,
        joint=ConfusionCounts.from_masks(suspicious, truth),
        per_detector=per_detector,
        detection_latency_days=latency,
        bias_at_detection=bias,
    )


def aggregate_confusions(
    cards: Sequence[Scorecard],
) -> Dict[str, ConfusionCounts]:
    """Sum the confusion counts of many scorecards, per detector row."""
    totals: Dict[str, ConfusionCounts] = {
        name: ConfusionCounts() for name in DETECTOR_ORDER
    }
    for card in cards:
        for name, counts in card.counts():
            totals[name] = totals[name] + counts
    return totals


def emit_scorecards(cards: Sequence[Scorecard], registry: MetricsRegistry) -> None:
    """Fold a batch of scorecards into ``registry`` under ``quality.*``.

    Counter names are ``quality.<detector>.{tp,fp,fn,tn}`` (detector
    rows as in :data:`DETECTOR_ORDER`), each incremented once by the
    batch's :func:`aggregate_confusions` sum; ``quality.scorecards``
    counts the cards and ``quality.detected_streams`` the ones where an
    attack was caught.  Latency and bias land in the
    ``quality.detection_latency_days`` / ``quality.bias_at_detection``
    histograms, one observation per detected stream, in card order.  An
    empty batch records nothing.
    """
    if not cards or not registry.enabled:
        return
    registry.inc("quality.scorecards", len(cards))
    detected = sum(card.detected for card in cards)
    if detected:
        registry.inc("quality.detected_streams", detected)
    for name, counts in aggregate_confusions(cards).items():
        for cell, value in counts.as_dict().items():
            registry.inc(f"quality.{name}.{cell}", value)
    for card in cards:
        if card.detection_latency_days is not None:
            registry.observe(
                "quality.detection_latency_days", card.detection_latency_days
            )
        if card.bias_at_detection is not None:
            registry.observe("quality.bias_at_detection", card.bias_at_detection)


def roc_auc(points: Sequence[Tuple[float, float]]) -> float:
    """Trapezoidal AUC over ``(false_alarm_rate, recall)`` pairs.

    The observed operating points are anchored with the conventional
    ``(0, 0)`` and ``(1, 1)`` corners, sorted by false-alarm rate, and
    integrated with the trapezoid rule.  NaN pairs (e.g. a sweep value
    whose fixtures held no unfair ratings) are dropped.
    """
    clean = [
        (float(fpr), float(tpr))
        for fpr, tpr in points
        if np.isfinite(fpr) and np.isfinite(tpr)
    ]
    if not clean:
        return float("nan")
    anchored = sorted({(0.0, 0.0), (1.0, 1.0), *clean})
    xs = np.asarray([p[0] for p in anchored])
    ys = np.asarray([p[1] for p in anchored])
    # np.trapz was removed in NumPy 2; fall back for older NumPy.
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(ys, xs))

"""Defender-side evaluation metrics.

The MP metric scores the *attacker*.  A system operator cares about the
dual quantities:

- **score fidelity** -- how far published scores sit from the products'
  latent true quality (RMSE/MAE over products and months), with and
  without an attack in the data;
- **detection quality** -- precision/recall of the suspicious-rating marks
  against ground truth, per product and pooled.

These metrics power the ablation/sensitivity tooling and give adopters a
way to compare schemes on *their* traffic, not only against challenge
attackers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import EmptyDataError, ValidationError
from repro.marketplace.product import Product
from repro.types import RatingDataset

__all__ = [
    "ScoreFidelity",
    "DetectionQuality",
    "score_fidelity",
    "detection_quality",
]


@dataclass(frozen=True)
class ScoreFidelity:
    """Published-score error against latent true quality."""

    rmse: float
    mae: float
    worst_product: str
    worst_error: float
    n_scores: int


def score_fidelity(
    scheme,
    dataset: RatingDataset,
    products: Sequence[Product],
    period_days: float = 30.0,
    start_day: float = 0.0,
    end_day: float = 90.0,
) -> ScoreFidelity:
    """Measure how close the scheme's monthly scores sit to true quality.

    NaN months (no publishable score) are skipped.  Raises
    :class:`~repro.errors.EmptyDataError` when no finite score exists.
    """
    quality = {p.product_id: p.true_quality for p in products}
    missing = [pid for pid in dataset if pid not in quality]
    if missing:
        raise ValidationError(
            f"no true quality known for products {missing}"
        )
    scores = scheme.monthly_scores(dataset, period_days, start_day, end_day)
    errors = []
    per_product_error: Dict[str, float] = {}
    for product_id, series in scores.items():
        finite = series[np.isfinite(series)]
        if finite.size == 0:
            continue
        diffs = finite - quality[product_id]
        errors.extend(diffs.tolist())
        per_product_error[product_id] = float(np.abs(diffs).mean())
    if not errors:
        raise EmptyDataError("no finite monthly scores to measure")
    errors_arr = np.asarray(errors)
    worst_product = max(per_product_error, key=per_product_error.get)
    return ScoreFidelity(
        rmse=float(np.sqrt((errors_arr**2).mean())),
        mae=float(np.abs(errors_arr).mean()),
        worst_product=worst_product,
        worst_error=per_product_error[worst_product],
        n_scores=int(errors_arr.size),
    )


@dataclass(frozen=True)
class DetectionQuality:
    """Precision/recall of suspicious-rating marks vs ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 when nothing was marked."""
        marked = self.true_positives + self.false_positives
        return self.true_positives / marked if marked else 1.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 1.0 when nothing was unfair."""
        unfair = self.true_positives + self.false_negatives
        return self.true_positives / unfair if unfair else 1.0

    @property
    def false_alarm_rate(self) -> float:
        """FP over all fair ratings."""
        fair = self.false_positives + self.true_negatives
        return self.false_positives / fair if fair else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


def detection_quality(
    detector,
    dataset: RatingDataset,
    marks: Optional[Mapping[str, np.ndarray]] = None,
) -> DetectionQuality:
    """Pool detection confusion counts over a dataset with ground truth.

    ``marks`` may be supplied (e.g. from a P-scheme run); otherwise the
    ``detector`` (a :class:`~repro.detectors.JointDetector`) analyzes the
    whole dataset in one :meth:`analyze_batch` pass.
    """
    if marks is None:
        marks = {
            product_id: report.suspicious
            for product_id, report in detector.analyze_batch(dataset).items()
        }
    tp = fp = fn = tn = 0
    for product_id in dataset:
        stream = dataset[product_id]
        suspicious = np.asarray(marks[product_id], dtype=bool)
        if suspicious.size != len(stream):
            raise ValidationError(
                f"marks for {product_id!r} misaligned with stream"
            )
        unfair = stream.unfair
        tp += int((suspicious & unfair).sum())
        fp += int((suspicious & ~unfair).sum())
        fn += int((~suspicious & unfair).sum())
        tn += int((~suspicious & ~unfair).sum())
    return DetectionQuality(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        true_negatives=tn,
    )

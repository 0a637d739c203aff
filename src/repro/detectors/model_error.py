"""Signal model change (ME) detector -- paper Section IV-E.

The ratings inside a sliding window are fit onto an autoregressive model
with the covariance method.  Honest ratings are close to white noise, so
the prediction error stays high; collaborative unfair ratings introduce a
predictable "signal" and the model error drops.  Windows whose normalized
model error falls below the configured threshold form the ME-suspicious
intervals.

This detector is exactly the one used in the paper's predecessor work
(Yang et al., "Building trust in online rating systems through signal
modeling", ICDCS-TRM 2007); here it serves as one input of the joint
detector's Path 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.detectors.base import DetectorConfig, TimeInterval
from repro.detectors.histogram import _mask_to_intervals
from repro.signal.curves import Curve, model_error_curve
from repro.types import RatingStream

__all__ = ["ModelErrorReport", "ModelErrorDetector"]


@dataclass(frozen=True)
class ModelErrorReport:
    """ME detector output for one stream."""

    curve: Curve
    suspicious_intervals: Tuple[TimeInterval, ...]

    @property
    def any_suspicious(self) -> bool:
        """Whether any window dropped below the model-error threshold."""
        return len(self.suspicious_intervals) > 0


class ModelErrorDetector:
    """Builds the ME curve and extracts low-error (suspicious) intervals."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config if config is not None else DetectorConfig()

    def curve(self, stream: RatingStream) -> Curve:
        """The ME indicator curve (40-rating windows, AR(4) by default)."""
        return model_error_curve(
            stream.times,
            stream.values,
            self.config.me_window_ratings,
            order=self.config.ar_order,
        )

    def report_from_curve(self, curve: Curve) -> ModelErrorReport:
        """Build the ME report from an already-computed curve.

        This is the thresholding/interval half of :meth:`analyze`; the
        joint detector builds its ME curves with
        :func:`~repro.signal.curves.model_error_curves` and feeds them
        through here.
        """
        if curve.is_empty:
            return ModelErrorReport(curve=curve, suspicious_intervals=())
        mask = curve.values < self.config.me_suspicious_threshold
        intervals = _mask_to_intervals(curve.times, mask)
        return ModelErrorReport(curve=curve, suspicious_intervals=tuple(intervals))

    def analyze(self, stream: RatingStream) -> ModelErrorReport:
        """Full ME analysis of one stream."""
        return self.report_from_curve(self.curve(stream))

"""Statistical signal-processing substrate.

Everything the paper's detectors need, implemented from scratch on numpy:

- :mod:`repro.signal.rolling` -- the vectorized window kernels: the
  Gaussian mean-change GLRT (paper Eq. 1), the Poisson arrival-rate-change
  GLRT (Eqs. 2-5) and the single-linkage two-cluster balance (the Matlab
  ``clusterdata`` replacement for the histogram detector), each over many
  windows at once.
- :mod:`repro.signal.ar` -- autoregressive model fitting by the covariance
  method and the model-error statistic (Section IV-E).
- :mod:`repro.signal.curves` -- sliding-window indicator-curve construction.
- :mod:`repro.signal.peaks` -- peak finding and U-shape detection on curves.
- :mod:`repro.signal.segmentation` -- splitting a rating stream into
  segments at curve peaks.
"""

from repro.signal.ar import ARFit, fit_ar_covariance, model_error
from repro.signal.curves import (
    Curve,
    histogram_change_curve,
    histogram_change_curves,
    mean_change_curve_by_time,
    mean_change_curves_by_time,
    model_error_curve,
    model_error_curves,
)
from repro.signal.peaks import UShape, find_peaks, u_shape_from_peaks
from repro.signal.segmentation import segment_bounds_from_peaks

__all__ = [
    "ARFit",
    "fit_ar_covariance",
    "model_error",
    "Curve",
    "histogram_change_curve",
    "histogram_change_curves",
    "mean_change_curve_by_time",
    "mean_change_curves_by_time",
    "model_error_curve",
    "model_error_curves",
    "UShape",
    "find_peaks",
    "u_shape_from_peaks",
    "segment_bounds_from_peaks",
]

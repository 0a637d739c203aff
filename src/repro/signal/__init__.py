"""Statistical signal-processing substrate.

Everything the paper's detectors need, implemented from scratch on numpy:

- :mod:`repro.signal.glrt` -- Gaussian mean-change GLRT (paper Eq. 1).
- :mod:`repro.signal.poisson` -- Poisson arrival-rate-change GLRT (Eqs. 2-5).
- :mod:`repro.signal.ar` -- autoregressive model fitting by the covariance
  method and the model-error statistic (Section IV-E).
- :mod:`repro.signal.clustering` -- single-linkage agglomerative clustering
  (the Matlab ``clusterdata`` replacement for the histogram detector).
- :mod:`repro.signal.curves` -- sliding-window indicator-curve construction.
- :mod:`repro.signal.peaks` -- peak finding and U-shape detection on curves.
- :mod:`repro.signal.segmentation` -- splitting a rating stream into
  segments at curve peaks.
"""

from repro.signal.ar import ARFit, fit_ar_covariance, model_error
from repro.signal.clustering import single_linkage_two_clusters, two_cluster_split_1d
from repro.signal.curves import (
    Curve,
    arrival_rate_curve,
    histogram_change_curve,
    histogram_change_curves,
    mean_change_curve_by_time,
    mean_change_curves_by_time,
    model_error_curve,
    model_error_curves,
)
from repro.signal.glrt import gaussian_mean_change_statistic, mean_change_decision
from repro.signal.peaks import UShape, detect_u_shape, find_peaks, u_shape_from_peaks
from repro.signal.poisson import poisson_rate_change_statistic, rate_change_decision
from repro.signal.segmentation import segment_bounds_from_peaks, segment_labels

__all__ = [
    "ARFit",
    "fit_ar_covariance",
    "model_error",
    "single_linkage_two_clusters",
    "two_cluster_split_1d",
    "Curve",
    "arrival_rate_curve",
    "histogram_change_curve",
    "histogram_change_curves",
    "mean_change_curve_by_time",
    "mean_change_curves_by_time",
    "model_error_curve",
    "model_error_curves",
    "gaussian_mean_change_statistic",
    "mean_change_decision",
    "UShape",
    "detect_u_shape",
    "find_peaks",
    "u_shape_from_peaks",
    "poisson_rate_change_statistic",
    "rate_change_decision",
    "segment_bounds_from_peaks",
    "segment_labels",
]

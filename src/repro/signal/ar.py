"""Autoregressive modeling by the covariance method.

Paper, Section IV-E: within a window, the ratings are fit onto an AR signal
model and the *model error* is examined.  A high model error means the
window looks like white noise (honest, independent ratings); a low model
error means a predictable "signal" is present, which is the signature of
collaborative unfair ratings.

The covariance method (Hayes, *Statistical Digital Signal Processing and
Modeling*) finds AR coefficients ``a_1 .. a_p`` minimizing the forward
prediction error

    E = sum_{n=p}^{N-1} | x[n] + sum_{k=1}^{p} a_k x[n-k] |^2

by solving the covariance normal equations.  Unlike the autocorrelation
method it does not window the data, so it is exact for short records --
which matters here because detector windows hold only ~40 ratings.

We report the *normalized* model error ``E / ((N - p) * var(x))`` so the
statistic is scale-free: 1.0 for white noise in expectation, near 0.0 for
a strongly predictable signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EmptyDataError, ValidationError
from repro.utils.validation import check_positive_int

__all__ = [
    "ARFit",
    "fit_ar_covariance",
    "model_error",
    "model_errors",
]


@dataclass(frozen=True)
class ARFit:
    """Result of fitting an AR(p) model with the covariance method.

    Attributes
    ----------
    order:
        Model order ``p``.
    coefficients:
        Array ``[a_1, ..., a_p]`` in the convention
        ``x[n] ~= -(a_1 x[n-1] + ... + a_p x[n-p])``.
    error_power:
        Total squared prediction error ``E`` over the fit range.
    normalized_error:
        ``E / ((N - p) * var(x))`` -- scale-free model error in ``[0, ~1+]``.
        Defined as 1.0 when the window has zero variance (a constant window
        is perfectly "predictable" only trivially; treating it as noise-free
        signal would make unanimous fair ratings look like attacks).
    """

    order: int
    coefficients: np.ndarray
    error_power: float
    normalized_error: float


def _covariance_normal_equations(x: np.ndarray, order: int):
    """Build the covariance-method normal equations ``C a = -c``.

    ``C[i, j] = sum_n x[n-1-i] x[n-1-j]`` and ``c[i] = sum_n x[n] x[n-1-i]``
    for ``n = order .. N-1``.
    """
    n = x.size
    rows = n - order
    # Design matrix: row t holds [x[order-1+t], x[order-2+t], ..., x[t]],
    # i.e. the length-``order`` sliding windows of ``x``, reversed.  The
    # copy keeps the matrix contiguous so the BLAS products below see the
    # same memory layout (and produce the same bits) as the old per-lag
    # column fill.
    design = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(x, order)[:rows, ::-1]
    ).astype(float, copy=False)
    target = x[order:]
    gram = design.T @ design
    cross = design.T @ target
    return gram, cross, design, target


def fit_ar_covariance(x: np.ndarray, order: int) -> ARFit:
    """Fit an AR(``order``) model to ``x`` via the covariance method.

    Requires finite values and ``len(x) >= 2 * order`` so the normal
    equations are at least square-determined; raises
    :class:`~repro.errors.ValidationError` otherwise.  Singular windows
    (e.g. all-constant data) are handled with a pseudo-inverse solve, and
    so are windows whose LU solve overflows (a subnormal pivot, e.g. a
    window holding a value like ``1e-313``), so the error is always
    finite.
    """
    x = np.asarray(x, dtype=float)
    order = check_positive_int(order, "order")
    if x.size == 0:
        raise EmptyDataError("cannot fit an AR model to an empty window")
    if x.size < 2 * order:
        raise ValidationError(
            f"AR({order}) covariance fit needs at least {2 * order} samples, got {x.size}"
        )
    if not np.isfinite(x).all():
        raise ValidationError("AR covariance fit needs finite values")
    gram, cross, design, target = _covariance_normal_equations(x, order)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            solution = np.linalg.solve(gram, cross)
            residual = target - design @ solution
            error_power = float(residual @ residual)
    except np.linalg.LinAlgError:
        error_power = math.nan
    if not math.isfinite(error_power):
        solution = np.linalg.pinv(gram) @ cross
        residual = target - design @ solution
        error_power = float(residual @ residual)
    coefficients = -solution  # convention: x[n] + sum a_k x[n-k] = residual
    variance = float(x.var())
    if variance <= 1e-12:
        normalized = 1.0
    else:
        normalized = error_power / ((x.size - order) * variance)
    coefficients.setflags(write=False)
    return ARFit(
        order=order,
        coefficients=coefficients,
        error_power=error_power,
        normalized_error=float(normalized),
    )


def model_error(x: np.ndarray, order: int = 4) -> float:
    """Convenience wrapper returning only the normalized model error."""
    return fit_ar_covariance(x, order).normalized_error


# --------------------------------------------------------------------- #
# Stacked fast path
#
# The ME indicator curve fits an AR model in every length-``window``
# window of a stream.  The curve builder gathers the windows it needs
# into one ``(K, window)`` matrix; the designs of all of them are
# materialized from that matrix at once, and every gram matrix / cross
# vector / solve / residual runs as one batched gufunc pass.  Each batch
# slice sees exactly the operands the per-window
# :func:`fit_ar_covariance` would build (same values, same contiguous
# layout), and numpy's stacked matmul / solve dispatch the identical BLAS
# and LAPACK routines per slice -- so the results are bit-identical to
# the naive loop (property-pinned in the curve test suite).
# --------------------------------------------------------------------- #


def model_errors(windows: np.ndarray, order: int) -> np.ndarray:
    """Normalized AR(``order``) model errors of a ``(K, window)`` stack
    of windows, one row per window.

    One batched gram / solve / residual pass over all rows.  Raises
    :class:`numpy.linalg.LinAlgError` when any row's normal equations
    are singular or its error power is not finite (callers fall back to
    the per-window pinv path).  Rows with (near-)zero variance get error
    ``1.0``, matching :func:`fit_ar_covariance`.
    """
    windows = np.asarray(windows, dtype=float)
    rows = windows.shape[1] - order
    # Row t of window w's design is [w[order-1+t], ..., w[t]], stored
    # contiguously as fit_ar_covariance stores it.
    designs = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(windows, order, axis=1)[
            :, :rows, ::-1
        ]
    )
    targets = windows[:, order:]
    transposed = designs.transpose(0, 2, 1)
    grams = np.matmul(transposed, designs)
    crosses = np.matmul(transposed, targets[:, :, None])
    solutions = np.linalg.solve(grams, crosses)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = targets - np.matmul(designs, solutions)[:, :, 0]
        error_powers = np.matmul(residuals[:, None, :], residuals[:, :, None])[
            :, 0, 0
        ]
    if not np.isfinite(error_powers).all():
        raise np.linalg.LinAlgError("AR solve overflowed")
    variances = windows.var(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = error_powers / (rows * variances)
    return np.where(variances <= 1e-12, 1.0, normalized)

"""Rolling-window EMOS benchmark.

mu = a0 + a1 * xbar, log sigma = b0 + b1 * log s, re-estimated for every
prediction date by CRPS minimization over the trailing window of
observable days.  A tiny ridge penalty protects the fit when log s is
(near-)constant inside a window, where b1 is unidentified.  The BFGS fit
uses the exact gradient: the closed-form CRPS derivatives in mu and sigma,
chain-ruled through the two linear predictors.
"""

from __future__ import annotations

import numpy as np

from ..data import StationSeries
from ..errors import InsufficientHistory, InvalidInput
from ..optimize import OptimizeSettings, minimize
from ..scoring import crps_normal_gradient, crps_normal_series
from .base import FittedModel, PredictionContext, register

_RIDGE = 1e-8
_NEAR_CONSTANT_SD = 1e-3


def _window_objective(xbar: np.ndarray, log_s: np.ndarray, y: np.ndarray):
    """Mean CRPS of theta = (a0, a1, b0, b1) on one window, plus the ridge
    term, and its gradient; returns (objective, gradient)."""
    ridge = _RIDGE if float(np.std(log_s)) < _NEAR_CONSTANT_SD else 0.0
    loc_design = np.column_stack([np.ones_like(xbar), xbar])
    scale_design = np.column_stack([np.ones_like(log_s), log_s])

    def objective(theta):
        mu = theta[0] + theta[1] * xbar
        sigma = np.exp(theta[2] + theta[3] * log_s)
        with np.errstate(all="ignore"):
            crps = float(np.mean(crps_normal_series(mu, sigma, y)))
        return crps + ridge * float(theta @ theta)

    def gradient(theta):
        mu = theta[0] + theta[1] * xbar
        sigma = np.exp(theta[2] + theta[3] * log_s)
        with np.errstate(all="ignore"):
            d_mu, d_sigma = crps_normal_gradient(mu, sigma, y)
            # d sigma / d (b0, b1) = sigma * (1, log s)
            g = np.concatenate([d_mu @ loc_design, (d_sigma * sigma) @ scale_design])
        return g / y.size + 2.0 * ridge * theta

    return objective, gradient


def emos_fit_window(xbar, s, y, settings: OptimizeSettings | None = None,
                    init=None) -> np.ndarray:
    """CRPS-fit (a0, a1, b0, b1) on one window; returns the coefficient vector."""
    xbar = np.asarray(xbar, dtype=float)
    log_s = np.log(np.maximum(np.asarray(s, dtype=float), 1e-12))
    y = np.asarray(y, dtype=float)
    if init is None:
        design = np.column_stack([np.ones_like(xbar), xbar])
        ab, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid_sd = float(np.std(y - design @ ab, ddof=1))
        init = np.array([ab[0], ab[1], np.log(max(resid_sd, 1e-6)), 0.0])
    objective, gradient = _window_objective(xbar, log_s, y)
    return minimize(objective, init, settings or OptimizeSettings(max_iterations=200),
                    grad=gradient).x


def emos_fit(series: StationSeries, window_days: int = 30,
             settings: OptimizeSettings | None = None) -> FittedModel:
    """Validate the training series and fit the final training window.

    The stored coefficients describe the window ending at the training
    period's last day; prediction re-estimates them per date.
    """
    if not series.is_complete():
        raise InvalidInput("training series has missing observations; impute first")
    if series.n_days < window_days + 1:
        raise InsufficientHistory(
            f"EMOS needs >= {window_days + 1} training days, got {series.n_days}")
    sl = slice(series.n_days - window_days, series.n_days)
    coeffs = emos_fit_window(series.ens_mean[sl], series.ens_sd[sl], series.obs[sl],
                             settings)
    return FittedModel(
        kind="EMOS",
        loc=coeffs[:2].copy(),
        scale=coeffs[2:].copy(),
        meta={
            "origin": str(series.dates[0]),
            "lead_time_h": series.lead_time_h,
            "station_id": series.station_id,
            "train_start": str(series.dates[0]),
            "train_end": str(series.dates[-1]),
            "n_train": series.n_days,
            "window_days": int(window_days),
            "converged": True,
        },
    )


def emos_predict(model: FittedModel, series: StationSeries, dates):
    """Per-date prediction with rolling window re-estimation.

    Each window covers the ``window_days`` most recent observable days
    (ending k + 1 days before the prediction date for lead-time offset k).
    Windows are processed in date order and warm-start from the previous
    window's coefficients.
    """
    ctx = PredictionContext.build(model, series, dates)
    window = int(model.meta.get("window_days", 30))
    settings = OptimizeSettings(max_iterations=200)
    order = np.argsort(ctx.indices, kind="stable")
    mu_out = np.empty(ctx.indices.size)
    sigma_out = np.empty(ctx.indices.size)
    coeffs = None
    for out_i in order:
        i = int(ctx.indices[out_i])
        h = ctx.history_end(i)
        if h < window:
            raise InsufficientHistory(
                f"date {series.dates[i]} has only {h} observable days, needs {window}")
        sl = slice(h - window, h)
        if np.any(~np.isfinite(series.obs[sl])):
            raise InvalidInput(f"window before {series.dates[i]} contains missing observations")
        coeffs = emos_fit_window(series.ens_mean[sl], series.ens_sd[sl], series.obs[sl],
                                 settings, init=coeffs)
        mu_out[out_i] = coeffs[0] + coeffs[1] * series.ens_mean[i]
        sigma_out[out_i] = np.exp(coeffs[2] + coeffs[3] * np.log(max(series.ens_sd[i], 1e-12)))
    return mu_out, sigma_out


register("EMOS", emos_fit, emos_predict)

"""Rolling-window EMOS benchmark.

mu = a0 + a1 * xbar, log sigma = b0 + b1 * log s, re-estimated for every
prediction date by CRPS minimization over the trailing 30-day window of
observable days (Gneiting et al. 2005).  A tiny ridge penalty protects the
fit when log s is (near-)constant inside a window, where b1 is
unidentified.  The window fit is a Newton solve with the exact gradient
and Hessian: the closed-form first and second CRPS derivatives in mu and
sigma, chain-ruled through the two linear predictors.
"""

from __future__ import annotations

import numpy as np

from ..data import StationSeries
from ..errors import InsufficientHistory, InvalidInput
from ..optimize import OptimizeSettings, OptResult, minimize
from ..scoring import crps_normal_gradient, crps_normal_hessian, crps_normal_series
from .base import FittedModel, PredictionContext, register

WINDOW_DAYS = 30
_RIDGE = 1e-8
_NEAR_CONSTANT_SD = 1e-3
# Newton converges quadratically, so a gradient tolerance below minimize's
# 1e-6 costs well under one extra step per window.  At 1e-6 a window whose
# Hessian has an eigenvalue near 1e-3 can stop ~1e-11 above the optimum.
_WINDOW_SETTINGS = OptimizeSettings(max_iterations=200, gradient_tolerance=1e-8)


def _ridge(log_s: np.ndarray) -> float:
    return _RIDGE if float(np.std(log_s)) < _NEAR_CONSTANT_SD else 0.0


def _window_objective(xbar: np.ndarray, log_s: np.ndarray, y: np.ndarray):
    """Mean CRPS of theta = (a0, a1, b0, b1) on one window, plus the ridge
    term, and its gradient; returns (objective, gradient)."""
    ridge = _ridge(log_s)
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


def _window_hessian(xbar: np.ndarray, log_s: np.ndarray, y: np.ndarray):
    """Exact 4 x 4 Hessian of ``_window_objective``'s objective.

    With u = (1, xbar) and v = (1, log s), the blocks are mean(h_mm u u'),
    mean(h_ms sigma u v') and mean((h_ss sigma^2 + dCRPS/dsigma sigma) v v'):
    sigma = exp(b' v) is itself curved in (b0, b1).  The ridge adds 2 ridge I.
    """
    ridge = _ridge(log_s)
    loc_design = np.column_stack([np.ones_like(xbar), xbar])
    scale_design = np.column_stack([np.ones_like(log_s), log_s])

    def hessian(theta):
        mu = theta[0] + theta[1] * xbar
        sigma = np.exp(theta[2] + theta[3] * log_s)
        with np.errstate(all="ignore"):
            _, d_sigma = crps_normal_gradient(mu, sigma, y)
            h_mm, h_ms, h_ss = crps_normal_hessian(mu, sigma, y)
            w_ss = (h_ss * sigma + d_sigma) * sigma
            hess = np.empty((4, 4))
            hess[:2, :2] = (loc_design.T * h_mm) @ loc_design
            hess[:2, 2:] = (loc_design.T * (h_ms * sigma)) @ scale_design
            hess[2:, :2] = hess[:2, 2:].T
            hess[2:, 2:] = (scale_design.T * w_ss) @ scale_design
        hess /= y.size
        hess[np.diag_indices(4)] += 2.0 * ridge
        return hess

    return hessian


def _fit_window_result(xbar, s, y, settings: OptimizeSettings | None = None,
                       init=None) -> OptResult:
    """Newton CRPS fit of (a0, a1, b0, b1) on one window; the OptResult."""
    xbar = np.asarray(xbar, dtype=float)
    log_s = np.log(np.maximum(np.asarray(s, dtype=float), 1e-12))
    y = np.asarray(y, dtype=float)
    if init is None:
        design = np.column_stack([np.ones_like(xbar), xbar])
        ab, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid_sd = float(np.std(y - design @ ab, ddof=1))
        init = np.array([ab[0], ab[1], np.log(max(resid_sd, 1e-6)), 0.0])
    objective, gradient = _window_objective(xbar, log_s, y)
    return minimize(objective, init, settings or _WINDOW_SETTINGS,
                    grad=gradient, hess=_window_hessian(xbar, log_s, y))


def emos_fit_window(xbar, s, y, init=None) -> np.ndarray:
    """CRPS-fit (a0, a1, b0, b1) on one window; returns the coefficient vector."""
    return _fit_window_result(xbar, s, y, init=init).x


def emos_fit(series: StationSeries, settings: OptimizeSettings | None = None) -> FittedModel:
    """Validate the training series and fit the final training window.

    The stored coefficients describe the window ending at the training
    period's last day; prediction re-estimates them per date.
    """
    if not series.is_complete():
        raise InvalidInput("training series has missing observations; impute first")
    if series.n_days < WINDOW_DAYS + 1:
        raise InsufficientHistory(
            f"EMOS needs >= {WINDOW_DAYS + 1} training days, got {series.n_days}")
    sl = slice(series.n_days - WINDOW_DAYS, series.n_days)
    result = _fit_window_result(series.ens_mean[sl], series.ens_sd[sl], series.obs[sl],
                                settings)
    return FittedModel(
        kind="EMOS",
        loc=result.x[:2].copy(),
        scale=result.x[2:].copy(),
        meta={
            "origin": str(series.dates[0]),
            "lead_time_h": series.lead_time_h,
            "station_id": series.station_id,
            "train_start": str(series.dates[0]),
            "train_end": str(series.dates[-1]),
            "n_train": series.n_days,
            "window_days": WINDOW_DAYS,
            "converged": bool(result.converged),
            "iterations": int(result.iterations),
            "n_evals": int(result.n_evals),
            "grad_norm": float(result.grad_norm),
        },
    )


def emos_predict(model: FittedModel, series: StationSeries, dates):
    """Per-date prediction with rolling window re-estimation.

    Each window covers the ``WINDOW_DAYS`` most recent observable days
    (ending k + 1 days before the prediction date for lead-time offset k),
    whatever window length the fit file records.  Windows are processed in
    date order and warm-start from the previous window's coefficients.
    """
    ctx = PredictionContext.build(model, series, dates)
    order = np.argsort(ctx.indices, kind="stable")
    mu_out = np.empty(ctx.indices.size)
    sigma_out = np.empty(ctx.indices.size)
    coeffs = None
    for out_i in order:
        i = int(ctx.indices[out_i])
        h = ctx.history_end(i)
        if h < WINDOW_DAYS:
            raise InsufficientHistory(
                f"date {series.dates[i]} has only {h} observable days, needs {WINDOW_DAYS}")
        sl = slice(h - WINDOW_DAYS, h)
        if np.any(~np.isfinite(series.obs[sl])):
            raise InvalidInput(f"window before {series.dates[i]} contains missing observations")
        coeffs = emos_fit_window(series.ens_mean[sl], series.ens_sd[sl], series.obs[sl],
                                 init=coeffs)
        mu_out[out_i] = coeffs[0] + coeffs[1] * series.ens_mean[i]
        sigma_out[out_i] = np.exp(coeffs[2] + coeffs[3] * np.log(max(series.ens_sd[i], 1e-12)))
    return mu_out, sigma_out


register("EMOS", emos_fit, emos_predict)

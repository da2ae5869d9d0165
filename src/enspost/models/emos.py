"""Rolling-window EMOS benchmark.

mu = a0 + a1 * xbar, log sigma = b0 + b1 * log s, re-estimated for every
prediction date by CRPS minimization over the trailing 30-day window of
observable days (Gneiting et al. 2005).  A tiny ridge penalty protects the
fit when log s is (near-)constant inside a window, where b1 is
unidentified.  The window fit is a Newton solve with the exact gradient
and Hessian: the closed-form first and second CRPS derivatives in mu and
sigma, chain-ruled through the two linear predictors.  Each point, start
or trial, is scored once: one CRPS-partials pass gives the objective, the
gradient and the Hessian together.

Prediction fits every date's window in one batched solve
(``optimize.minimize_newton``): the windows are the rows of (dates, 30)
arrays, each starts from its own least-squares fit, and the training fit
is the one-window case.

EMOS is under-dispersed at every lead on the synthetic worlds: its window
treats the errors as independent, but they follow an AR(1) with tau = 0.6
around a drifting seasonal bias, missed by the in-window spread.  At 24 h,
criterion 11's cell seed 31 (sar), validation E[(y - mu)^2] / E[sigma^2]
is 1.42; 60- and 120-day windows leave 1.18 and 1.13.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..data import StationSeries
# ``minimize`` and ``crps_normal_series`` stay importable here: perfbench's
# tracer wraps these names
from ..optimize import OptimizeSettings, OptResult, minimize, minimize_newton  # noqa: F401
from ..scoring import crps_normal_partials, crps_normal_series  # noqa: F401
from .base import FittedModel

WINDOW_DAYS = 30
_RIDGE = 1e-8
_NEAR_CONSTANT_SD = 1e-3
_SPREAD_FLOOR = 1e-12  # ensemble sd floor before the log
# Newton converges quadratically, so a gradient tolerance below minimize's
# 1e-6 costs well under one extra step per window.  At 1e-6 a window whose
# Hessian has an eigenvalue near 1e-3 can stop ~1e-11 above the optimum.
_WINDOW_SETTINGS = OptimizeSettings(max_iterations=200, gradient_tolerance=1e-8)


def _sums(weight: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Window sums of weight * (1, a), (..., 2)."""
    return np.stack([weight.sum(axis=-1), (weight * a).sum(axis=-1)], axis=-1)


def _predictors(theta: np.ndarray, xbar: np.ndarray, log_s: np.ndarray):
    mu = theta[..., 0:1] + theta[..., 1:2] * xbar
    sigma = np.exp(theta[..., 2:3] + theta[..., 3:4] * log_s)
    return mu, sigma


def _window_evaluate(xbar: np.ndarray, log_s: np.ndarray, y: np.ndarray):
    """Mean CRPS of theta = (a0, a1, b0, b1) on each window plus the ridge
    term, with its gradient and 4 x 4 Hessian, from one pass of the CRPS
    partials.

    The windows are the rows of (D, window) arrays, or one 1-D window.  The
    callable takes theta, (len(rows), 4) or (4,), and optionally ``rows``,
    the windows theta belongs to (all by default), and returns (value,
    gradient, Hessian).

    With u = (1, xbar), v = (1, log s) and the CRPS curvature c, whose
    second partials in (mu, sigma) are c (1, z, z^2), the Hessian blocks are
    mean(c u u'), mean(c z sigma u v') and mean((c z^2 sigma^2 +
    dCRPS/dsigma sigma) v v'): sigma = exp(b' v) is itself curved in (b0,
    b1).  The ridge adds ridge theta'theta to the value and 2 ridge I to
    the Hessian.
    """
    ridge = np.where(np.std(log_s, axis=-1) < _NEAR_CONSTANT_SD, _RIDGE, 0.0)

    def block(weight, a, b):
        """Window sums of weight * (1, a)(1, b)', (..., 2, 2)."""
        return np.stack([_sums(weight, b), _sums(weight * a, b)], axis=-2)

    def evaluate(theta, rows=...):
        x, ls = xbar[rows], log_s[rows]
        with np.errstate(all="ignore"):
            mu, sigma = _predictors(theta, x, ls)
            crps, d_mu, d_sigma, c, z = crps_normal_partials(mu, sigma, y[rows])
            value = np.mean(crps, axis=-1)
            # d sigma / d (b0, b1) = sigma * (1, log s)
            g = np.concatenate([_sums(d_mu, x), _sums(d_sigma * sigma, ls)], axis=-1)
            w_ss = (c * np.square(z) * sigma + d_sigma) * sigma
            hess = np.empty(theta.shape + (4,))
            hess[..., :2, :2] = block(c, x, x)
            hess[..., :2, 2:] = block(c * z * sigma, x, ls)
            hess[..., 2:, :2] = np.swapaxes(hess[..., :2, 2:], -1, -2)
            hess[..., 2:, 2:] = block(w_ss, ls, ls)
        value = value + ridge[rows] * np.sum(theta * theta, axis=-1)
        g = g / y.shape[-1] + 2.0 * ridge[rows][..., None] * theta
        hess /= y.shape[-1]
        hess[..., np.arange(4), np.arange(4)] += 2.0 * ridge[rows][..., None]
        return value, g, hess

    return evaluate


def _fit_windows(xbar, s, y) -> OptResult:
    """Newton CRPS fits of (a0, a1, b0, b1) on the rows of (D, window)
    arrays, each started from its least-squares line and the log of its
    residual sd; one OptResult entry per window."""
    xbar, y = np.atleast_2d(xbar, y)
    log_s = np.log(np.maximum(np.atleast_2d(s), _SPREAD_FLOOR))
    xc = xbar - xbar.mean(axis=1, keepdims=True)
    sxx = np.einsum("dw,dw->d", xc, xc)
    a1 = np.einsum("dw,dw->d", xc, y) / np.where(sxx > 0, sxx, 1.0)
    a0 = y.mean(axis=1) - a1 * xbar.mean(axis=1)
    resid_sd = np.std(y - (a0[:, None] + a1[:, None] * xbar), axis=1, ddof=1)
    init = np.column_stack([a0, a1, np.log(np.maximum(resid_sd, 1e-6)), np.zeros_like(a0)])
    return minimize_newton(_window_evaluate(xbar, log_s, y), init, _WINDOW_SETTINGS)


def emos_fit(series: StationSeries) -> FittedModel:
    """Fit the final training window.

    The stored coefficients describe the window ending at the training
    period's last day; prediction re-estimates them per date.
    """
    sl = slice(series.n_days - WINDOW_DAYS, series.n_days)
    result = _fit_windows(series.ens_mean[sl], series.ens_sd[sl], series.obs[sl]).problem(0)
    return FittedModel(
        kind="EMOS",
        loc=result.x[:2].copy(),
        scale=result.x[2:].copy(),
        meta={
            "window_days": WINDOW_DAYS,
            "converged": bool(result.converged),
            "iterations": int(result.iterations),
            "n_evals": int(result.n_evals),
            "grad_norm": float(result.grad_norm),
        },
    )


def emos_predict(model: FittedModel, series: StationSeries, rows: np.ndarray):
    """Prediction with rolling window re-estimation, one batched solve.

    Each date's window covers the ``WINDOW_DAYS`` days before its
    ``history_end``, whatever window length the fit file records.  Every
    window is fitted on its own, from its own start, so a date's
    coefficients do not depend on which other dates are requested.
    """
    starts = series.window_ends(rows, WINDOW_DAYS) - WINDOW_DAYS
    xbar, s, y = (sliding_window_view(v, WINDOW_DAYS)[starts]
                  for v in (series.ens_mean, series.ens_sd, series.obs))
    mu, sigma = _predictors(_fit_windows(xbar, s, y).x, series.ens_mean[rows, None],
                            np.log(np.maximum(series.ens_sd[rows, None], _SPREAD_FLOOR)))
    return mu[:, 0], sigma[:, 0]

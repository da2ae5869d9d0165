"""Autoregressive adjusted EMOS (AR-EMOS) benchmark.

Per member i, an AR(p_i) process is fitted to the member error series
r_i(t) = y(t) - x_i(t) over a rolling 90-day window; the AR-adjusted
ensemble xtilde_i(t) = x_i(t) + predicted residual yields the location
(its mean) and one scale candidate (its spread sigma_2).  The second
candidate sigma_1 is the root mean of the member innovation variances.
The convex weight between them is picked by CRPS minimization over the
following 30-day window.  Everything re-estimates per prediction date.

Each date works on the (window, members) error matrix in one pass: the
AR kernels of ``timeseries`` fit, score and run every member's column at
once, and only the rows the date needs are formed.
"""

from __future__ import annotations

import logging

import numpy as np

from ..data import StationSeries
from ..errors import InsufficientHistory, InvalidInput
from ..optimize import golden_section
from ..scoring import crps_normal_series
from ..timeseries import (
    ARFits,
    ar_innovation_variance,
    ar_multistep,
    ar_teacher_forced,
    fit_ar_yule_walker,
)
from .base import FittedModel, PredictionContext, register

logger = logging.getLogger(__name__)

MAX_MEMBER_AR_ORDER = 5
_SIGMA_FLOOR = 1e-8


def _fit_members(errors: np.ndarray) -> ARFits:
    """AR fits of the (n, members) error columns; a constant column gets the
    mean-only adjustment."""
    fits = fit_ar_yule_walker(errors, MAX_MEMBER_AR_ORDER, mean_fallback=True)
    for member in np.flatnonzero(fits.degenerate):
        logger.warning("member %d error series degenerate; using mean-only adjustment",
                       member + 1)
    return fits


def _estimate_at(series: StationSeries, h: int, ar_window: int, weight_window: int):
    """Member AR fits and CRPS weight using observations before index h
    (exclusive): AR window [h-120, h-30), weight window [h-30, h)."""
    if h < ar_window + weight_window:
        raise InsufficientHistory(
            f"AR-EMOS needs {ar_window + weight_window} observable days, got {h}")
    rows = slice(h - ar_window - weight_window, h)
    obs = series.obs[rows]
    if np.any(~np.isfinite(obs)):
        raise InvalidInput("AR-EMOS training windows contain missing observations")
    members = series.members[rows]
    errors = obs[:, None] - members  # (ar_window + weight_window, m)
    fits = _fit_members(errors[:ar_window])
    sigma1 = float(np.sqrt(np.mean(ar_innovation_variance(errors[:ar_window], fits))))

    adjusted = members[ar_window:] + ar_teacher_forced(fits, errors, ar_window)
    mu_w = adjusted.mean(axis=1)
    sigma2_w = adjusted.std(axis=1, ddof=1)
    y_w = obs[ar_window:]

    def weight_objective(w):
        sigma = np.maximum(w * sigma1 + (1.0 - w) * sigma2_w, _SIGMA_FLOOR)
        return float(np.mean(crps_normal_series(mu_w, sigma, y_w)))

    weight = float(golden_section(weight_objective, 0.0, 1.0))
    return fits, sigma1, weight


def _adjusted_ensemble(series: StationSeries, fits: ARFits, h: int, i: int) -> np.ndarray:
    """AR-adjusted members for prediction index i; residuals of the k
    unobservable days are bridged by the multi-step recursion from the last
    p observed errors (padded with eta when fewer than p exist)."""
    p = fits.max_p
    lo = max(h - p, 0)
    hist = series.obs[lo:h, None] - series.members[lo:h]
    if hist.shape[0] < p:
        pad = np.broadcast_to(fits.eta, (p - hist.shape[0], fits.eta.size))
        hist = np.vstack([pad, hist])
    return series.members[i] + ar_multistep(fits, hist, i - h + 1)[-1]


def ar_emos_fit(series: StationSeries, ar_window: int = 90, weight_window: int = 30) -> FittedModel:
    """Validate history and record the member AR fits at the training end."""
    if not series.is_complete():
        raise InvalidInput("training series has missing observations; impute first")
    fits, sigma1, weight = _estimate_at(series, series.n_days, ar_window, weight_window)
    return FittedModel(
        kind="AR-EMOS",
        members_ar=fits.members(),
        weight=weight,
        meta={
            "origin": str(series.dates[0]),
            "lead_time_h": series.lead_time_h,
            "station_id": series.station_id,
            "train_start": str(series.dates[0]),
            "train_end": str(series.dates[-1]),
            "n_train": series.n_days,
            "ar_window": int(ar_window),
            "weight_window": int(weight_window),
            "sigma1": sigma1,
            "converged": True,
        },
    )


def ar_emos_predict(model: FittedModel, series: StationSeries, dates):
    """Per-date rolling AR-EMOS prediction."""
    ctx = PredictionContext.build(model, series, dates)
    ar_window = int(model.meta.get("ar_window", 90))
    weight_window = int(model.meta.get("weight_window", 30))
    mu_out = np.empty(ctx.indices.size)
    sigma_out = np.empty(ctx.indices.size)
    for out_i, i in enumerate(ctx.indices):
        h = ctx.history_end(i)
        fits, sigma1, weight = _estimate_at(series, h, ar_window, weight_window)
        adjusted = _adjusted_ensemble(series, fits, h, int(i))
        sigma2 = float(adjusted.std(ddof=1))
        mu_out[out_i] = float(adjusted.mean())
        sigma_out[out_i] = max(weight * sigma1 + (1.0 - weight) * sigma2, _SIGMA_FLOOR)
    return mu_out, sigma_out


register("AR-EMOS", ar_emos_fit, ar_emos_predict)

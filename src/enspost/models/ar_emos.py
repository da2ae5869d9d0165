"""Autoregressive adjusted EMOS (AR-EMOS) benchmark.

Per member i, an AR(p_i) process is fitted to the member error series
r_i(t) = y(t) - x_i(t) over a rolling 90-day window; the AR-adjusted
ensemble xtilde_i(t) = x_i(t) + predicted residual yields the location
(its mean) and one scale candidate (its spread sigma_2).  The second
candidate sigma_1 is the root mean of the member innovation variances.
The convex weight between them is picked by CRPS minimization over the
following 30-day window.  Everything re-estimates per prediction date.
Both window lengths are fixed, as in Moeller & Gross (2016).

Prediction works through the dates in blocks of ``_BLOCK_DATES``.  A block
is one (120, dates x members) matrix of error columns: one call of each AR
kernel of ``timeseries`` fits, scores and runs every (date, member) column
at once.  Then one vectorised Newton solve picks every date's weight.  The
training fit is the one-date case.  Yule-Walker fits are stationary by
construction, so the multi-step bridge needs no stationarity check.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from ..data import StationSeries
# ``golden_section`` and ``crps_normal_series`` stay importable here:
# perfbench's tracer wraps these names
from ..optimize import golden_section  # noqa: F401
from ..scoring import crps_normal_gradient, crps_normal_hessian
from ..scoring import crps_normal_series  # noqa: F401
from ..timeseries import (
    ARFits,
    ar_innovation_variance,
    ar_multistep,
    ar_teacher_forced,
    fit_ar_yule_walker,
)
from .base import FittedModel, PredictionContext

logger = logging.getLogger(__name__)

MAX_MEMBER_AR_ORDER = 5
AR_WINDOW = 90
WEIGHT_WINDOW = 30
_SPAN = AR_WINDOW + WEIGHT_WINDOW
_SIGMA_FLOOR = 1e-8
# dates per batched block: at 50 members a block's arrays are 0.4 MB each;
# larger blocks were no faster and raise the peak memory
_BLOCK_DATES = 8
_WEIGHT_TOLERANCE = 1e-10
_WEIGHT_MAX_ITERATIONS = 60


class _Estimate(NamedTuple):
    """Member AR fits of a block of dates and their weight-window data.
    Column b * m + j of ``fits`` and ``errors`` belongs to date b, member j."""

    fits: ARFits
    errors: np.ndarray  # (120, dates * m) error columns, oldest row first
    sigma1: np.ndarray  # (dates,)
    window: np.ndarray  # (3, dates, 30): adjusted mean and spread, observations


def _fit_members(errors: np.ndarray, m: int) -> ARFits:
    """AR fits of the (n, dates * m) error columns; a constant column gets
    the mean-only adjustment."""
    fits = fit_ar_yule_walker(errors, MAX_MEMBER_AR_ORDER, mean_fallback=True)
    for column in np.flatnonzero(fits.degenerate):
        logger.warning("member %d error series degenerate; using mean-only adjustment",
                       column % m + 1)
    return fits


def _crps_weights(sigma1, mu, sigma2, y):
    """Weights w in [0, 1] that minimize each row's mean CRPS of
    N(mu, (w sigma1 + (1 - w) sigma2)^2) at y; (weights, converged,
    iterations).

    The mean CRPS is convex in w (d2 CRPS / d sigma2 = 2 phi(z) z^2 / sigma
    >= 0 and sigma is affine in w), so its derivative is increasing.  Each
    row takes projected Newton steps inside the bracket that the signs of
    the derivatives seen so far leave, and bisects that bracket when a step
    would leave it.  A row stops once its step is below 1e-10.
    """
    spread = sigma1[:, None] - sigma2  # d sigma / d w
    w = np.full(y.shape[0], 0.5)
    # lo/hi: nearest points known left/right of the optimum; -1 and 2 mean
    # no point seen yet on that side
    lo, hi = np.full_like(w, -1.0), np.full_like(w, 2.0)
    converged = np.zeros(w.size, dtype=bool)
    iterations = np.zeros(w.size, dtype=int)
    rows = np.arange(w.size)
    for it in range(1, _WEIGHT_MAX_ITERATIONS + 1):
        iterations[rows] = it
        wr = w[rows]
        sigma = wr[:, None] * sigma1[rows, None] + (1.0 - wr[:, None]) * sigma2[rows]
        d_sigma_d_w = np.where(sigma > _SIGMA_FLOOR, spread[rows], 0.0)
        sigma = np.maximum(sigma, _SIGMA_FLOOR)
        _, d_sigma = crps_normal_gradient(mu[rows], sigma, y[rows])
        _, _, h_ss = crps_normal_hessian(mu[rows], sigma, y[rows])
        g = np.mean(d_sigma * d_sigma_d_w, axis=1)
        h = np.mean(h_ss * np.square(d_sigma_d_w), axis=1)
        lo[rows] = np.where(g < 0, wr, lo[rows])
        hi[rows] = np.where(g > 0, wr, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.clip(wr - np.where(g == 0, 0.0, g / h), 0.0, 1.0)
        inside = (newton > lo[rows]) & (newton < hi[rows])
        new = np.where(inside, newton,
                       0.5 * (np.maximum(lo[rows], 0.0) + np.minimum(hi[rows], 1.0)))
        done = np.abs(new - wr) <= _WEIGHT_TOLERANCE
        w[rows] = new
        converged[rows[done]] = True
        rows = rows[~done]
        if rows.size == 0:
            break
    return w, converged, iterations


def _estimate(series: StationSeries, ends: np.ndarray) -> _Estimate:
    """Member AR fits for each history end h in ``ends`` (exclusive) on the
    AR window [h-120, h-30), and the teacher-forced adjusted ensemble on the
    weight window [h-30, h); the caller has checked those observations."""
    m = series.n_members
    days = ends - _SPAN + np.arange(_SPAN)[:, None]     # (120, dates)
    obs = series.obs[days]
    members = series.members[days]                      # (120, dates, m)
    errors = (obs[..., None] - members).reshape(_SPAN, -1)
    fits = _fit_members(errors[:AR_WINDOW], m)
    variance = ar_innovation_variance(errors[:AR_WINDOW], fits).reshape(-1, m)
    sigma1 = np.sqrt(variance.mean(axis=1))

    adjusted = members[AR_WINDOW:] + ar_teacher_forced(fits, errors, AR_WINDOW).reshape(
        WEIGHT_WINDOW, -1, m)                           # (30, dates, m)
    window = np.stack([adjusted.mean(axis=2), adjusted.std(axis=2, ddof=1),
                       obs[AR_WINDOW:]]).transpose(0, 2, 1)
    return _Estimate(fits, errors, sigma1, window)


def _adjusted_ensemble(series: StationSeries, fits: ARFits, history: np.ndarray,
                       indices: np.ndarray, steps: int) -> np.ndarray:
    """AR-adjusted members (dates, m) for the prediction indices.

    The residuals of the steps - 1 unobservable days and the date itself
    are bridged by the multi-step recursion from the last p rows of
    ``history``, the error columns up to each date's history end.
    """
    bridge = ar_multistep(fits, history, steps)[-1]
    return series.members[indices] + bridge.reshape(indices.size, -1)


def ar_emos_fit(series: StationSeries) -> FittedModel:
    """Record the member AR fits and the weight at the training end."""
    est = _estimate(series, np.array([series.n_days]))
    weight, converged, iterations = _crps_weights(est.sigma1, *est.window)
    return FittedModel(
        kind="AR-EMOS",
        members_ar=est.fits.members(),
        weight=float(weight[0]),
        meta={
            "ar_window": AR_WINDOW,
            "weight_window": WEIGHT_WINDOW,
            "sigma1": float(est.sigma1[0]),
            "converged": bool(converged[0]),
            "iterations": int(iterations[0]),
        },
    )


def ar_emos_predict(model: FittedModel, series: StationSeries, dates):
    """Rolling AR-EMOS prediction on AR_WINDOW and WEIGHT_WINDOW, whatever
    window lengths the fit file records, batched over blocks of dates.

    Every date is estimated on its own windows, so its (mu, sigma) do not
    depend on which other dates are requested.
    """
    ctx = PredictionContext.build(model, series, dates)
    ends = ctx.window_ends(_SPAN)
    mu, sigma1, sigma2 = np.empty((3, ends.size))
    window = np.empty((3, ends.size, WEIGHT_WINDOW))
    for start in range(0, ends.size, _BLOCK_DATES):
        block = slice(start, start + _BLOCK_DATES)
        est = _estimate(series, ends[block])
        # h >= 120 > k, so every date is k + 1 steps past its history end
        adjusted = _adjusted_ensemble(series, est.fits, est.errors, ctx.indices[block],
                                      ctx.k + 1)
        mu[block] = adjusted.mean(axis=1)
        sigma2[block] = adjusted.std(axis=1, ddof=1)
        sigma1[block] = est.sigma1
        window[:, block] = est.window
    weight, _, _ = _crps_weights(sigma1, *window)
    return mu, np.maximum(weight * sigma1 + (1.0 - weight) * sigma2, _SIGMA_FLOOR)

"""Autoregressive adjusted EMOS (AR-EMOS) benchmark.

Per member i, an AR(p_i) process is fitted to the member error series
r_i(t) = y(t) - x_i(t) over a rolling 90-day window; the AR-adjusted
ensemble xtilde_i(t) = x_i(t) + predicted residual yields the location
(its mean) and one scale candidate (its spread sigma_2).  The second
candidate sigma_1 is the root mean of the member innovation variances.
The convex weight between them is picked by CRPS minimization over the
following 30-day window.  Everything re-estimates per prediction date.
Both window lengths are fixed, as in Moeller & Gross (2016).

The 90-day AR windows of consecutive dates share 89 days, so the member fits
and innovation variances come from window sums (``timeseries.windowed_ar_fits``):
running sums of each member's errors and of their lag products give every
(date, member) window's autocovariances in O(lags) and its innovation variance
in O(p^2), and one Levinson-Durbin and AIC pass fits them all.  Prediction
takes the dates in history-end order, in equal parts of at most ``_PART_DATES``
dates to bound its memory, fits each part in one call and bridges all of its
(date, member) columns at once; the weight windows run in blocks of
``_BLOCK_DATES`` dates and one ``minimize_newton`` call, bounded to [0, 1],
picks every date's weight.  The training fit is the one-date case.
Yule-Walker fits are stationary by construction, so the multi-step bridge
needs no stationarity check.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from ..data import StationSeries, lead_time_offset, member_stats
# ``golden_section``, ``crps_normal_series``, ``fit_ar_yule_walker`` and
# ``ar_innovation_variance`` stay importable here: perfbench's tracer wraps
# these names
from ..optimize import OptimizeSettings, minimize_newton
from ..optimize import golden_section  # noqa: F401
from ..scoring import crps_normal_partials, crps_normal_series  # noqa: F401
from ..timeseries import ARFits, ar_multistep, ar_teacher_forced, windowed_ar_fits
from ..timeseries import ar_innovation_variance, fit_ar_yule_walker  # noqa: F401
from .base import FittedModel

logger = logging.getLogger(__name__)

MAX_MEMBER_AR_ORDER = 5
AR_WINDOW = 90
WEIGHT_WINDOW = 30
_SPAN = AR_WINDOW + WEIGHT_WINDOW
_TAIL = MAX_MEMBER_AR_ORDER + WEIGHT_WINDOW  # error rows the weight window reads
_SIGMA_FLOOR = 1e-8
# dates per weight-window block (its largest arrays are 0.2 MB at 50 members)
# and per member-fit part: with 48-date parts a 366-date predict's traced peak
# is 1.75 MiB at 50 members, under EMOS predict's 1.96 MiB on the same dates
_BLOCK_DATES = 16
_PART_DATES = 48
_WEIGHT_SETTINGS = OptimizeSettings(max_iterations=60, gradient_tolerance=1e-10)


class _Estimate(NamedTuple):
    """Member AR fits of a set of dates and their weight-window data.
    Column b * m + j of ``fits`` and ``errors`` belongs to date b, member j."""

    fits: ARFits
    errors: np.ndarray  # (5, dates * m) errors of the 5 days before h: the bridge's history
    sigma1: np.ndarray  # (dates,)
    window: np.ndarray  # (3, dates, 30): adjusted mean and spread, observations


def _crps_weights(sigma1, mu, sigma2, y):
    """Weights w in [0, 1] that minimize each row's mean CRPS of
    N(mu, (w sigma1 + (1 - w) sigma2)^2) at y; (weights, converged,
    iterations).

    The mean CRPS is convex in w (d2 CRPS / d sigma2 = 2 phi(z) z^2 / sigma
    >= 0 and sigma is affine in w), so one Newton solve bounded to [0, 1]
    from w = 0.5 finds every row's minimum.
    """
    def evaluate(w, rows):
        sigma = w * sigma1[rows, None] + (1.0 - w) * sigma2[rows]
        d_sigma_d_w = np.where(sigma > _SIGMA_FLOOR, sigma1[rows, None] - sigma2[rows], 0.0)
        sigma = np.maximum(sigma, _SIGMA_FLOOR)
        crps, _, d_sigma, c, z = crps_normal_partials(mu[rows], sigma, y[rows])
        return (np.mean(crps, axis=1), np.mean(d_sigma * d_sigma_d_w, axis=1)[:, None],
                np.mean(c * np.square(z) * np.square(d_sigma_d_w), axis=1)[:, None, None])

    result = minimize_newton(evaluate, np.full((y.shape[0], 1), 0.5), _WEIGHT_SETTINGS,
                             bounds=(0.0, 1.0))
    return result.x[:, 0], result.converged, result.iterations


def _estimate(series: StationSeries, ends: np.ndarray) -> _Estimate:
    """Member AR fits for each history end h in ``ends`` (exclusive) on the
    AR window [h-120, h-30), in one call, and the teacher-forced adjusted
    ensemble on the weight window [h-30, h), in blocks of ``_BLOCK_DATES``
    dates; the caller has checked those observations.  A constant member
    error window gets the mean-only adjustment and a warning."""
    m, k = series.n_members, MAX_MEMBER_AR_ORDER
    first = int(ends.min()) - _SPAN
    x = series.obs[first:ends.max(), None] - series.members[first:ends.max()]
    fits, variance = windowed_ar_fits(x, ends - _SPAN, AR_WINDOW, k, first)
    for column in np.flatnonzero(fits.degenerate):
        logger.warning("member %d error series degenerate; using mean-only adjustment",
                       column % m + 1)
    window = np.empty((3, ends.size, WEIGHT_WINDOW))
    for b in range(0, ends.size, _BLOCK_DATES):
        block, cols = slice(b, b + _BLOCK_DATES), slice(b * m, (b + _BLOCK_DATES) * m)
        rows = ends[block] - first - _TAIL + np.arange(_TAIL)[:, None]  # (35, dates) rows of x
        days = first + rows[k:]                                         # the weight window
        adjusted = ar_teacher_forced(fits.columns(cols), x[rows].reshape(_TAIL, -1),
                                     k).reshape(WEIGHT_WINDOW, -1, m)
        adjusted += series.members[days]
        window[:2, block] = np.reshape(member_stats(adjusted.reshape(-1, m)),
                                       (2, WEIGHT_WINDOW, -1)).transpose(0, 2, 1)
        window[2, block] = series.obs[days].T
    history = x[ends - first - k + np.arange(k)[:, None]].reshape(k, -1)
    return _Estimate(fits, history, np.sqrt(variance.reshape(-1, m).mean(axis=1)), window)


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


def ar_emos_predict(model: FittedModel, series: StationSeries, rows: np.ndarray):
    """Rolling AR-EMOS prediction on AR_WINDOW and WEIGHT_WINDOW, whatever
    window lengths the fit file records, batched over parts of the dates.

    Every date is estimated on its own windows, and the window sums of its
    AR fits start from its own anchor row, whichever part it falls in, so
    its (mu, sigma) are the same to the bit whichever other dates are requested.
    """
    ends = series.window_ends(rows, _SPAN)
    mu, sigma1, sigma2 = np.empty((3, ends.size))
    window = np.empty((3, ends.size, WEIGHT_WINDOW))
    order = np.argsort(ends, kind="stable")
    for part in np.array_split(order, -(-order.size // _PART_DATES)):
        est = _estimate(series, ends[part])
        # h >= 120 > k, so every date is k + 1 steps past its history end
        adjusted = _adjusted_ensemble(series, est.fits, est.errors, rows[part],
                                      lead_time_offset(series.lead_time_h) + 1)
        mu[part], sigma2[part] = member_stats(adjusted)
        sigma1[part], window[:, part] = est.sigma1, est.window
        del est, adjusted  # before the next part's fits
    weight, _, _ = _crps_weights(sigma1, *window)
    return mu, np.maximum(weight * sigma1 + (1.0 - weight) * sigma2, _SIGMA_FLOOR)

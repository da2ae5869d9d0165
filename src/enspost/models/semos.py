"""The static seasonal model family: SEMOS, DAR-SEMOS, DAR-GARCH-SEMOS, SAR-SEMOS.

All four share the seasonal location/log-scale predictors and a joint
CRPS-minimizing BFGS fit on a static training period.  The three AR kinds
stack one AR(p) on the errors x(t) = (y(t) - mu_S(t)) / d(t), with
mu = mu_S + d * x_hat; they differ only in the divisor d (``_error_divisor``)
and in GARCH:

* SEMOS: no AR.
* DAR-SEMOS: d = 1, an AR on the deseasonalized (mean) errors.
* DAR-GARCH-SEMOS: DAR-SEMOS plus a multiplicative GARCH(1,1) variance
  factor on the standardized innovations rho(t) = (x(t) - x_hat(t)) / sigma_S(t);
  GARCH coefficients are carried as unconstrained square roots during the
  optimization so they stay non-negative.
* SAR-SEMOS: d = sigma_S, an AR on the standardized errors.

During fitting the AR recursions are teacher forced (observed residual
histories); the first p training days carry no prediction and are dropped
from the objective.  The BFGS fit uses the exact gradient of the mean
training CRPS: the reverse-mode adjoint of the same forward pass that
computes (mu, sigma), through the teacher-forced AR, the GARCH variance
path and the seasonal predictors.  Each point the fit tries runs that
pass once, for the value and the gradient together.

The fit starts from least-squares seasonal coefficients (and Yule-Walker
and GARCH fits of their residuals), and BFGS starts from the inverse of a
Gauss-Newton matrix of the mean CRPS there (``_curvature_start``).  The
seasonal columns [1, xbar, F(t), F(t) xbar] are strongly collinear, so
from an identity start BFGS spends most of its iterations learning that
curvature.

In DAR-GARCH-SEMOS the scale intercept b0 and omega0 are not separately
identified: (b0 + log c, omega0 / c^2) gives sigma_S c and a GARCH factor
sigma_G / c for every c > 0, so the objective and the predictions are the
same.  Fits can therefore end anywhere along that line, and their b0 and
omega0 move between runs that change the optimizer while the forecasts
stay put.

During prediction, the k residuals from each date's ``history_end`` to the
date are unobservable, and all dates are bridged in one pass by the conditional
the synthetic truth also uses, ``timeseries.ar_forecast`` (multi-step AR
and GARCH conditional-expectation update).  At k = 0 (24 h) it runs the
fit's own recursions, so predicting a training day gives the fit's forward
pass to the bit.  mu is
the (k+1)-step conditional mean; sigma stays the one-step sigma_S (times
the bridged GARCH factor), and with GARCH the k >= 1 conditional is a
scale mixture, which a Gaussian matches in moments at best.  The jointly
CRPS-fitted tau is not held stationary, so a predict call whose tau is
nonstationary, where the bridge can diverge, warns once.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np

from ..data import StationSeries, day_of_year, time_index
from ..errors import DegenerateSeries, InvalidInput, NumericalFailure
from ..optimize import OptimizeSettings, minimize
from ..scoring import crps_normal_partials, crps_normal_series  # noqa: F401
from ..seasonal import N_COEFFS, seasonal_design
from ..timeseries import (
    ARCoeffs,
    GARCHCoeffs,
    ar_forecast,
    ar_teacher_forced,
    ar_teacher_forced_adjoint,
    fit_ar_yule_walker,
    fit_garch,
    garch_path,
    garch_path_adjoint,
    is_stationary,
)
# ``crps_normal_series`` and ``ar_multistep`` stay importable here: perfbench's tracer wraps them
from ..timeseries import ar_multistep  # noqa: F401
from .base import SEASONAL_KINDS, FittedModel

logger = logging.getLogger(__name__)

MIN_TRAINING_DAYS = 730  # two full years, for Fourier identifiability


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _designs(series: StationSeries, origin) -> tuple[np.ndarray, np.ndarray]:
    t = time_index(series.dates, origin)
    return seasonal_design(t, series.ens_mean), seasonal_design(t, series.ens_sd)


def _ols(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    # The minimum-norm least-squares answer through the 10 x 10 normal
    # equations, which share it, so no LAPACK call sees the 1,826-row design:
    # a threaded gelsd on it (numpy's or scipy's) stalled at 35-46 ms a call
    # in some runs (2-core Xeon, OpenBLAS 0.3.31).  A BLAS Gram showed no
    # such stall (``_curvature_start``); this one stays an einsum so that the
    # start keeps its bytes.  Gram singular values below its summation rounding,
    # rows * eps, are its null space; rcond=None kept one at 1.2e-14 for a
    # constant covariate of 2.7.
    gram = np.einsum("ti,tj->ij", design, design)
    rhs = np.einsum("ti,t->i", design, target)
    coeffs, *_ = np.linalg.lstsq(gram, rhs, rcond=design.shape[0] * np.finfo(float).eps)
    return coeffs


def empirical_sd_by_day_of_year(dates, obs, half_width: int = 15) -> np.ndarray:
    """Per-date empirical sd of the observations falling in a symmetric
    day-of-year window (half-width in days, pooled across years).

    Each day of year's count, mean and centred sum of squares are combined
    over the window by Chan's pairwise update, so the variance stays a
    two-pass one: the sum of the group sums of squares plus each group's
    count times its squared offset from the window mean.
    """
    obs = np.asarray(obs, dtype=float)
    doy = day_of_year(dates)
    days = np.arange(1, 367, dtype=np.int16)
    dist = np.abs(np.subtract.outer(days, days))
    # (day, member day) pairs of the windows; group d - 1 holds day of year d
    centre, member = np.nonzero(np.minimum(dist, 365 - dist) <= half_width)
    count = np.bincount(doy - 1, minlength=366).astype(float)
    mean = np.divide(np.bincount(doy - 1, weights=obs, minlength=366), count,
                     out=np.zeros(366), where=count > 0)
    sum_sq = np.bincount(doy - 1, weights=np.square(obs - mean[doy - 1]), minlength=366)

    def window_sum(values):
        return np.bincount(centre, weights=values, minlength=366)

    n = window_sum(count[member])
    present = np.flatnonzero(count > 0)
    if np.any(n[present] < 2):
        d = present[np.argmax(n[present] < 2)] + 1
        raise DegenerateSeries(f"day-of-year window around {d} has < 2 observations")
    with np.errstate(invalid="ignore", divide="ignore"):  # days absent from the data
        pooled_mean = window_sum((count * mean)[member]) / n
        spread = window_sum(count[member] * np.square(mean[member] - pooled_mean[centre]))
        sd = np.sqrt((window_sum(sum_sq[member]) + spread) / (n - 1))
    out = sd[doy - 1]
    if np.any(out <= 0):
        raise DegenerateSeries("constant observations inside a day-of-year window")
    return out


def _error_divisor(kind: str, sigma_s: np.ndarray) -> np.ndarray:
    """d of an AR kind, whose AR runs on x = (y - mu_S) / d: sigma_S for
    SAR-SEMOS (standardized errors), ones for the DAR kinds (mean errors),
    which multiply and divide exactly."""
    return sigma_s if kind == "SAR-SEMOS" else np.ones_like(sigma_s)


# ---------------------------------------------------------------------------
# theta layout and training evaluation (one forward pass used by the
# objective with its gradient and by the residuals)
# ---------------------------------------------------------------------------


def _pack(loc, scale, ar: ARCoeffs | None = None,
          garch: GARCHCoeffs | None = None) -> np.ndarray:
    """theta = (loc, scale, eta, tau, sqrt omega), the vector the joint fit
    optimizes; GARCH coefficients are carried as square roots so they stay
    non-negative."""
    pieces = [loc, scale]
    if ar is not None:
        pieces.append(np.array([ar.eta, *ar.tau]))
    if garch is not None:
        pieces.append(np.sqrt([garch.omega0, garch.omega1, garch.omega2]))
    return np.concatenate(pieces)


def _unpack(theta: np.ndarray, p: int):
    """(loc, scale, ar, root_w) of theta: ar is None when theta carries no AR
    block, root_w holds the GARCH square roots (empty without GARCH)."""
    ar = None
    if theta.size > 2 * N_COEFFS:
        ar = ARCoeffs(p=p, eta=float(theta[2 * N_COEFFS]),
                      tau=tuple(theta[2 * N_COEFFS + 1: 2 * N_COEFFS + 1 + p].tolist()))
    return theta[:N_COEFFS], theta[N_COEFFS:2 * N_COEFFS], ar, theta[2 * N_COEFFS + 1 + p:]


def _evaluate(kind: str, theta: np.ndarray, p: int, x_loc: np.ndarray,
              x_scale: np.ndarray, y: np.ndarray):
    """Per-day (mu, sigma) of the model over the training period.

    Returns (mu, sigma, start, pullback): start = p is the first day
    carrying a prediction, and pullback(d_mu, d_sigma) maps the adjoints of
    mu and sigma to the gradient in theta, in reverse mode through this
    same pass.
    """
    loc, scale, ar, root_w = _unpack(theta, p)
    mu_s = x_loc @ loc
    sigma_s = np.exp(x_scale @ scale)

    def seasonal_pullback(d_mu_s, d_sigma_s, *tail):
        # d sigma_s / d scale = sigma_s * x_scale
        return np.concatenate([d_mu_s @ x_loc, (d_sigma_s * sigma_s) @ x_scale, *tail])

    if kind == "SEMOS":
        return mu_s, sigma_s, 0, seasonal_pullback

    def padded(adj):
        # an adjoint on days p.. as one on every training day
        return np.concatenate([np.zeros(p), adj])

    d = _error_divisor(kind, sigma_s)
    x = (y - mu_s) / d
    x_pred = ar_teacher_forced(ar, x, p)
    mu = mu_s[p:] + d[p:] * x_pred

    def ar_pullback(d_mu, d_sigma_s, *tail):
        # mu = mu_s + d x_pred, x = (y - mu_s) / d; d_sigma_s covers days p..
        d_x, d_eta, d_tau = ar_teacher_forced_adjoint(ar, x, p, d_mu * d[p:])
        d_sigma_s = padded(d_sigma_s)
        if kind == "SAR-SEMOS":  # d moves with the scale coefficients too
            d_sigma_s = d_sigma_s + padded(d_mu * x_pred) - d_x * x / sigma_s
        return seasonal_pullback(padded(d_mu) - d_x / d, d_sigma_s, [d_eta], d_tau, *tail)

    if kind != "DAR-GARCH-SEMOS":
        return mu, sigma_s[p:], p, ar_pullback

    w = np.square(root_w)
    eps = x[p:] - x_pred
    rho_sq = np.square(eps / sigma_s[p:])
    sig_g2 = garch_path(w, rho_sq)
    sig_g = np.sqrt(sig_g2)

    def garch_pullback(d_mu, d_sigma):
        # sigma = sigma_s sig_g; sig_g^2 is driven by rho^2 = eps^2 / sigma_s^2,
        # where eps = y - mu; w = root_w^2
        d_w, d_rho_sq = garch_path_adjoint(w, rho_sq, sig_g2,
                                           d_sigma * sigma_s[p:] / (2.0 * sig_g))
        d_eps = 2.0 * d_rho_sq * eps / np.square(sigma_s[p:])
        return ar_pullback(d_mu - d_eps, d_sigma * sig_g - 2.0 * d_rho_sq * rho_sq / sigma_s[p:],
                           2.0 * root_w * d_w)

    return mu, sigma_s[p:] * sig_g, p, garch_pullback


def _objective(kind: str, p: int, x_loc, x_scale, y):
    """Mean training CRPS as a function of theta, with its exact gradient:
    fun(theta) -> (value, gradient).  The gradient is the closed-form CRPS
    partials in (mu, sigma), pulled back through the same forward pass.  A
    trial point whose pass overflows gets a non-finite value, on which the
    line search shortens its step."""
    def fun(theta):
        with np.errstate(all="ignore"):
            mu, sigma, start, pullback = _evaluate(kind, theta, p, x_loc, x_scale, y)
            crps, d_mu, d_sigma, _, _ = crps_normal_partials(mu, sigma, y[start:])
            return float(np.mean(crps)), pullback(d_mu, d_sigma) / mu.size
    return fun


def _curvature_start(mu, sigma, y, x_loc, x_scale, n_params: int) -> tuple[np.ndarray, float]:
    """Starting inverse Hessian of a seasonal fit, the inverse of a
    Gauss-Newton matrix of the mean training CRPS at the start's (mu, sigma),
    and that mean CRPS, from the same CRPS pass.

    The CRPS second partials in (mu, sigma) are c (1, z; z, z^2), rank one,
    so through mu = X_loc a and sigma = exp(X_scale b) the seasonal block is
    one weighted Gram V' diag(c) V / n over the n scored days, with
    V = [X_loc, z sigma X_scale].  It is a BLAS product, which unlike
    ``_ols``'s least-squares solve did not stall: over 3,000 calls on the
    (1,825, 20) V it took 0.37-0.48 ms median and 3.7-4.7 ms at p99.9,
    against 1.8-1.9 and 5.4-6.0 ms for the same block as three einsums
    (2-core Xeon, OpenBLAS 0.3.31).  The AR and GARCH coordinates get the
    identity times the mean diagonal of the seasonal block.  Eigenvalues
    are floored at 1e-8 of the largest before the inverse.
    """
    start = y.size - mu.size
    crps, _, _, c, z = crps_normal_partials(mu, sigma, y[start:])
    v = np.hstack([x_loc[start:], (z * sigma)[:, None] * x_scale[start:]])
    h = np.zeros((n_params, n_params))
    h[:2 * N_COEFFS, :2 * N_COEFFS] = v.T @ (c[:, None] * v) / mu.size
    tail = np.arange(2 * N_COEFFS, n_params)
    h[tail, tail] = np.mean(np.diag(h)[:2 * N_COEFFS])
    lam, q = np.linalg.eigh(h)
    lam = np.maximum(lam, 1e-8 * lam[-1])
    return np.einsum("ik,k,jk->ij", q, 1.0 / lam, q), float(np.mean(crps))


def _standardized(kind: str, theta: np.ndarray, p: int, x_loc, x_scale, y) -> np.ndarray:
    """Standardized one-step training innovations (y - mu) / sigma at theta."""
    mu, sigma, start, _ = _evaluate(kind, theta, p, x_loc, x_scale, y)
    return (y[start:] - mu) / sigma


def training_residuals(model: FittedModel, series: StationSeries) -> np.ndarray:
    """Standardized one-step training innovations (y - mu) / sigma of a
    seasonal fit on ``series``, recomputed from its stored coefficients."""
    if model.kind not in SEASONAL_KINDS:
        raise InvalidInput(f"{model.kind} does not expose training residuals")
    x_loc, x_scale = _designs(series, model.origin)
    p = 0 if model.ar is None else model.ar.p
    theta = _pack(model.loc, model.scale, model.ar, model.garch)
    return _standardized(model.kind, theta, p, x_loc, x_scale, series.obs)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def seasonal_fit(kind: str, series: StationSeries,
                 settings: OptimizeSettings | None = None) -> FittedModel:
    """Fit one seasonal kind's coefficients jointly by CRPS minimization; an
    AR order is chosen once by AIC from the initial residuals."""
    origin = series.dates[0]
    x_loc, x_scale = _designs(series, origin)
    y = series.obs

    loc0 = _ols(x_loc, y)

    if kind in ("SEMOS", "DAR-SEMOS"):
        scale0 = np.eye(N_COEFFS)[1]  # b1 = 1, everything else 0
    else:
        scale0 = _ols(x_scale, np.log(empirical_sd_by_day_of_year(series.dates, y)))
    ar0 = garch0 = None
    if kind != "SEMOS":
        sigma_s0 = np.exp(x_scale @ scale0)
        x0 = (y - x_loc @ loc0) / _error_divisor(kind, sigma_s0)
        ar0 = fit_ar_yule_walker(x0)
    if kind == "DAR-GARCH-SEMOS":
        eps0 = x0[ar0.p:] - ar_teacher_forced(ar0, x0, ar0.p)
        rho0 = eps0 / sigma_s0[ar0.p:]
        try:
            garch0 = fit_garch(rho0)
        except (DegenerateSeries, NumericalFailure) as exc:
            garch0 = GARCHCoeffs(float(np.var(rho0)), 0.0, 0.0)
            logger.warning("GARCH initialization failed (%s); falling back to %s", exc, garch0)

    p = 0 if ar0 is None else ar0.p
    theta0 = _pack(loc0, scale0, ar0, garch0)
    mu0, sigma0, _, _ = _evaluate(kind, theta0, p, x_loc, x_scale, y)
    inverse_hessian, init_crps = _curvature_start(mu0, sigma0, y, x_loc, x_scale, theta0.size)
    result = minimize(_objective(kind, p, x_loc, x_scale, y), theta0,
                      settings or OptimizeSettings(), inverse_hessian=inverse_hessian)

    loc, scale, ar, root_w = _unpack(result.x, p)
    return FittedModel(
        kind=kind,
        loc=loc.copy(),
        scale=scale.copy(),
        ar=ar,
        garch=GARCHCoeffs(*np.square(root_w).tolist()) if root_w.size else None,
        meta={
            "converged": bool(result.converged),
            "train_crps": float(result.value),
            "init_crps": init_crps,
            "iterations": int(result.iterations),
            "n_evals": int(result.n_evals),
            "grad_norm": float(result.grad_norm),
        },
        train_residuals=_standardized(kind, result.x, p, x_loc, x_scale, y),
    )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def seasonal_predict(model: FittedModel, series: StationSeries, rows: np.ndarray):
    """Per-row (mu, sigma) of a seasonal fit, all rows in one pass."""
    x_loc, x_scale = _designs(series, model.origin)
    mu_s, sigma_s = x_loc @ model.loc, np.exp(x_scale @ model.scale)
    if model.kind == "SEMOS":
        return mu_s[rows], sigma_s[rows]

    if not is_stationary(model.ar.tau):
        warnings.warn("multi-step prediction with nonstationary AR coefficients", stacklevel=2)
    d = _error_divisor(model.kind, sigma_s)
    x_hat, sigma_g = ar_forecast(model.ar, model.garch, (series.obs - mu_s) / d, sigma_s / d,
                                 series.history_end(rows), rows)
    return mu_s[rows] + d[rows] * x_hat, sigma_s[rows] * sigma_g

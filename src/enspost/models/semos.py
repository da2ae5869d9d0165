"""The static seasonal model family: SEMOS, DAR-SEMOS, DAR-GARCH-SEMOS, SAR-SEMOS.

All four share the seasonal location/log-scale predictors and a joint
CRPS-minimizing BFGS fit on a static training period.  They differ in the
residual recursion stacked on top:

* SEMOS: none.
* DAR-SEMOS: AR(p) on the deseasonalized errors r(t) = y(t) - mu_S(t).
* DAR-GARCH-SEMOS: DAR-SEMOS plus a multiplicative GARCH(1,1) variance
  factor on the standardized innovations rho(t) = eps(t) / sigma_S(t);
  GARCH coefficients are carried as unconstrained square roots during the
  optimization so they stay non-negative.
* SAR-SEMOS: AR(p) on the standardized errors z(t) = (y(t) - mu_S(t)) / sigma_S(t).

During fitting the AR recursions are teacher forced (observed residual
histories); the first p training days carry no prediction and are dropped
from the objective.  The BFGS fit uses the exact gradient of the mean
training CRPS: the reverse-mode adjoint of the same forward pass that
computes (mu, sigma), through the teacher-forced AR, the GARCH variance
path and the seasonal predictors.  Each point the fit tries runs that
pass once, for the value and the gradient together.

During prediction, residuals of the k most recent days (lead-time offset)
are unobservable and are bridged with the multi-step AR recursion; the
GARCH recursion bridges them with its conditional-expectation update.  All
requested dates are computed in one pass: one multi-step AR recursion with
a column per date, and for DAR-GARCH-SEMOS one GARCH path over the
observable series.  sigma stays the one-step sigma_S (times the bridged
GARCH factor): the AR bridge moves the mean only.  The jointly CRPS-fitted
tau is not held stationary, so a predict call whose tau is nonstationary,
where the bridge can diverge, warns once.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np
from scipy.linalg import lstsq

from ..data import StationSeries, day_of_year, time_index
from ..errors import DegenerateSeries, InvalidInput, NumericalFailure
from ..optimize import OptimizeSettings, minimize
from ..scoring import crps_normal_gradient, crps_normal_series
from ..seasonal import N_COEFFS, seasonal_design
from ..timeseries import (
    ARCoeffs,
    ARFits,
    GARCHCoeffs,
    ar_multistep,
    ar_teacher_forced,
    ar_teacher_forced_adjoint,
    fit_ar_yule_walker,
    fit_garch,
    garch_path,
    garch_path_adjoint,
    is_stationary,
)
from .base import SEASONAL_KINDS, FittedModel, PredictionContext

logger = logging.getLogger(__name__)

MIN_TRAINING_DAYS = 730  # two full years, for Fourier identifiability


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _designs(series: StationSeries, origin) -> tuple[np.ndarray, np.ndarray]:
    t = time_index(series.dates, origin)
    return seasonal_design(t, series.ens_mean), seasonal_design(t, series.ens_sd)


def _ols(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    # scipy's gelsd gives np.linalg.lstsq's minimum-norm solution in ~0.3 ms
    # instead of ~40 ms on the 1,826 x 10 seasonal design (2-core Xeon,
    # OpenBLAS 0.3.31)
    coeffs, *_ = lstsq(design, target)
    return coeffs


def _scale_identity_init() -> np.ndarray:
    init = np.zeros(N_COEFFS)
    init[1] = 1.0  # b1 = 1, everything else 0
    return init


def empirical_sd_by_day_of_year(dates, obs, half_width: int = 15) -> np.ndarray:
    """Per-date empirical sd of the observations falling in a symmetric
    day-of-year window (half-width in days, pooled across years)."""
    obs = np.asarray(obs, dtype=float)
    doy = day_of_year(dates)
    out = np.empty(obs.size)
    for d in np.unique(doy):
        dist = np.abs(doy - d)
        mask = np.minimum(dist, 365 - dist) <= half_width
        pooled = obs[mask]
        if pooled.size < 2:
            raise DegenerateSeries(f"day-of-year window around {d} has < 2 observations")
        out[doy == d] = np.std(pooled, ddof=1)
    if np.any(out <= 0):
        raise DegenerateSeries("constant observations inside a day-of-year window")
    return out


def _garch_path(w: np.ndarray, rho_sq: np.ndarray) -> np.ndarray:
    """GARCH variance path sigma_G^2 aligned with rho_sq.

    w holds (omega0, omega1, omega2) already squared/non-negative.  Element
    0 is the unconditional variance (denominator floored at 1e-3 to keep
    the fitting objective continuous across the stationarity boundary);
    element i uses rho_sq[i-1].
    """
    init = w[0] / max(1.0 - w[1] - w[2], 1e-3)
    if not init > 0:
        init = 1.0
    return garch_path(w, rho_sq, init)


def _garch_path_adjoint(w, rho_sq, path, d_path) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode derivative of ``_garch_path``: (d_w, d_rho_sq) from the
    adjoint ``d_path`` of its output ``path``, including the start value's
    floored denominator; the init <= 0 -> 1.0 branch has zero derivative."""
    d_w, d_rho_sq, d_init = garch_path_adjoint(w, rho_sq, path, d_path)
    denom = 1.0 - w[1] - w[2]
    if w[0] > 0:  # path[0] = omega0 / max(denom, 1e-3)
        d_w[0] += d_init / max(denom, 1e-3)
        if denom > 1e-3:
            d_w[1:] += d_init * path[0] / denom
    return d_w, d_rho_sq


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

    def padded(d):
        # an adjoint on days p.. as one on every training day
        return np.concatenate([np.zeros(p), d])

    if kind == "SAR-SEMOS":
        z = (y - mu_s) / sigma_s
        z_pred = ar_teacher_forced(ar, z, p)

        def sar_pullback(d_mu, d_sigma):
            # mu = mu_s + sigma_s z_pred, z = (y - mu_s) / sigma_s
            d_z, d_eta, d_tau = ar_teacher_forced_adjoint(ar, z, p, d_mu * sigma_s[p:])
            return seasonal_pullback(padded(d_mu) - d_z / sigma_s,
                                     padded(d_mu * z_pred + d_sigma) - d_z * z / sigma_s,
                                     [d_eta], d_tau)

        return mu_s[p:] + sigma_s[p:] * z_pred, sigma_s[p:], p, sar_pullback

    r = y - mu_s
    r_pred = ar_teacher_forced(ar, r, p)
    mu = mu_s[p:] + r_pred

    def dar_pullback(d_mu, d_sigma_s, *tail):
        # mu = mu_s + r_pred, r = y - mu_s; d_sigma_s covers days p..
        d_r, d_eta, d_tau = ar_teacher_forced_adjoint(ar, r, p, d_mu)
        return seasonal_pullback(padded(d_mu) - d_r, padded(d_sigma_s), [d_eta], d_tau, *tail)

    if kind == "DAR-SEMOS":
        return mu, sigma_s[p:], p, dar_pullback

    # DAR-GARCH-SEMOS
    w = np.square(root_w)
    eps = r[p:] - r_pred
    rho_sq = np.square(eps / sigma_s[p:])
    sig_g2 = _garch_path(w, rho_sq)
    sig_g = np.sqrt(sig_g2)

    def garch_pullback(d_mu, d_sigma):
        # sigma = sigma_s sig_g; sig_g^2 is driven by rho^2 = eps^2 / sigma_s^2,
        # where eps = y - mu; w = root_w^2
        d_w, d_rho_sq = _garch_path_adjoint(w, rho_sq, sig_g2,
                                            d_sigma * sigma_s[p:] / (2.0 * sig_g))
        d_eps = 2.0 * d_rho_sq * eps / np.square(sigma_s[p:])
        return dar_pullback(d_mu - d_eps, d_sigma * sig_g - 2.0 * d_rho_sq * rho_sq / sigma_s[p:],
                            2.0 * root_w * d_w)

    return mu, sigma_s[p:] * sig_g, p, garch_pullback


def _objective(kind: str, p: int, x_loc, x_scale, y):
    """Mean training CRPS as a function of theta, with its exact gradient:
    fun(theta) -> (value, gradient).  The gradient is the closed-form CRPS
    partials in (mu, sigma), pulled back through the same forward pass."""
    def fun(theta):
        mu, sigma, start, pullback = _evaluate(kind, theta, p, x_loc, x_scale, y)
        with np.errstate(all="ignore"):
            value = float(np.mean(crps_normal_series(mu, sigma, y[start:])))
            d_mu, d_sigma = crps_normal_gradient(mu, sigma, y[start:])
            return value, pullback(d_mu, d_sigma) / mu.size
    return fun


def _standardized(kind: str, theta: np.ndarray, p: int, x_loc, x_scale, y) -> np.ndarray:
    """Standardized one-step training innovations (y - mu) / sigma at theta."""
    mu, sigma, start, _ = _evaluate(kind, theta, p, x_loc, x_scale, y)
    return (y[start:] - mu) / sigma


def training_residuals(model: FittedModel, series: StationSeries) -> np.ndarray:
    """Standardized one-step training innovations (y - mu) / sigma of a
    seasonal fit on ``series``, recomputed from its stored coefficients."""
    if model.kind not in SEASONAL_KINDS:
        raise InvalidInput(f"{model.kind} does not expose training residuals")
    x_loc, x_scale = _designs(series, model.meta["origin"])
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
    ols_resid = y - x_loc @ loc0

    ar0 = None
    garch0 = None
    if kind in ("DAR-SEMOS", "DAR-GARCH-SEMOS"):
        ar0 = fit_ar_yule_walker(ols_resid)
    if kind in ("SEMOS", "DAR-SEMOS"):
        scale0 = _scale_identity_init()
    else:
        s_hat = empirical_sd_by_day_of_year(series.dates, y)
        scale0 = _ols(x_scale, np.log(s_hat))
    if kind == "DAR-GARCH-SEMOS":
        sigma_s0 = np.exp(x_scale @ scale0)
        eps0 = ols_resid[ar0.p:] - ar_teacher_forced(ar0, ols_resid, ar0.p)
        rho0 = eps0 / sigma_s0[ar0.p:]
        try:
            garch0 = fit_garch(rho0)
        except (DegenerateSeries, NumericalFailure) as exc:
            garch0 = GARCHCoeffs(float(np.var(rho0)), 0.0, 0.0)
            logger.warning("GARCH initialization failed (%s); falling back to %s", exc, garch0)
    if kind == "SAR-SEMOS":
        sigma_s0 = np.exp(x_scale @ scale0)
        ar0 = fit_ar_yule_walker((y - x_loc @ loc0) / sigma_s0)

    p = 0 if ar0 is None else ar0.p
    theta0 = _pack(loc0, scale0, ar0, garch0)
    fun = _objective(kind, p, x_loc, x_scale, y)
    result = minimize(fun, theta0, settings or OptimizeSettings())

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
            "init_crps": fun(theta0)[0],
            "iterations": int(result.iterations),
            "n_evals": int(result.n_evals),
            "grad_norm": float(result.grad_norm),
        },
        train_residuals=_standardized(kind, result.x, p, x_loc, x_scale, y),
    )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def _ar_bridge(ar: ARCoeffs, x: np.ndarray, h: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Multi-step AR forecast of ``x`` for every date at once: column d runs
    the recursion from the p values before h[d] (padded with eta when fewer
    exist) and yields its value ``steps[d]`` steps ahead."""
    rows = h + np.arange(-ar.p, 0)[:, None]  # (p, dates)
    history = np.where(rows >= 0, x[np.maximum(rows, 0)], ar.eta)
    paths = ar_multistep(ARFits.stack([ar] * h.size), history, int(steps.max(initial=1)))
    return paths[steps - 1, np.arange(h.size)]


def _garch_sigma_factor(g: GARCHCoeffs, ar: ARCoeffs, r: np.ndarray, sigma_s: np.ndarray,
                        h: np.ndarray, i: np.ndarray) -> np.ndarray:
    """sigma_G of each prediction index i, whose observable history ends
    before h (exclusive).

    One teacher-forced AR pass and one GARCH path run over the observable
    series.  Each date starts from the variance one step after its last
    observable innovation (the unconditional start when it has none) and
    is bridged over the remaining days by the conditional-expectation
    update, which replaces the unknown rho^2 by sigma_G^2 (standard
    multi-step variance forecast).
    """
    w = np.array([g.omega0, g.omega1, g.omega2])
    p = ar.p
    var = np.full(h.size, _garch_path(w, np.zeros(1))[0])
    steps_left = np.maximum(i - p, 0)
    n = int(h.max(initial=0))
    if n > p:
        rho_sq = np.square((r[p:n] - ar_teacher_forced(ar, r[:n], p)) / sigma_s[p:n])
        path = _garch_path(w, rho_sq)
        seen = h > p
        last = h[seen] - 1 - p  # path index of each date's last observable day
        # one step ahead still sees the last observable rho^2
        var[seen] = w[0] + w[1] * path[last] + w[2] * rho_sq[last]
        steps_left[seen] = (i - h)[seen]
    for step in range(int(steps_left.max(initial=0))):
        var = np.where(step < steps_left, w[0] + (w[1] + w[2]) * var, var)
    return np.sqrt(var)


def seasonal_predict(model: FittedModel, series: StationSeries, dates):
    """Per-date (mu, sigma) of a seasonal fit, all dates in one pass."""
    ctx = PredictionContext.build(model, series, dates)
    x_loc, x_scale = _designs(series, model.meta["origin"])
    mu_s, sigma_s = x_loc @ model.loc, np.exp(x_scale @ model.scale)
    i = ctx.indices
    if model.kind == "SEMOS":
        return mu_s[i], sigma_s[i]

    if not is_stationary(model.ar.tau):
        warnings.warn("multi-step prediction with nonstationary AR coefficients",
                      stacklevel=2)
    h = ctx.history_end(i)
    if model.kind == "SAR-SEMOS":
        z_hat = _ar_bridge(model.ar, (series.obs - mu_s) / sigma_s, h, i - h + 1)
        return mu_s[i] + sigma_s[i] * z_hat, sigma_s[i]

    r = series.obs - mu_s
    mu = mu_s[i] + _ar_bridge(model.ar, r, h, i - h + 1)
    if model.kind == "DAR-SEMOS":
        return mu, sigma_s[i]
    return mu, sigma_s[i] * _garch_sigma_factor(model.garch, model.ar, r, sigma_s, h, i)

"""Proper scoring rules, PIT and prediction-interval metrics, and the
per-case ``ScoreSample`` that ``verify.ScoreTable`` aggregates into rows.

All closed-form Gaussian scores share the standard normal PDF/CDF from
scipy.special (erf based, absolute error well below 1e-12), which keeps the
scores stable at the tolerances the CRPS optimizer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    InvalidInput,
    InvalidLevel,
    InvalidReference,
    NumericalFailure,
)

_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GaussianParams:
    """Parameters (mu, sigma) of one Gaussian predictive distribution."""

    mu: float
    sigma: float

    def __post_init__(self):
        check_gaussian_params(self.mu, self.sigma)


def check_gaussian_params(mu, sigma) -> None:
    """Raise InvalidInput unless every mu is finite and every sigma finite and > 0."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    bad = ~(np.isfinite(mu) & np.isfinite(sigma) & (sigma > 0))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        where = "" if bad.ndim == 0 else f" at case {i} of {bad.size}"
        raise InvalidInput(f"invalid Gaussian parameters mu={mu.flat[i]}, "
                           f"sigma={sigma.flat[i]}{where}")


# ---------------------------------------------------------------------------
# proper scoring rules
# ---------------------------------------------------------------------------


def crps_normal_series(mu, sigma, y):
    """Vectorized closed-form CRPS of N(mu, sigma^2) forecasts at observations y:
    ``crps_normal_partials``' first value."""
    return crps_normal_partials(mu, sigma, y)[0]


def crps_normal_partials(mu, sigma, y):
    """The closed-form CRPS with its partials in (mu, sigma), from one pass over
    z = (y - mu) / sigma, Phi(z) and phi(z): (crps, d_mu, d_sigma, curvature, z).

    CRPS = sigma * (z * (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)), d_mu = 1 - 2 Phi(z)
    and d_sigma = 2 phi(z) - 1/sqrt(pi).  The second partials (d2/dmu2, d2/dmu dsigma,
    d2/dsigma2) are curvature * (1, z, z^2), curvature = 2 phi(z) / sigma, so the
    Hessian in (mu, sigma) has rank one.
    """
    sigma = np.asarray(sigma, dtype=float)
    z = (np.asarray(y, dtype=float) - np.asarray(mu, dtype=float)) / sigma
    cdf, pdf = ndtr(z), _INV_SQRT_2PI * np.exp(-0.5 * np.square(z))
    crps = sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - _INV_SQRT_PI)
    return crps, 1.0 - 2.0 * cdf, 2.0 * pdf - _INV_SQRT_PI, 2.0 * pdf / sigma, z


def crps_normal(g: GaussianParams, y: float) -> float:
    """Closed-form CRPS of a single Gaussian forecast; always >= 0."""
    return float(crps_normal_series(g.mu, g.sigma, y))


def crps_integral(cdf, y: float, tol: float = 1e-8, breakpoints=None) -> float:
    """CRPS by adaptive quadrature of its defining integral.

    Integrates (F(z) - 1{z >= y})^2 over the real line to absolute tolerance
    ``tol``.  Serves as the independent oracle for the closed forms.
    ``scipy.integrate`` is imported here, on the first call, so that the
    library and the CLI, which never call this oracle, do not load it.

    Parameters
    ----------
    cdf : callable
        Distribution function, monotone from 0 to 1.
    y : float
        Observation.
    tol : float
        Absolute tolerance of the quadrature.
    breakpoints : array_like of float, optional
        Known discontinuities or kinks of ``cdf`` (e.g. the members of an
        empirical step CDF); the integration is split there, and a finite
        piece narrower than its share of ``tol`` is skipped.

    Raises
    ------
    NumericalFailure
        If the quadrature does not reach the requested tolerance.
    """
    from scipy import integrate

    def below(z):
        return np.square(cdf(z))

    def above(z):
        return np.square(cdf(z) - 1.0)

    pts = sorted({float(y), *np.asarray([] if breakpoints is None else breakpoints,
                                        dtype=float).ravel().tolist()})
    total = 0.0
    err = 0.0
    segments = []
    # (-inf, first], the interior pieces, [last, inf)
    segments.append((below if pts[0] <= y else above, -np.inf, pts[0]))
    for a, b in zip(pts[:-1], pts[1:]):
        segments.append((below if b <= y else above, a, b))
    segments.append((above if pts[-1] >= y else below, pts[-1], np.inf))

    share = tol / (2 * len(segments))
    with np.errstate(all="ignore"):
        for fn, a, b in segments:
            if b - a < share:  # the integrand lies in [0, 1]: less than its share
                continue
            out = integrate.quad(fn, a, b, epsabs=share, limit=200, full_output=1)
            if len(out) > 3:  # scipy attached a warning message
                raise NumericalFailure(f"CRPS quadrature did not converge: {out[3]}")
            total += out[0]
            err += out[1]
    if not np.isfinite(total) or err > max(tol, 1e-12) * 1e3:
        raise NumericalFailure(f"CRPS quadrature did not converge (err={err:.2e})")
    return float(total)


def crps_ensemble(members, y):
    """CRPS of the empirical ensemble CDF, from one sort per row.

    (1/m) sum |x_i - y|  -  (1/m^2) sum_k k (m - k) g_k, g_k = x_(k+1) - x_(k): the
    energy form, its pair term (1/(2 m^2)) sum_ij |x_i - x_j| summed gap by gap,
    so no term is < 0 and equal members score 0 at their value.  (m,)
    members with a float ``y`` give a float; (n, m) members with (n,) ``y`` give
    the n scores, each its row's to the bit.
    """
    x, y = np.asarray(members, dtype=float), np.asarray(y, dtype=float)
    if x.ndim == 1 and y.ndim == 0:
        return float(crps_ensemble(x[None], y[None])[0])
    if x.ndim != 2 or x.shape[1] < 1 or y.shape != x.shape[:1]:
        raise InvalidInput("ensemble must be m >= 1 members with a float observation, "
                           "or (n, m) members with n observations")
    m = x.shape[1]
    k = np.arange(1, m)
    spread = (np.diff(np.sort(x, axis=1), axis=1) * (k * (m - k))).sum(axis=1)
    return np.mean(np.abs(x - y[:, None]), axis=1) - spread / (m * m)


def logs_normal_series(mu, sigma, y):
    """Vectorized logarithmic score -log f(y) of Gaussian forecasts."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    z = (np.asarray(y, dtype=float) - mu) / sigma
    return np.log(sigma) + _HALF_LOG_2PI + 0.5 * np.square(z)


def logs_normal(g: GaussianParams, y: float) -> float:
    """Logarithmic score of a single Gaussian forecast."""
    return float(logs_normal_series(g.mu, g.sigma, y))


# ---------------------------------------------------------------------------
# calibration diagnostics
# ---------------------------------------------------------------------------


def pit_normal_series(mu, sigma, y):
    """Vectorized probability integral transform Phi((y - mu)/sigma)."""
    return ndtr((np.asarray(y, dtype=float) - np.asarray(mu, dtype=float))
                / np.asarray(sigma, dtype=float))


def pit_normal(g: GaussianParams, y: float) -> float:
    """PIT value of a single Gaussian forecast, in [0, 1]."""
    return float(pit_normal_series(g.mu, g.sigma, y))


def m_member_level(m: int) -> float:
    """Nominal central-interval level (m-1)/(m+1) matching an m-member ensemble."""
    if m < 2:
        raise InvalidInput("need at least 2 members for a nominal coverage level")
    return (m - 1) / (m + 1)


def central_interval(g: GaussianParams, level: float, y: float):
    """Central (level*100)% prediction interval and its coverage indicator.

    Returns (lower, upper, width, covered) where lower/upper are the
    alpha/2 and 1-alpha/2 Gaussian quantiles, alpha = 1 - level.
    """
    if not (0.0 < level < 1.0):
        raise InvalidLevel(f"interval level must lie in (0, 1), got {level}")
    alpha = 1.0 - level
    q = ndtri(1.0 - alpha / 2.0)
    lower = g.mu - q * g.sigma
    upper = g.mu + q * g.sigma
    return lower, upper, upper - lower, bool(lower <= y <= upper)


def verification_rank(members, y: float, rng) -> int:
    """Rank of the observation within the ordered ensemble, in {1, ..., m+1}.

    Ties with members are broken uniformly at random using ``rng``.
    """
    x = np.asarray(members, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInput("ensemble must be a non-empty 1-d array")
    n_below = int(np.sum(x < y))
    n_tied = int(np.sum(x == y))
    return 1 + n_below + int(rng.integers(0, n_tied + 1))


# ---------------------------------------------------------------------------
# per-case score collections
# ---------------------------------------------------------------------------


@dataclass
class ScoreSample:
    """Per-case verification scores aligned to a common case index.

    ``logs`` and ``pit`` are None for a forecast without a density, such
    as the raw ensemble; ``ScoreTable.add_sample`` aggregates a sample
    into one score row.
    """

    crps: np.ndarray
    logs: np.ndarray | None
    se: np.ndarray
    pit: np.ndarray | None
    width: np.ndarray
    covered: np.ndarray  # bool


def score_cases(mu, sigma, y, level: float) -> ScoreSample:
    """Score a batch of Gaussian forecasts against observations.

    Raises InvalidInput when any mu is non-finite or any sigma is not a
    finite positive number.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (mu.shape == sigma.shape == y.shape):
        raise InvalidInput("mu, sigma, y must share one shape")
    check_gaussian_params(mu, sigma)
    if not (0.0 < level < 1.0):
        raise InvalidLevel(f"interval level must lie in (0, 1), got {level}")
    q = ndtri(1.0 - (1.0 - level) / 2.0)
    lower = mu - q * sigma
    upper = mu + q * sigma
    return ScoreSample(
        crps=crps_normal_series(mu, sigma, y),
        logs=logs_normal_series(mu, sigma, y),
        se=np.square(y - mu),
        pit=pit_normal_series(mu, sigma, y),
        width=upper - lower,
        covered=(lower <= y) & (y <= upper),
    )


def crpss(mean_crps: float, mean_crps_ref: float) -> float:
    """Skill score 1 - CRPS/CRPS_ref; positive means improvement."""
    if not (np.isfinite(mean_crps_ref) and mean_crps_ref > 0):
        raise InvalidReference(f"reference CRPS must be positive, got {mean_crps_ref}")
    return 1.0 - mean_crps / mean_crps_ref

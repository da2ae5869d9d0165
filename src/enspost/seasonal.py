"""Fourier seasonal basis and the design matrix of the seasonal predictors.

The seasonal cycle is modeled by a truncated Fourier series with two
harmonics on a 365.25-day period, evaluated on a running day index (t = 1
on the first training day).  Both the location and the log-scale linear
predictor combine a seasonally varying intercept and a seasonally varying
slope on an ensemble statistic:

    location:  a0 + f0(t) + (a1 + f1(t)) * xbar(t)
    log-scale: b0 + g0(t) + (b1 + g1(t)) * s(t)

where f_i / g_i are 4-term Fourier polynomials.  Both are evaluated as
``seasonal_design(t, covariate) @ coeffs``, by the models and the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: days per year used in the Fourier basis; fractional so the phase stays
#: aligned across leap years on a running day index
PERIOD_DAYS = 365.25

N_FOURIER = 4
N_COEFFS = 10  # intercept + slope + 2 x 4 Fourier terms


@dataclass(frozen=True)
class SeasonalCoeffs:
    """Coefficients of one seasonal linear predictor (location or log-scale).

    Attributes
    ----------
    intercept, slope : float
        Non-seasonal intercept and slope (a0/a1 for location, b0/b1 for
        log-scale).
    fourier_intercept : tuple of 4 floats
        Fourier coefficients of the seasonally varying intercept.
    fourier_slope : tuple of 4 floats
        Fourier coefficients of the seasonally varying slope.
    """

    intercept: float
    slope: float
    fourier_intercept: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    fourier_slope: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        vec = self.as_vector()
        if vec.shape != (N_COEFFS,) or not np.all(np.isfinite(vec)):
            raise ValueError("seasonal coefficient vector must be 10 finite reals")

    def as_vector(self) -> np.ndarray:
        """Fixed serialization layout: (intercept, slope, 4 Fourier-intercept,
        4 Fourier-slope)."""
        return np.array(
            [self.intercept, self.slope]
            + list(self.fourier_intercept)
            + list(self.fourier_slope),
            dtype=float,
        )


def fourier_features(t):
    """Evaluate the 4-term Fourier basis at day index ``t``.

    Returns ``(sin(2 pi t / 365.25), cos(2 pi t / 365.25),
    sin(4 pi t / 365.25), cos(4 pi t / 365.25))``; for array input the
    basis is stacked along the last axis, shape ``t.shape + (4,)``.
    """
    t = np.asarray(t, dtype=float)
    w = 2.0 * np.pi * t / PERIOD_DAYS
    return np.stack([np.sin(w), np.cos(w), np.sin(2 * w), np.cos(2 * w)], axis=-1)


def seasonal_design(t, covariate) -> np.ndarray:
    """Design matrix of the seasonal predictor in the fixed coefficient layout.

    Columns: [1, covariate, F(t), F(t) * covariate], shape (n, 10), so that
    ``design @ coeffs.as_vector()`` evaluates the predictor.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    cov = np.broadcast_to(np.asarray(covariate, dtype=float), t.shape)
    feats = fourier_features(t)
    return np.column_stack(
        [np.ones_like(t), cov, feats, feats * cov[:, None]]
    )


import numpy as np
import pytest
from hypothesis import given, strategies as st

from enspost.seasonal import (
    PERIOD_DAYS,
    SeasonalCoeffs,
    fourier_features,
    seasonal_design,
)


def predictor(c: SeasonalCoeffs, t, covariate):
    """The seasonal location or log-scale predictor at (t, covariate)."""
    return seasonal_design(t, covariate) @ c.as_vector()


def test_fourier_phase_zero():
    assert np.allclose(fourier_features(0.0), [0.0, 1.0, 0.0, 1.0], atol=1e-15)


def test_fourier_full_period():
    assert np.allclose(fourier_features(PERIOD_DAYS), [0.0, 1.0, 0.0, 1.0], atol=1e-12)


def test_fourier_quarter_period():
    # analytic: sin(pi/2)=1, cos(pi/2)=0, sin(pi)=0, cos(pi)=-1
    assert np.allclose(fourier_features(91.3125), [1.0, 0.0, 0.0, -1.0], atol=1e-9)


def test_fourier_array_shape():
    out = fourier_features(np.arange(5.0))
    assert out.shape == (5, 4)


@given(st.floats(-1e4, 1e4))
def test_fourier_periodicity(t):
    assert np.allclose(fourier_features(t), fourier_features(t + PERIOD_DAYS), atol=1e-9)


def test_location_identity_regression():
    c = SeasonalCoeffs(intercept=0.0, slope=1.0)
    assert predictor(c, 123.0, 7.3) == pytest.approx(7.3)


def test_location_cos_at_phase_zero():
    c = SeasonalCoeffs(intercept=1.0, slope=0.0, fourier_intercept=(0.0, 2.0, 0.0, 0.0))
    assert predictor(c, 0.0, 5.0) == pytest.approx(3.0)


def test_location_matches_dot_product_oracle(rng):
    # independent oracle: explicit 10-term dot product
    for _ in range(20):
        vec = rng.normal(size=10)
        c = SeasonalCoeffs(vec[0], vec[1], tuple(vec[2:6]), tuple(vec[6:10]))
        t = float(rng.uniform(0, 4000))
        xbar = float(rng.normal(scale=10))
        w = 2 * np.pi * t / PERIOD_DAYS
        feats = [np.sin(w), np.cos(w), np.sin(2 * w), np.cos(2 * w)]
        expected = (vec[0] + sum(vec[2 + i] * feats[i] for i in range(4))
                    + (vec[1] + sum(vec[6 + i] * feats[i] for i in range(4))) * xbar)
        assert predictor(c, t, xbar) == pytest.approx(expected, abs=1e-12)


def test_logscale_zero_coeffs_gives_unit_scale():
    c = SeasonalCoeffs(intercept=0.0, slope=0.0)
    assert np.exp(predictor(c, 17.0, 2.5)) == pytest.approx(1.0)


def test_logscale_raw_sd_enters():
    c = SeasonalCoeffs(intercept=0.0, slope=1.0)
    assert np.exp(predictor(c, 50.0, 0.5)) == pytest.approx(1.6487212707, abs=1e-9)


@given(st.floats(-5, 5), st.floats(-3, 3), st.floats(0, 10), st.floats(-1e4, 1e4))
def test_logscale_exp_positive(b0, b1, s, t):
    c = SeasonalCoeffs(intercept=b0, slope=b1)
    assert np.exp(predictor(c, t, s)) > 0


def test_zero_fourier_collapses_to_affine(rng):
    c = SeasonalCoeffs(intercept=1.5, slope=-0.25)
    t = rng.uniform(0, 2000, size=50)
    x = rng.normal(size=50)
    assert np.allclose(predictor(c, t, x), 1.5 - 0.25 * x, atol=1e-12)


def test_coeff_vector_wrong_length_rejected():
    with pytest.raises(ValueError):
        SeasonalCoeffs(0.0, 0.0, fourier_intercept=(0.0, 0.0, 0.0))

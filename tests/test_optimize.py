import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.special import ndtr

from enspost.errors import InvalidStart, NumericalFailure
from enspost.optimize import OptimizeSettings, golden_section, minimize, numeric_gradient
from enspost.scoring import GaussianParams, crps_normal


def test_quadratic_bowl():
    c = np.array([1.0, -2.0, 3.5])
    result = minimize(lambda x: float(np.sum((x - c) ** 2)), np.zeros(3))
    assert result.converged
    assert result.iterations <= 50
    assert np.allclose(result.x, c, atol=1e-8)


def test_rosenbrock():
    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

    result = minimize(rosen, np.array([-1.2, 1.0]))
    assert np.allclose(result.x, [1.0, 1.0], atol=1e-5)


def test_matches_scipy_on_convex_quadratic(rng):
    # independent optimizer as cross-check oracle
    a = rng.normal(size=(6, 6))
    h = a @ a.T + 6 * np.eye(6)
    b = rng.normal(size=6)

    def f(x):
        return float(0.5 * x @ h @ x + b @ x)

    ours = minimize(f, np.zeros(6))
    ref = scipy_minimize(f, np.zeros(6), method="BFGS")
    assert ours.value == pytest.approx(ref.fun, abs=1e-8)
    assert np.allclose(ours.x, ref.x, atol=1e-5)


def test_value_never_exceeds_start(rng):
    for _ in range(5):
        c = rng.normal(size=4)

        def f(x):
            return float(np.sum(np.abs(x - c) ** 1.5))

        x0 = rng.normal(size=4)
        result = minimize(f, x0, OptimizeSettings(max_iterations=15))
        assert result.value <= f(x0)


def test_determinism():
    def f(x):
        return float((x[0] - 1) ** 2 + 0.5 * np.sin(3 * x[1]) ** 2 + x[1] ** 2)

    r1 = minimize(f, np.array([4.0, -3.0]))
    r2 = minimize(f, np.array([4.0, -3.0]))
    assert np.array_equal(r1.x, r2.x)
    assert r1.value == r2.value
    assert r1.iterations == r2.iterations


def test_invalid_start_rejected():
    with pytest.raises(InvalidStart):
        minimize(lambda x: float(np.nan), np.zeros(2))


def test_non_finite_regions_handled():
    # objective undefined for x < 0; optimizer must stay in the valid region
    def f(x):
        if x[0] <= 0:
            return float(np.nan)
        return float((np.log(x[0])) ** 2)

    result = minimize(f, np.array([5.0]))
    assert result.value <= f(np.array([5.0]))
    assert np.isfinite(result.value)


def test_numeric_gradient_quadratic():
    grad = numeric_gradient(lambda x: float(np.sum(x ** 2)), np.array([1.0, 2.0]), 1e-6)
    assert np.allclose(grad, [2.0, 4.0], atol=1e-6)


def test_numeric_gradient_constant():
    grad = numeric_gradient(lambda x: 3.25, np.array([1.0, -1.0, 0.5]), 1e-6)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_numeric_gradient_nonfinite_named():
    with pytest.raises(NumericalFailure, match="component 1"):
        numeric_gradient(lambda x: float(np.nan if x[1] != 0.5 else 1.0),
                         np.array([0.0, 0.5]), 1e-6)


def test_crps_gradient_mu_closed_form(rng):
    # d/dmu CRPS(N(mu, sigma^2), y) = -(2 Phi(z) - 1), z = (y - mu)/sigma
    for _ in range(10):
        mu, sigma, y = rng.normal(), float(rng.uniform(0.5, 3)), rng.normal(scale=2)
        z = (y - mu) / sigma
        analytic = -(2 * ndtr(z) - 1)
        numeric = numeric_gradient(
            lambda v: crps_normal(GaussianParams(v[0], sigma), y), np.array([mu]), 1e-6)[0]
        assert numeric == pytest.approx(analytic, abs=1e-5)


def test_golden_section_parabola():
    assert golden_section(lambda w: (w - 0.3) ** 2, 0.0, 1.0) == pytest.approx(0.3, abs=1e-5)


def test_golden_section_boundary_minimum():
    assert golden_section(lambda w: w, 0.0, 1.0) == pytest.approx(0.0, abs=1e-6)
    assert golden_section(lambda w: -w, 0.0, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizeSettings(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizeSettings(gradient_tolerance=-1.0)


def test_nonfinite_analytic_gradient_raises():
    with pytest.raises(NumericalFailure, match="component 1"):
        minimize(lambda x: float(x @ x), np.ones(2),
                 grad=lambda x: np.array([2.0 * x[0], np.nan]))

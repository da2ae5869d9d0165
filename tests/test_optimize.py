import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.special import ndtr

from enspost.errors import InvalidStart, NumericalFailure
from enspost.optimize import (
    OptimizeSettings,
    golden_section,
    minimize,
    minimize_newton,
    numeric_gradient,
)
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


def _newton(objective, init, settings=None, grad=None, hess=None):
    """``minimize_newton`` on one problem given by single-point callables."""
    return minimize_newton(lambda x, rows: np.array([objective(x[0])]),
                           lambda x, rows: np.asarray(grad(x[0]))[None],
                           lambda x, rows: np.asarray(hess(x[0]))[None],
                           np.asarray(init, dtype=float)[None], settings).problem(0)


def test_newton_converges_in_one_step_on_convex_quadratic(rng):
    a = rng.normal(size=(5, 5))
    h = a @ a.T + 5 * np.eye(5)
    b = rng.normal(size=5)
    result = _newton(lambda x: float(0.5 * x @ h @ x + b @ x), np.zeros(5),
                     grad=lambda x: h @ x + b, hess=lambda x: h)
    assert result.converged
    assert result.iterations == 2  # one Newton step, then the gradient test
    assert result.n_evals == 2  # the start and the accepted full step
    assert np.allclose(result.x, np.linalg.solve(h, -b), atol=1e-10)


def _recording(objective):
    """The objective, plus the list of every value it returned."""
    values = []

    def f(x):
        values.append(objective(x))
        return values[-1]

    return f, values


def test_newton_with_indefinite_hessian_still_descends():
    # the supplied matrix has a negative eigenvalue; the modified step uses
    # its absolute eigenvalues, here the identity, so each step is -grad
    c = np.array([1.0, -2.0])
    f, values = _recording(lambda x: float(np.sum((x - c) ** 2)))
    accepted = []
    result = _newton(f, np.array([4.0, 3.0]), grad=lambda x: 2.0 * (x - c),
                     hess=lambda x: (accepted.append(values[-1]), np.diag([1.0, -1.0]))[1])
    assert result.converged
    assert np.allclose(result.x, c, atol=1e-6)
    assert all(b < a for a, b in zip(accepted, accepted[1:]))
    assert result.value <= f(np.array([4.0, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_newton_with_non_finite_hessian_takes_steepest_descent(bad):
    # one iteration from x0 with a non-finite Hessian: the accepted step is
    # a multiple of -grad, not a Newton step (which would land on c at once)
    c = np.array([1.0, -2.0, 0.5])
    weights = np.array([1.0, 4.0, 9.0])
    x0 = np.zeros(3)
    result = _newton(lambda x: float(np.sum(weights * (x - c) ** 2)), x0,
                     OptimizeSettings(max_iterations=1),
                     grad=lambda x: 2.0 * weights * (x - c),
                     hess=lambda x: np.full((3, 3), bad))
    step = result.x - x0
    g0 = -2.0 * weights * c
    assert np.allclose(np.cross(step, g0), 0.0, atol=1e-12)
    assert float(step @ g0) < 0
    assert not result.converged


def test_newton_keeps_nonfinite_gradient_failure():
    with pytest.raises(NumericalFailure, match="component 1"):
        _newton(lambda x: float(x @ x), np.ones(2),
                grad=lambda x: np.array([2.0 * x[0], np.nan]), hess=lambda x: 2 * np.eye(2))


def test_newton_batch_solves_each_problem_as_if_alone(rng):
    # quartic bowls of different curvature and starts: the problems stop
    # after different numbers of iterations, some at the cap, and each
    # result is bit-identical to solving that problem on its own
    n_problems = 6
    centre = rng.normal(size=(n_problems, 3))
    scale = rng.uniform(0.1, 10.0, size=(n_problems, 3))
    init = centre + rng.normal(scale=3.0, size=(n_problems, 3))

    def problem(chosen):
        c, s = centre[chosen], scale[chosen]
        return (lambda x, rows: np.sum(s[rows] * (x - c[rows]) ** 4 + (x - c[rows]) ** 2,
                                       axis=-1),
                lambda x, rows: 4 * s[rows] * (x - c[rows]) ** 3 + 2 * (x - c[rows]),
                lambda x, rows: (12 * s[rows] * (x - c[rows]) ** 2 + 2)[..., None] * np.eye(3))

    settings = OptimizeSettings(max_iterations=12, gradient_tolerance=1e-10)
    batch = minimize_newton(*problem(np.arange(n_problems)), init, settings)
    assert 0 < np.sum(batch.converged) < n_problems
    assert len(set(batch.iterations.tolist())) > 1
    for i in range(n_problems):
        alone = minimize_newton(*problem(np.array([i])), init[i:i + 1], settings).problem(0)
        got = batch.problem(i)
        assert np.array_equal(got.x, alone.x) and got.value == alone.value
        assert (got.iterations, got.n_evals, got.converged) == (
            alone.iterations, alone.n_evals, alone.converged)

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.special import ndtr

from enspost import optimize
from enspost.errors import InvalidStart, NumericalFailure
from enspost.optimize import (
    OptimizeSettings,
    golden_section,
    minimize,
    minimize_newton,
    numeric_gradient,
)
from enspost.scoring import GaussianParams, crps_normal


def _fd(f):
    """``f`` with its central-difference gradient, steps 1e-6 (1 + |x_i|),
    in the (value, gradient) form ``minimize`` takes; no gradient where the
    value is not finite."""
    def fun(x):
        value = f(x)
        if not np.isfinite(value):
            return value, None
        return value, numeric_gradient(f, x, 1e-6 * (1.0 + np.abs(x)))
    return fun


def test_quadratic_bowl():
    c = np.array([1.0, -2.0, 3.5])
    result = minimize(_fd(lambda x: float(np.sum((x - c) ** 2))), np.zeros(3))
    assert result.converged
    assert result.iterations <= 50
    assert np.allclose(result.x, c, atol=1e-8)


def test_rosenbrock():
    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

    result = minimize(_fd(rosen), np.array([-1.2, 1.0]))
    assert np.allclose(result.x, [1.0, 1.0], atol=1e-5)


def test_matches_scipy_on_convex_quadratic(rng):
    # independent optimizer as cross-check oracle
    a = rng.normal(size=(6, 6))
    h = a @ a.T + 6 * np.eye(6)
    b = rng.normal(size=6)

    def f(x):
        return float(0.5 * x @ h @ x + b @ x)

    ours = minimize(_fd(f), np.zeros(6))
    ref = scipy_minimize(f, np.zeros(6), method="BFGS")
    assert ours.value == pytest.approx(ref.fun, abs=1e-8)
    assert np.allclose(ours.x, ref.x, atol=1e-5)


def test_value_never_exceeds_start(rng):
    for _ in range(5):
        c = rng.normal(size=4)

        def f(x):
            return float(np.sum(np.abs(x - c) ** 1.5))

        x0 = rng.normal(size=4)
        result = minimize(_fd(f), x0, OptimizeSettings(max_iterations=15))
        assert result.value <= f(x0)


def test_determinism():
    def f(x):
        return float((x[0] - 1) ** 2 + 0.5 * np.sin(3 * x[1]) ** 2 + x[1] ** 2)

    r1 = minimize(_fd(f), np.array([4.0, -3.0]))
    r2 = minimize(_fd(f), np.array([4.0, -3.0]))
    assert np.array_equal(r1.x, r2.x)
    assert r1.value == r2.value
    assert r1.iterations == r2.iterations


def test_invalid_start_rejected():
    with pytest.raises(InvalidStart):
        minimize(_fd(lambda x: float(np.nan)), np.zeros(2))


def test_non_finite_regions_handled():
    # objective undefined for x < 0; optimizer must stay in the valid region
    def f(x):
        if x[0] <= 0:
            return float(np.nan)
        return float((np.log(x[0])) ** 2)

    result = minimize(_fd(f), np.array([5.0]))
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
        minimize(lambda x: (float(x @ x), np.array([2.0 * x[0], np.nan])), np.ones(2))


def test_minimize_evaluates_once_per_point():
    # every call of fun is at a new point, and the result's n_evals counts them
    points = []

    def fun(x):
        points.append(x.copy())
        return float(np.sum((x - 1.0) ** 4)), 4.0 * (x - 1.0) ** 3

    result = minimize(fun, np.zeros(3))
    assert result.n_evals == len(points) > 2
    assert len({p.tobytes() for p in points}) == len(points)


def test_minimize_from_the_exact_inverse_hessian_takes_one_full_step(rng):
    a = rng.normal(size=(5, 5))
    h = a @ a.T + 5 * np.eye(5)
    b = rng.normal(size=5)
    result = minimize(lambda x: (float(0.5 * x @ h @ x + b @ x), h @ x + b), np.zeros(5),
                      inverse_hessian=np.linalg.inv(h))
    assert result.converged
    assert result.iterations == 2  # one full step, then the gradient test
    assert result.n_evals == 2  # the start and the accepted full step
    assert np.allclose(result.x, np.linalg.solve(h, -b), atol=1e-10)


def test_minimize_restarts_a_broken_direction_from_the_starting_matrix(monkeypatch):
    # an update that breaks the curvature model: every direction after the
    # first step points uphill, so each restarts from the starting matrix
    monkeypatch.setattr(optimize, "_bfgs_update", lambda h_inv, *args, **kwargs: -np.eye(2))
    h = np.diag([2e4, 2.0])
    points = []

    def fun(x):
        points.append(x.copy())
        return float(0.5 * x @ h @ x), h @ x

    result = minimize(fun, np.ones(2), inverse_hessian=np.diag([1 / 2e4, 0.25]))
    # the start, its full step to (0, 0.5), then the step -start @ g = (0, -0.25)
    np.testing.assert_array_equal(points[1], [0.0, 0.5])
    np.testing.assert_array_equal(points[2], [0.0, 0.25])
    assert result.converged and result.value < 1e-11


def _newton(objective, init, settings=None, grad=None, hess=None, bounds=None):
    """``minimize_newton`` on one problem given by single-point callables."""
    return minimize_newton(lambda x, rows: (np.array([objective(x[0])]),
                                            np.asarray(grad(x[0]))[None],
                                            np.asarray(hess(x[0]))[None]),
                           np.asarray(init, dtype=float)[None], settings,
                           bounds=bounds).problem(0)


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


def test_newton_with_indefinite_hessian_still_descends():
    # the supplied matrix has a negative eigenvalue; the modified step uses
    # its absolute eigenvalues, here the identity, so each step is -grad.
    # The callable also runs at rejected trials, so the accepted values are
    # read from runs capped at 1..N-1 iterations
    c = np.array([1.0, -2.0])
    start = np.array([4.0, 3.0])

    def run(settings=None):
        return _newton(lambda x: float(np.sum((x - c) ** 2)), start, settings,
                       grad=lambda x: 2.0 * (x - c), hess=lambda x: np.diag([1.0, -1.0]))

    result = run()
    assert result.converged
    assert np.allclose(result.x, c, atol=1e-6)
    accepted = [float(np.sum((start - c) ** 2))] + [
        run(OptimizeSettings(max_iterations=n)).value for n in range(1, result.iterations)]
    assert all(b < a for a, b in zip(accepted, accepted[1:]))
    assert result.value <= accepted[-1]


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


def test_one_coordinate_newton_steps_are_the_solve_and_eigh_branch_bits():
    # a (D, 1, 1) stack takes -g/|h| without LAPACK: the solve's step where
    # h > 0, the eigh branch's -g/|h| where h < 0, and -g where h is 0 or
    # not finite
    rng = np.random.default_rng(7)
    h = np.concatenate([rng.lognormal(0.0, 3.0, size=50), -rng.lognormal(0.0, 3.0, size=50),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310]])
    g = rng.normal(size=(h.size, 1))
    direction = optimize._newton_directions(h[:, None, None], g)
    positive, negative = np.isfinite(h) & (h > 0), np.isfinite(h) & (h < 0)
    assert np.array_equal(direction[positive],
                          -np.linalg.solve(h[positive, None, None], g[positive, :, None])[..., 0])
    with np.errstate(over="ignore"):  # -g / 1e-310
        assert np.array_equal(direction[negative], -g[negative] / np.abs(h[negative, None]))
    other = ~(positive | negative)
    assert other.sum() == 5 and np.array_equal(direction[other], -g[other])


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
        return lambda x, rows: (
            np.sum(s[rows] * (x - c[rows]) ** 4 + (x - c[rows]) ** 2, axis=-1),
            4 * s[rows] * (x - c[rows]) ** 3 + 2 * (x - c[rows]),
            (12 * s[rows] * (x - c[rows]) ** 2 + 2)[..., None] * np.eye(3))

    settings = OptimizeSettings(max_iterations=12, gradient_tolerance=1e-10)
    batch = minimize_newton(problem(np.arange(n_problems)), init, settings)
    assert 0 < np.sum(batch.converged) < n_problems
    assert len(set(batch.iterations.tolist())) > 1
    for i in range(n_problems):
        alone = minimize_newton(problem(np.array([i])), init[i:i + 1], settings).problem(0)
        got = batch.problem(i)
        assert np.array_equal(got.x, alone.x) and got.value == alone.value
        assert (got.iterations, got.n_evals, got.converged) == (
            alone.iterations, alone.n_evals, alone.converged)


def test_newton_batch_mixing_indefinite_and_positive_definite_hessians_solves_each_alone(rng):
    # quadratics whose supplied Hessians are the true ones, except problem 2's
    # (indefinite) and problem 4's (singular): those two take the floored
    # eigenvalue step, the others the Cholesky step, and each result is
    # bit-identical to solving that problem on its own
    n_problems = 6
    a = rng.normal(size=(n_problems, 3, 3))
    curvature = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(3)
    supplied = curvature.copy()
    supplied[2] = np.diag([2.0, -1.0, 0.5])
    supplied[4] = np.diag([1.0, 1.0, 0.0])
    centre = rng.normal(size=(n_problems, 3))
    init = centre + rng.normal(scale=3.0, size=(n_problems, 3))

    def problem(chosen):
        c, h, s = centre[chosen], curvature[chosen], supplied[chosen]

        def evaluate(x, rows):
            e = x - c[rows]
            return (0.5 * np.einsum("di,dij,dj->d", e, h[rows], e),
                    np.einsum("dij,dj->di", h[rows], e), s[rows])
        return evaluate

    settings = OptimizeSettings(max_iterations=30, gradient_tolerance=1e-10)
    batch = minimize_newton(problem(np.arange(n_problems)), init, settings)
    assert batch.iterations[0] == 2 and batch.iterations[2] > 2
    for i in range(n_problems):
        alone = minimize_newton(problem(np.array([i])), init[i:i + 1], settings).problem(0)
        got = batch.problem(i)
        assert np.array_equal(got.x, alone.x) and got.value == alone.value
        assert (got.iterations, got.n_evals, got.converged) == (
            alone.iterations, alone.n_evals, alone.converged)


def test_newton_stops_a_problem_whose_decrease_is_below_rounding():
    # the start is the optimum to rounding: its gradient 1e-9 is above the
    # tolerance, but the Newton step predicts a decrease of 5e-19, under one
    # ulp of f = 1, and every other point reads one ulp higher; a search
    # would halve its step 40 times, making 41 calls in all
    start = np.array([[0.5]])
    calls = []

    def evaluate(x, rows):
        calls.append(x.copy())
        return (1.0 + np.spacing(1.0) * np.any(x != start, axis=1),
                np.full((1, 1), 1e-9), np.ones((1, 1, 1)))

    result = minimize_newton(evaluate, start,
                             OptimizeSettings(gradient_tolerance=1e-12)).problem(0)
    assert len(calls) == result.n_evals == 1
    assert np.array_equal(result.x, start[0]) and result.value == 1.0
    assert result.converged and result.iterations == 1


def test_newton_evaluates_each_point_once(rng):
    # per problem, the first call is at its start, no point is evaluated
    # twice, n_evals counts the points evaluated and the result is one of them
    n_problems = 5
    centre = rng.normal(size=(n_problems, 3))
    scale = rng.uniform(0.1, 10.0, size=(n_problems, 3))
    init = centre + rng.normal(scale=3.0, size=(n_problems, 3))
    evaluated = [[] for _ in range(n_problems)]

    def evaluate(x, rows):
        for row, point in zip(rows, x):
            evaluated[row].append(point.copy())
        e = x - centre[rows]
        return (np.sum(scale[rows] * e ** 4 + e ** 2, axis=-1),
                4 * scale[rows] * e ** 3 + 2 * e,
                (12 * scale[rows] * e ** 2 + 2)[..., None] * np.eye(3))

    result = minimize_newton(evaluate, init,
                             OptimizeSettings(max_iterations=12, gradient_tolerance=1e-10))
    for i in range(n_problems):
        points = evaluated[i]
        assert np.array_equal(points[0], init[i])
        assert len({p.tobytes() for p in points}) == len(points) > 1
        assert len(points) == result.n_evals[i]
        assert any(np.array_equal(p, result.x[i]) for p in points)


@pytest.mark.parametrize("n_problems", [2, 3])
def test_newton_nonfinite_gradient_names_its_problem(n_problems):
    # problem 0 starts at its optimum and leaves the batch at once; the last
    # problem's gradient turns NaN after its first step, so it is not the
    # first row of the moved problems
    init = np.ones((n_problems, 2))
    init[0] = 0.0
    bad = n_problems - 1

    def evaluate(x, rows):
        g = 2.0 * x
        g[(rows == bad) & np.any(x != init[rows], axis=1), 1] = np.nan
        return np.sum(x * x, axis=1), g, np.tile(2.0 * np.eye(2), (rows.size, 1, 1))

    with pytest.raises(NumericalFailure, match=f"component 1 of problem {bad}$"):
        minimize_newton(evaluate, init)


def test_bounded_newton_holds_a_binding_coordinate_and_solves_the_free_block():
    # the unconstrained minimum c is outside [0, 1]^2; the first step clips
    # onto (1, 0), where x0 binds and x1's own Newton step reaches the
    # minimiser of the free block, c1 - h10 (1 - c0) / h11 = 0.6, and the
    # third iteration's gradient test stops there.  The full Newton step at
    # (1, 0) would push x1 back onto its bound
    h = np.array([[2.0, 0.8], [0.8, 0.5]])
    c = np.array([2.0, -1.0])
    result = _newton(lambda x: float(0.5 * (x - c) @ h @ (x - c)), [0.5, 0.5],
                     OptimizeSettings(gradient_tolerance=1e-10),
                     grad=lambda x: h @ (x - c), hess=lambda x: h, bounds=(0.0, 1.0))
    assert result.converged and (result.iterations, result.n_evals) == (3, 3)
    assert result.x[0] == 1.0
    assert result.x[1] == pytest.approx(c[1] - h[1, 0] * (1.0 - c[0]) / h[1, 1], abs=1e-12)
    assert result.grad_norm <= 1e-10  # the projected gradient


def test_bounded_newton_stops_at_once_on_a_bound_whose_gradient_points_out():
    result = _newton(lambda x: float((x[0] - 2.0) ** 2), [1.0],
                     grad=lambda x: 2.0 * (x - 2.0), hess=lambda x: 2.0 * np.eye(1),
                     bounds=(0.0, 1.0))
    assert result.converged and result.x[0] == 1.0
    assert result.iterations == 1 and result.n_evals == 1


def test_bounded_newton_with_an_interior_optimum_matches_the_unbounded_solve():
    def solve(bounds):
        return _newton(lambda x: float((x[0] - 0.3) ** 4 + (x[0] - 0.3) ** 2), [0.9],
                       OptimizeSettings(gradient_tolerance=1e-10),
                       grad=lambda x: 4.0 * (x - 0.3) ** 3 + 2.0 * (x - 0.3),
                       hess=lambda x: (12.0 * (x - 0.3) ** 2 + 2.0)[None],
                       bounds=bounds)

    bounded, free = solve((0.0, 1.0)), solve(None)
    assert bounded.converged and bounded.x[0] == pytest.approx(0.3, abs=1e-10)
    assert np.array_equal(bounded.x, free.x) and bounded.value == free.value
    assert (bounded.iterations, bounded.n_evals) == (free.iterations, free.n_evals)

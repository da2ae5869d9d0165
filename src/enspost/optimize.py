"""Quasi-Newton (BFGS) or exact Newton minimization of mean-score
objectives, the Newton one optionally inside box bounds.

Both minimizers take one callable that returns the objective with its
analytic derivatives at a point, so a caller runs its forward pass once
per point, and both count its calls in ``n_evals``.  ``minimize`` is
deliberately small: an Armijo backtracking line search, and a search
direction from the standard inverse-Hessian BFGS update (with a curvature
guard, and either a caller's starting inverse Hessian or Nocedal's
scaling of the identity after the first step).  It only ever
*accepts* points that decrease the objective, so the returned value is
guaranteed <= the starting value, and it returns the best point seen so
far even when the search breaks down.

``minimize_newton`` solves many small problems of one shape at once, given
their exact Hessians: each direction is the plain Newton step where that
problem's Hessian has a well-conditioned Cholesky factor, else a modified
Newton step from its eigendecomposition with negative eigenvalues made
positive (Nocedal & Wright ch. 3.4), and steepest descent on any iteration
where that Hessian is not finite; with box bounds, a projected Newton
method (Bertsekas 1982).  Its callable returns values, gradients and
Hessians at every start and trial point; the derivatives are read at the
starts and accepted points only.  Every problem has its own Armijo search
and convergence tests (a predicted decrease within rounding counts as
converged); a problem that has converged or stopped drops out of the
batch.  ``numeric_gradient`` and ``golden_section`` are derivative-free oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStart, NumericalFailure

_STEP_TOLERANCE = 1e-10
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 40
_GOLDEN_TOLERANCE = 1e-6


@dataclass(frozen=True)
class OptimizeSettings:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be > 0")


@dataclass
class OptResult:
    """Result of one minimization; ``minimize_newton`` fills every field
    with one entry per problem (``x`` is then (D, n)).  ``n_evals`` counts
    the calls of the solver's one callable at each problem's points."""

    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    n_evals: int = 0

    def problem(self, i: int) -> OptResult:
        """Problem i of a ``minimize_newton`` result."""
        return OptResult(x=self.x[i], value=float(self.value[i]),
                         grad_norm=float(self.grad_norm[i]),
                         iterations=int(self.iterations[i]),
                         converged=bool(self.converged[i]), n_evals=int(self.n_evals[i]))


def numeric_gradient(f, x, h=1e-6) -> np.ndarray:
    """Central-difference gradient, componentwise (f(x+h e_i) - f(x-h e_i)) / 2h.

    ``h`` may be a scalar (used as-is for every component) or a vector of
    per-component steps.

    Raises NumericalFailure naming the first component whose perturbed
    evaluation is not finite.
    """
    x = np.asarray(x, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h[i]
        fp = f(x + step)
        fm = f(x - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalFailure(f"non-finite objective while differencing component {i}")
        grad[i] = (fp - fm) / (2.0 * h[i])
    return grad


def _cholesky(h: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (D, n, n) stack, NaN for each one that fails alone."""
    try:
        return np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        half = h.shape[0] // 2
        return np.concatenate([_cholesky(h[:half]), _cholesky(h[half:])]) if half else h * np.nan


def _newton_directions(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Modified Newton steps -|h|^{-1} g for a (D, n, n) stack of Hessians
    and (D, n) gradients; steepest descent -g where h is not finite.

    |h| is h with each eigenvalue replaced by its absolute value, floored
    at 1e-10 of the largest: the plain Newton step wherever h is positive
    definite, and still a descent direction that keeps h's scaling where it
    is indefinite (steepest descent there can need hundreds of steps on an
    ill-conditioned problem).  A row whose Cholesky pivots all exceed 1e-10
    of its largest diagonal entry needs no eigendecomposition: its step is
    the plain Newton step, solved directly.  Each row's step is its own.
    """
    direction = -g
    finite = np.flatnonzero(np.all(np.isfinite(h), axis=(1, 2)))
    floor = 1e-10 * np.max(np.diagonal(h[finite], axis1=1, axis2=2), axis=1, keepdims=True)
    factored = np.all(np.diagonal(_cholesky(h[finite]), axis1=1, axis2=2) ** 2 > floor, axis=1)
    rows, eig = finite[factored], finite[~factored]
    direction[rows] = -np.linalg.solve(h[rows], g[rows, :, None])[..., 0]
    if eig.size:
        lam, q = np.linalg.eigh(h[eig])
        lam = np.abs(lam)
        top = lam.max(axis=1, keepdims=True)
        coords = np.einsum("dji,dj->di", q, g[eig]) / np.maximum(lam, 1e-10 * top)
        nonzero = top[:, 0] > 0.0
        direction[eig[nonzero]] = -np.einsum("dij,dj->di", q, coords)[nonzero]
    return direction


def _bfgs_update(h_inv: np.ndarray, step: np.ndarray, yk: np.ndarray,
                 rescale: bool) -> np.ndarray:
    """Inverse-Hessian BFGS update, skipped when the curvature s'y is not
    clearly positive; with ``rescale`` the identity is first rescaled by
    s'y / y'y."""
    sy = float(step @ yk)
    if sy <= 1e-12 * np.linalg.norm(step) * np.linalg.norm(yk):
        return h_inv
    n = step.size
    if rescale:
        h_inv = (sy / float(yk @ yk)) * np.eye(n)
    rho = 1.0 / sy
    a = np.eye(n) - rho * np.outer(step, yk)
    return a @ h_inv @ a.T + rho * np.outer(step, step)


def _checked_gradient(g, problems=None) -> np.ndarray:
    """``g``, or NumericalFailure naming its first non-finite component and
    that row's problem number in ``problems``, when given."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        i = int(np.flatnonzero(~np.isfinite(g))[0])
        where = "" if problems is None else f" of problem {problems[i // g.shape[-1]]}"
        raise NumericalFailure(f"non-finite analytic gradient in component "
                               f"{i % g.shape[-1]}{where}")
    return g


def minimize(fun, init, settings: OptimizeSettings | None = None,
             inverse_hessian: np.ndarray | None = None) -> OptResult:
    """BFGS minimization with Armijo backtracking.

    Parameters
    ----------
    fun : callable
        Maps a coefficient vector to ``(value, gradient)``, the scalar
        objective and its analytic gradient from one forward pass; the
        value must be finite at ``init``.  Only gradients at finite values
        are read: at ``init`` and at accepted points.
    init : array-like
        Starting point.
    settings : OptimizeSettings, optional
    inverse_hessian : (n, n) array, optional
        Symmetric positive definite starting inverse Hessian, for a caller
        that knows the objective's curvature at ``init``.  BFGS updates it
        from the first step on, and a direction that is not a descent
        direction restarts from it.  Without it the start is the identity,
        rescaled by s'y / y'y after the first step, and a broken direction
        restarts from steepest descent.

    Returns
    -------
    OptResult
        Best point found; ``converged`` is True when the gradient sup-norm
        or the step size dropped below tolerance.  The value never exceeds
        the starting value.  ``n_evals`` counts the calls of ``fun``.

    Raises
    ------
    InvalidStart
        If the objective is not finite at ``init``.
    NumericalFailure
        If a gradient that is read is not finite.
    """
    cfg = settings or OptimizeSettings()
    x = np.array(init, dtype=float).ravel()
    n = x.size
    fx, g = fun(x)
    evals = 1
    if not np.isfinite(fx):
        raise InvalidStart(f"objective not finite at the starting point ({fx})")
    g = _checked_gradient(g)
    h_start = np.eye(n) if inverse_hessian is None else np.array(inverse_hessian, dtype=float)
    h_inv = h_start
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iterations + 1):
        gnorm = float(np.max(np.abs(g))) if n else 0.0
        if gnorm <= cfg.gradient_tolerance:
            converged = True
            break

        direction = -h_inv @ g
        slope = float(direction @ g)
        if not np.isfinite(slope) or slope >= 0:
            # broken curvature model: restart from the starting matrix
            h_inv = h_start
            direction = -h_inv @ g
            slope = float(direction @ g)

        # Armijo backtracking; non-finite trial values just shorten the step
        alpha = 1.0
        x_new = None
        for _ in range(_MAX_BACKTRACKS):
            trial = x + alpha * direction
            f_trial, g_trial = fun(trial)
            evals += 1
            if np.isfinite(f_trial) and f_trial <= fx + _ARMIJO_C1 * alpha * slope:
                x_new, f_new, g_new = trial, f_trial, _checked_gradient(g_trial)
                break
            alpha *= _BACKTRACK_FACTOR
        if x_new is None:
            # no acceptable decrease along this direction; stop with best-so-far
            break

        step = x_new - x
        h_inv = _bfgs_update(h_inv, step, g_new - g,
                             rescale=inverse_hessian is None and iterations == 1)

        x, fx, g = x_new, f_new, g_new
        if float(np.max(np.abs(step))) <= _STEP_TOLERANCE:
            converged = True
            break

    return OptResult(
        x=x,
        value=fx,
        grad_norm=float(np.max(np.abs(g))) if n else 0.0,
        iterations=iterations,
        converged=converged,
        n_evals=evals,
    )


def minimize_newton(evaluate, init, settings: OptimizeSettings | None = None,
                    bounds=None) -> OptResult:
    """Modified Newton minimization of D independent problems at once.

    ``evaluate`` takes ``(x, rows)``: the (len(rows), n) points of the
    problems numbered ``rows`` (an index array into 0..D-1).  It returns
    their objectives (len(rows),), gradients (len(rows), n) and Hessians
    (len(rows), n, n), at the starts and at every trial point; the
    derivatives are read at the starts and at accepted points only.
    ``init`` is (D, n).  Every problem runs the iteration of ``minimize`` on
    its own: a modified Newton direction, an Armijo search that halves its
    step, and the gradient and step tolerances; it leaves the batch once it
    has converged or its search found no decrease.

    ``bounds``, ``(lo, hi)`` as scalars or (n,) arrays, clips the start and
    every trial point into one box for all problems.  A coordinate on a
    bound whose gradient points out of the box keeps its bound (its gradient
    entry and Hessian row and column become the identity's) while the free
    block takes its Newton step; the Armijo decrease is g'(trial - x), and
    the gradient test and ``grad_norm`` read the projected gradient
    x - clip(x - g, lo, hi).

    Returns an OptResult with one entry per problem in every field.

    Raises
    ------
    InvalidStart
        If an objective is not finite at its starting point.
    NumericalFailure
        If a gradient that is read is not finite.
    """
    cfg = settings or OptimizeSettings()
    lo, hi = (-np.inf, np.inf) if bounds is None else bounds
    x = np.clip(np.array(init, dtype=float), lo, hi)
    d, n = x.shape
    active = np.arange(d)
    fx, g, hess = (np.asarray(v, dtype=float) for v in evaluate(x, active))
    if not np.all(np.isfinite(fx)):
        i = int(np.flatnonzero(~np.isfinite(fx))[0])
        where = f" of problem {i}" if d > 1 else ""
        raise InvalidStart(f"objective not finite at the starting point{where} ({fx[i]})")
    g = _checked_gradient(g, active if d > 1 else None)
    evals = np.ones(d, dtype=int)
    iterations = np.zeros(d, dtype=int)
    converged = np.zeros(d, dtype=bool)

    for it in range(1, cfg.max_iterations + 1):
        iterations[active] = it
        projected = np.clip(g[active], x[active] - hi, x[active] - lo)
        flat = np.max(np.abs(projected), axis=1, initial=0.0) <= cfg.gradient_tolerance
        converged[active[flat]] = True
        active = active[~flat]
        if active.size == 0:
            break

        xa, ga = x[active], g[active]
        binding = (xa <= lo) & (ga > 0.0) | (xa >= hi) & (ga < 0.0)
        ha = hess[active]
        if binding.any():
            ga[binding] = 0.0
            ha = np.where(binding[:, :, None] | binding[:, None, :], np.eye(n), ha)
        direction = _newton_directions(ha, ga)
        slope = np.einsum("di,di->d", direction, ga)
        broken = ~np.isfinite(slope) | (slope >= 0)
        direction[broken] = -ga[broken]
        slope[broken] = -np.einsum("di,di->d", ga[broken], ga[broken])
        # a predicted decrease -slope / 2 of one ulp or less: converged to rounding
        seen = -slope > 2.0 * np.spacing(np.abs(fx[active]))
        converged[active[~seen]] = True
        active, xa, ga, direction = active[seen], xa[seen], ga[seen], direction[seen]
        if active.size == 0:
            break

        # Armijo backtracking per problem along the clipped step;
        # non-finite trial values just shorten the step
        alpha = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        x_new, f_new, g_new, h_new = xa.copy(), fx[active], g[active], hess[active]
        for _ in range(_MAX_BACKTRACKS):
            search = np.flatnonzero(~accepted)
            if search.size == 0:
                break
            trial = np.clip(xa[search] + alpha[search, None] * direction[search], lo, hi)
            f_trial, g_trial, h_trial = evaluate(trial, active[search])
            f_trial = np.asarray(f_trial, dtype=float)
            evals[active[search]] += 1
            # a clipped step can lead uphill to first order: accept no increase
            decrease = np.minimum(np.einsum("di,di->d", trial - xa[search], ga[search]), 0)
            ok = np.isfinite(f_trial) & (f_trial <= fx[active[search]] + _ARMIJO_C1 * decrease)
            x_new[search[ok]], f_new[search[ok]] = trial[ok], f_trial[ok]
            g_new[search[ok]], h_new[search[ok]] = g_trial[ok], h_trial[ok]
            accepted[search[ok]] = True
            alpha[search[~ok]] *= _BACKTRACK_FACTOR
        # no acceptable decrease along its direction: the problem stops with
        # its best-so-far point
        moved = active[accepted]
        step = x_new[accepted] - xa[accepted]
        x[moved], fx[moved] = x_new[accepted], f_new[accepted]
        g[moved] = _checked_gradient(g_new[accepted], moved if d > 1 else None)
        hess[moved] = h_new[accepted]
        small = np.max(np.abs(step), axis=1, initial=0.0) <= _STEP_TOLERANCE
        converged[moved[small]] = True
        active = moved[~small]
        if active.size == 0:
            break

    return OptResult(
        x=x,
        value=fx,
        grad_norm=np.max(np.abs(np.clip(g, x - hi, x - lo)), axis=1, initial=0.0),
        iterations=iterations,
        converged=converged,
        n_evals=evals,
    )


def golden_section(objective, lo: float, hi: float) -> float:
    """Derivative-free minimization of a unimodal scalar function on [lo, hi],
    to a bracket width of 1e-6."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise NumericalFailure("invalid golden-section bracket")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > _GOLDEN_TOLERANCE:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    mid = 0.5 * (a + b)
    # endpoints can win when the optimum is on the boundary
    candidates = [(objective(lo), lo), (objective(mid), mid), (objective(hi), hi)]
    return min(candidates)[1]

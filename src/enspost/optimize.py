"""Unconstrained quasi-Newton (BFGS) or exact Newton minimization of
mean-score objectives.

The minimizer is deliberately small: the caller's analytic gradient or
else central differences, an Armijo backtracking line search, and a search
direction from the standard inverse-Hessian BFGS update (with a curvature
guard and Nocedal's scaling of the initial Hessian after the first step).
It only ever *accepts* points that decrease the objective, so the returned
value is guaranteed <= the starting value, and it returns the best point
seen so far even when the search breaks down.

``minimize_newton`` solves many small problems of one shape at once, given
their exact Hessians: each direction is the Newton step from the
eigendecomposition of that problem's Hessian, with negative eigenvalues
made positive (a modified Newton step, Nocedal & Wright ch. 3.4) and
steepest descent on any iteration where that Hessian is not finite.  Every
problem has its own Armijo search and convergence tests; a problem that
has converged or stopped drops out of the batch.  ``golden_section`` is
kept as a derivative-free oracle for one-dimensional searches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStart, NumericalFailure

_STEP_TOLERANCE = 1e-10
_FD_STEP = 1e-6
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
    with one entry per problem (``x`` is then (D, n))."""

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


def _newton_directions(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Modified Newton steps -|h|^{-1} g for a (D, n, n) stack of Hessians
    and (D, n) gradients; steepest descent -g where h is not finite.

    |h| is h with each eigenvalue replaced by its absolute value, floored
    at 1e-10 of the largest: the plain Newton step wherever h is positive
    definite, and still a descent direction that keeps h's scaling where it
    is indefinite (steepest descent there can need hundreds of steps on an
    ill-conditioned problem).
    """
    direction = -g
    finite = np.all(np.isfinite(h), axis=(1, 2))
    if np.any(finite):
        lam, q = np.linalg.eigh(h[finite])
        lam = np.abs(lam)
        top = lam.max(axis=1, keepdims=True)
        coords = np.einsum("dji,dj->di", q, g[finite]) / np.maximum(lam, 1e-10 * top)
        nonzero = top[:, 0] > 0.0
        direction[np.flatnonzero(finite)[nonzero]] = -np.einsum("dij,dj->di", q, coords)[nonzero]
    return direction


def _bfgs_update(h_inv: np.ndarray, step: np.ndarray, yk: np.ndarray,
                 first: bool) -> np.ndarray:
    """Inverse-Hessian BFGS update, skipped when the curvature s'y is not
    clearly positive; the first accepted step rescales the identity."""
    sy = float(step @ yk)
    if sy <= 1e-12 * np.linalg.norm(step) * np.linalg.norm(yk):
        return h_inv
    n = step.size
    if first:
        h_inv = (sy / float(yk @ yk)) * np.eye(n)
    rho = 1.0 / sy
    a = np.eye(n) - rho * np.outer(step, yk)
    return a @ h_inv @ a.T + rho * np.outer(step, step)


def _checked_gradient(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        i = int(np.flatnonzero(~np.isfinite(g))[0])
        where = f" of problem {i // g.shape[-1]}" if g.ndim > 1 and g.shape[0] > 1 else ""
        raise NumericalFailure(f"non-finite analytic gradient in component "
                               f"{i % g.shape[-1]}{where}")
    return g


def minimize(objective, init, settings: OptimizeSettings | None = None,
             grad=None) -> OptResult:
    """BFGS minimization with Armijo backtracking.

    Parameters
    ----------
    objective : callable
        Maps a coefficient vector to a scalar; must be finite at ``init``.
    init : array-like
        Starting point.
    settings : OptimizeSettings, optional
    grad : callable, optional
        Analytic gradient; defaults to central finite differences with
        per-component steps 1e-6 * (1 + |x_i|).

    Returns
    -------
    OptResult
        Best point found; ``converged`` is True when the gradient sup-norm
        or the step size dropped below tolerance.  The value never exceeds
        the starting value.

    Raises
    ------
    InvalidStart
        If the objective is not finite at ``init``.
    NumericalFailure
        If a gradient is not finite (analytic) or cannot be differenced.
    """
    cfg = settings or OptimizeSettings()
    x = np.array(init, dtype=float).ravel()
    n = x.size
    evals = 0

    def fun(v):
        nonlocal evals
        evals += 1
        return float(objective(v))

    f0 = fun(x)
    if not np.isfinite(f0):
        raise InvalidStart(f"objective not finite at the starting point ({f0})")

    def gradient(v):
        if grad is None:
            return numeric_gradient(fun, v, _FD_STEP * (1.0 + np.abs(v)))
        return _checked_gradient(grad(v))

    g = gradient(x)
    h_inv = np.eye(n)
    fx = f0
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
            # broken curvature model: restart from steepest descent
            h_inv = np.eye(n)
            direction = -g
            slope = float(direction @ g)

        # Armijo backtracking; non-finite trial values just shorten the step
        alpha = 1.0
        x_new = None
        f_new = np.inf
        for _ in range(_MAX_BACKTRACKS):
            trial = x + alpha * direction
            f_trial = fun(trial)
            if np.isfinite(f_trial) and f_trial <= fx + _ARMIJO_C1 * alpha * slope:
                x_new, f_new = trial, f_trial
                break
            alpha *= _BACKTRACK_FACTOR
        if x_new is None:
            # no acceptable decrease along this direction; stop with best-so-far
            break

        step = x_new - x
        g_new = gradient(x_new)
        h_inv = _bfgs_update(h_inv, step, g_new - g, first=iterations == 1)

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


def minimize_newton(objective, gradient, hessian, init,
                    settings: OptimizeSettings | None = None) -> OptResult:
    """Modified Newton minimization of D independent problems at once.

    Each callable takes ``(x, rows)``: the (len(rows), n) points of the
    problems numbered ``rows`` (an index array into 0..D-1), and returns
    their objectives (len(rows),), gradients (len(rows), n) or Hessians
    (len(rows), n, n).  ``init`` is (D, n).  Every problem runs the
    iteration of ``minimize`` on its own: a modified Newton direction, an
    Armijo search that halves its step, and the gradient and step
    tolerances; it leaves the batch once it has converged or its search
    found no decrease.

    Returns an OptResult with one entry per problem in every field.

    Raises
    ------
    InvalidStart
        If an objective is not finite at its starting point.
    NumericalFailure
        If a gradient is not finite.
    """
    cfg = settings or OptimizeSettings()
    x = np.array(init, dtype=float)
    d = x.shape[0]
    active = np.arange(d)
    fx = np.asarray(objective(x, active), dtype=float)
    if not np.all(np.isfinite(fx)):
        i = int(np.flatnonzero(~np.isfinite(fx))[0])
        where = f" of problem {i}" if d > 1 else ""
        raise InvalidStart(f"objective not finite at the starting point{where} ({fx[i]})")
    g = _checked_gradient(gradient(x, active))
    evals = np.ones(d, dtype=int)
    iterations = np.zeros(d, dtype=int)
    converged = np.zeros(d, dtype=bool)

    for it in range(1, cfg.max_iterations + 1):
        iterations[active] = it
        flat = np.max(np.abs(g[active]), axis=1, initial=0.0) <= cfg.gradient_tolerance
        converged[active[flat]] = True
        active = active[~flat]
        if active.size == 0:
            break

        xa, ga = x[active], g[active]
        direction = _newton_directions(np.asarray(hessian(xa, active), dtype=float), ga)
        slope = np.einsum("di,di->d", direction, ga)
        broken = ~np.isfinite(slope) | (slope >= 0)
        direction[broken] = -ga[broken]
        slope[broken] = -np.einsum("di,di->d", ga[broken], ga[broken])

        # Armijo backtracking per problem; non-finite trial values just
        # shorten the step
        alpha = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        x_new, f_new = xa.copy(), fx[active]
        for _ in range(_MAX_BACKTRACKS):
            search = np.flatnonzero(~accepted)
            if search.size == 0:
                break
            trial = xa[search] + alpha[search, None] * direction[search]
            f_trial = np.asarray(objective(trial, active[search]), dtype=float)
            evals[active[search]] += 1
            ok = np.isfinite(f_trial) & (
                f_trial <= fx[active[search]] + _ARMIJO_C1 * alpha[search] * slope[search])
            x_new[search[ok]], f_new[search[ok]] = trial[ok], f_trial[ok]
            accepted[search[ok]] = True
            alpha[search[~ok]] *= _BACKTRACK_FACTOR
        # no acceptable decrease along its direction: the problem stops with
        # its best-so-far point
        moved = active[accepted]
        step = x_new[accepted] - xa[accepted]
        x[moved], fx[moved] = x_new[accepted], f_new[accepted]
        g[moved] = _checked_gradient(gradient(x[moved], moved))
        small = np.max(np.abs(step), axis=1, initial=0.0) <= _STEP_TOLERANCE
        converged[moved[small]] = True
        active = moved[~small]
        if active.size == 0:
            break

    return OptResult(
        x=x,
        value=fx,
        grad_norm=np.max(np.abs(g), axis=1, initial=0.0),
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

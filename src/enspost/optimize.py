"""Unconstrained quasi-Newton (BFGS) minimization of mean-score objectives.

The minimizer is deliberately small: the caller's analytic gradient or
else central differences, an Armijo backtracking line search, the standard
inverse-Hessian BFGS update with a curvature guard, and Nocedal's scaling
of the initial Hessian after the first step.  It only ever *accepts*
points that decrease the objective, so the returned value is guaranteed
<= the starting value, and it returns the best point seen so far even when
the search breaks down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStart, NumericalFailure


@dataclass(frozen=True)
class OptimizeSettings:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-6
    step_tolerance: float = 1e-10
    fd_step: float = 1e-6
    armijo_c1: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 40

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("gradient_tolerance", "step_tolerance", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class OptResult:
    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    n_evals: int = 0


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


def _scaled_steps(x: np.ndarray, base: float) -> np.ndarray:
    return base * (1.0 + np.abs(x))


def minimize(objective, init, settings: OptimizeSettings | None = None, grad=None) -> OptResult:
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
        per-component steps fd_step * (1 + |x_i|).

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
            return numeric_gradient(fun, v, _scaled_steps(v, cfg.fd_step))
        g = np.asarray(grad(v), dtype=float)
        if not np.all(np.isfinite(g)):
            i = int(np.flatnonzero(~np.isfinite(g))[0])
            raise NumericalFailure(f"non-finite analytic gradient in component {i}")
        return g

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
        for _ in range(cfg.max_backtracks):
            trial = x + alpha * direction
            f_trial = fun(trial)
            if np.isfinite(f_trial) and f_trial <= fx + cfg.armijo_c1 * alpha * slope:
                x_new, f_new = trial, f_trial
                break
            alpha *= cfg.backtrack_factor
        if x_new is None:
            # no acceptable decrease along this direction; stop with best-so-far
            break

        step = x_new - x
        g_new = gradient(x_new)
        yk = g_new - g
        sy = float(step @ yk)
        if sy > 1e-12 * np.linalg.norm(step) * np.linalg.norm(yk):
            if iterations == 1:
                h_inv = (sy / float(yk @ yk)) * np.eye(n)
            rho = 1.0 / sy
            a = np.eye(n) - rho * np.outer(step, yk)
            h_inv = a @ h_inv @ a.T + rho * np.outer(step, step)

        x, fx, g = x_new, f_new, g_new
        if float(np.max(np.abs(step))) <= cfg.step_tolerance:
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


def golden_section(objective, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Derivative-free minimization of a unimodal scalar function on [lo, hi]."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise NumericalFailure("invalid golden-section bracket")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > tol:
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

"""Quasi-Newton minimization over the free DOF vector.

Limited-memory BFGS with a strong-Wolfe line search and an optional
per-coordinate scale of the initial inverse Hessian.  Non-finite trial
values (the determinant penalty creates cliffs) are treated as failed
sufficient-decrease tests, so the search shrinks through them instead of
aborting the run.  Accepted objective values are monotone non-increasing
and the iterate sequence is deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LBFGS_MEMORY = 10
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_MAX_LS_EVALS = 25
_MAX_ZOOM = 30


class InvalidStartError(ValueError):
    """Objective is not finite at the starting point."""


@dataclass
class MinimizeOptions:
    tol_step: float = 1e-10        # step-norm tolerance (TolX)
    tol_fun: float = 1e-4          # function-decrease tolerance (TolFun)
    max_iters: int = 5000

    def validate(self) -> None:
        """Raise ValueError whose message starts with the bad field's name."""
        for name in ("tol_step", "tol_fun"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")

    @property
    def grad_tol(self) -> float:
        """Gradient infinity-norm threshold derived from tol_fun."""
        return 1e-2 * self.tol_fun


@dataclass
class MinimizeResult:
    x_min: np.ndarray
    f_min: float
    iterations: int
    converged_by: str              # step | function | gradient | max_iters
    gradient_norm: float


def _line_search(fun_grad, x, f0, g0, d, t0):
    """Strong-Wolfe search along d; returns (t, f, g) or None.

    Each trial point costs one ``fun_grad`` call, and the accepted point's
    gradient is the one computed there.  The gradient of a point that fails
    the Armijo test is not used.  Non-finite trial values behave like
    Armijo failures, which brackets the step away from penalty cliffs.
    """
    dg0 = float(g0 @ d)

    def phi(t):
        ft, gt = fun_grad(x + t * d)
        return float(ft), gt

    def zoom(lo, f_lo, g_lo, hi):
        for _ in range(_MAX_ZOOM):
            t = 0.5 * (lo + hi)
            ft, gt = phi(t)
            if not np.isfinite(ft) or ft > f0 + _WOLFE_C1 * t * dg0 or ft >= f_lo:
                hi = t
                continue
            dphi = float(gt @ d)
            if abs(dphi) <= -_WOLFE_C2 * dg0:
                return t, ft, gt
            if dphi * (hi - lo) >= 0.0:
                hi = lo
            lo, f_lo, g_lo = t, ft, gt
        if f_lo < f0:                        # best Armijo point found so far
            return lo, f_lo, g_lo
        return None

    t_prev, f_prev, g_prev = 0.0, f0, g0
    t = t0
    for i in range(_MAX_LS_EVALS):
        ft, gt = phi(t)
        if not np.isfinite(ft) or ft > f0 + _WOLFE_C1 * t * dg0 \
                or (i > 0 and ft >= f_prev):
            return zoom(t_prev, f_prev, g_prev, t)
        dphi = float(gt @ d)
        if abs(dphi) <= -_WOLFE_C2 * dg0:
            return t, ft, gt
        if dphi >= 0.0:
            return zoom(t, ft, gt, t_prev)
        t_prev, f_prev, g_prev = t, ft, gt
        t *= 2.0
    if t_prev <= 0.0:
        return None
    return t_prev, f_prev, g_prev


def minimize(fun_grad, x0, options: MinimizeOptions | None = None,
             h=None) -> MinimizeResult:
    """Minimize a smooth objective from x0.

    ``fun_grad(x)`` returns the value and the gradient at x, ``(f, g)``.
    The gradient is used only at the start and at trial points that pass
    the Armijo test, so it may be anything where f is not finite.
    ``h`` is a constant positive per-coordinate curvature scale (default
    all ones): the initial inverse Hessian of every L-BFGS update is
    theta * diag(1/h), and a direction without memory is -g/h.
    Termination: step norm below tol_step, two consecutive accepted
    decreases below tol_fun, gradient infinity-norm below the derived
    threshold, or max_iters.
    """
    opts = options or MinimizeOptions()
    opts.validate()
    x = np.asarray(x0, dtype=float).copy()
    h = np.ones(len(x)) if h is None else np.asarray(h, dtype=float)
    if h.shape != x.shape or not np.all((h > 0) & np.isfinite(h)):
        raise ValueError("h must be a finite positive scale per coordinate")
    f, g = fun_grad(x)
    f = float(f)
    if not np.isfinite(f):
        raise InvalidStartError(f"objective is {f} at the starting point")
    gnorm = float(np.max(np.abs(g))) if len(g) else 0.0
    if gnorm <= opts.grad_tol:
        return MinimizeResult(x_min=x, f_min=f, iterations=0,
                              converged_by="gradient", gradient_norm=gnorm)

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []

    converged_by = "max_iters"
    it = 0
    small_decreases = 0
    for it in range(1, opts.max_iters + 1):
        d = _lbfgs_direction(g, s_hist, y_hist, rho_hist, h)
        dg = float(d @ g)
        if dg >= 0.0:                       # not a descent direction: reset memory
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            d = -g / h
            dg = float(d @ g)

        t0 = 1.0
        if not s_hist:                      # steepest-descent start: conservative step
            dnorm = float(np.linalg.norm(d))
            if dnorm > 0:
                t0 = min(1.0, 1.0 / dnorm)

        hit = _line_search(fun_grad, x, f, g, d, t0)
        if hit is None or hit[1] >= f:
            # No acceptable decrease along a descent direction: vanishing step.
            converged_by = "step"
            break
        t, f_new, g_new = hit
        x_new = x + t * d

        step = x_new - x
        y = g_new - g
        ys = float(y @ step)
        step_norm = float(np.linalg.norm(step))
        if ys > 1e-12 * step_norm * float(np.linalg.norm(y)):
            s_hist.append(step)
            y_hist.append(y)
            rho_hist.append(1.0 / ys)
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        decrease = f - f_new
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.max(np.abs(g)))

        if step_norm < opts.tol_step:
            converged_by = "step"
            break
        # stop only on a persistently small decrease: a single slow iteration
        # mid-run (e.g. while escaping a shallow saddle) is not convergence
        small_decreases = small_decreases + 1 if decrease < opts.tol_fun else 0
        if small_decreases >= 2:
            converged_by = "function"
            break
        if gnorm <= opts.grad_tol:
            converged_by = "gradient"
            break

    return MinimizeResult(x_min=x, f_min=f, iterations=it,
                          converged_by=converged_by, gradient_norm=gnorm)


def _lbfgs_direction(g, s_hist, y_hist, rho_hist, h):
    """Two-loop recursion with initial inverse Hessian theta * diag(1/h),
    theta = s'y / (y' diag(1/h) y) of the newest pair; -g/h when the memory
    is empty.  With h all ones every product by 1/h is a division by 1.0,
    which is exact, so this is the unscaled recursion bit for bit."""
    q = -g
    if not s_hist:
        return q / h
    k = len(s_hist)
    alphas = np.empty(k)
    for i in range(k - 1, -1, -1):
        alphas[i] = rho_hist[i] * float(s_hist[i] @ q)
        q -= alphas[i] * y_hist[i]
    theta = 1.0 / (rho_hist[-1] * float(y_hist[-1] @ (y_hist[-1] / h)))
    q *= theta / h
    for i in range(k):
        beta = rho_hist[i] * float(y_hist[i] @ q)
        q += (alphas[i] - beta) * s_hist[i]
    return q


def gradient_check(objective, gradient, x, h: float) -> float:
    """Max over coordinates of |analytic - central FD| / (1 + |central FD|).

    ``objective(t)`` returns, for every coordinate i, a value that differs
    from f(x + t e_i) by a constant independent of t, so the central
    difference of coordinate i is (objective(h)[i] - objective(-h)[i]) / 2h.
    NaN in any coordinate, of the gradient or of a difference quotient,
    makes the result NaN, so no threshold test passes it.
    """
    ga = np.asarray(gradient(np.asarray(x, dtype=float)), dtype=float)
    fd = (np.asarray(objective(h), dtype=float) - objective(-h)) / (2.0 * h)
    errs = np.abs(ga - fd) / (1.0 + np.abs(fd))
    return float(np.max(errs, initial=0.0))

"""Quasi-Newton minimization over the free DOF vector.

Limited-memory BFGS with a strong-Wolfe line search and an optional
per-coordinate scale of the initial inverse Hessian.  The search is one
loop that doubles the step until a trial bounds it, then bisects.
Non-finite trial values (the determinant penalty creates cliffs) are
treated as failed sufficient-decrease tests, so the search shrinks through
them instead of aborting the run.  Accepted objective values are monotone
non-increasing and the iterate sequence is deterministic for identical
inputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

_LBFGS_MEMORY = 10
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_MAX_LS_EVALS = 25
_MAX_ZOOM = 30

# The stopping tests of every minimization, absolute (mm, N mm, N), so they
# suit only the sides ``config.SIDE_RANGE`` admits: the 10x18 K=20 program
# takes 79 to 200 iterations per minimizing step at 42 x 75 mm, and 2,269 to
# 5,000 (one stop on MAX_ITERS) scaled to 1,000 x 1,786 mm.
TOL_STEP = 1e-10       # step norm
TOL_FUN = 1e-4         # accepted decrease, twice in a row
GRAD_TOL = 1e-6        # gradient infinity-norm
MAX_ITERS = 5000


class InvalidStartError(ValueError):
    """Objective is not finite at the starting point."""


@dataclass
class MinimizeResult:
    x_min: np.ndarray
    f_min: float
    iterations: int
    converged_by: str              # step | function | gradient | max_iters
    gradient_norm: float


def _line_search(fun_grad, x, f0, d, t0, dg0):
    """Strong-Wolfe search along d from x, where the value is f0 and the
    slope d'g is dg0 < 0; returns the accepted point (x_t, f, g) or None.

    One loop over a bracket [lo, hi] (Nocedal & Wright, Algorithms 3.5-3.6):
    lo is the best Armijo step so far, 0 before one; hi is unset while the
    step doubles from t0, at most _MAX_LS_EVALS trials, and once a trial
    bounds the step it bisects, at most _MAX_ZOOM more.  Out of trials, the
    point at lo is returned if it is below f0.

    Each trial point costs one ``fun_grad`` call, and the accepted point's
    gradient is the one computed there.  The gradient of a point that fails
    the Armijo test is not used.  Non-finite trial values behave like
    Armijo failures, which brackets the step away from penalty cliffs.
    """
    # the start stands in for the point at lo; its gradient is never read
    lo, best, hi, t = 0.0, (x, f0, None), None, t0
    n, stop = 0, _MAX_LS_EVALS
    while n < stop:
        n += 1
        xt = x + t * d
        ft, gt = fun_grad(xt)
        ft = float(ft)
        # the first trial is not compared with the start: f0 + c1 t dg0 can
        # round to f0, and a trial at f0 then passes Armijo and is kept
        if not math.isfinite(ft) or ft > f0 + _WOLFE_C1 * t * dg0 \
                or (n > 1 and ft >= best[1]):
            bound = t
        else:
            dphi = float(gt.dot(d))
            if abs(dphi) <= -_WOLFE_C2 * dg0:
                return xt, ft, gt
            # while hi is unset it lies beyond lo, in the direction of d
            bound = lo if dphi * (1.0 if hi is None else hi - lo) >= 0.0 else hi
            lo, best = t, (xt, ft, gt)
        if hi is None and bound is not None:
            stop = n + _MAX_ZOOM
        hi = bound
        t = 2.0 * t if hi is None else 0.5 * (lo + hi)
    return best if best[1] < f0 else None    # a lo kept at f0 is no decrease


def minimize(fun_grad, x0, h=None) -> MinimizeResult:
    """Minimize a smooth objective from x0.

    ``fun_grad(x)`` returns the value and the gradient at x, ``(f, g)``.
    The gradient is used only at the start and at trial points that pass
    the Armijo test, so it may be anything where f is not finite.
    ``h`` is a constant positive per-coordinate curvature scale (default
    all ones): the initial inverse Hessian of every L-BFGS update is
    theta * diag(1/h), and a direction without memory is -g/h.
    Termination: step norm below TOL_STEP, two consecutive accepted
    decreases below TOL_FUN, gradient infinity-norm at most GRAD_TOL, or
    MAX_ITERS iterations.
    """
    x = np.asarray(x0, dtype=float).copy()
    h = np.ones(len(x)) if h is None else np.asarray(h, dtype=float)
    if h.shape != x.shape or not np.all((h > 0) & np.isfinite(h)):
        raise ValueError("h must be a finite positive scale per coordinate")
    f, g = fun_grad(x)
    f = float(f)
    if not np.isfinite(f):
        raise InvalidStartError(f"objective is {f} at the starting point")
    gnorm = float(np.abs(g).max()) if len(g) else 0.0
    if gnorm <= GRAD_TOL:
        return MinimizeResult(x_min=x, f_min=f, iterations=0,
                              converged_by="gradient", gradient_norm=gnorm)

    # the newest _LBFGS_MEMORY pairs; appending to a full deque drops the oldest
    s_hist, y_hist, rho_hist = (deque(maxlen=_LBFGS_MEMORY) for _ in range(3))

    converged_by = "max_iters"
    it = 0
    small_decreases = 0
    for it in range(1, MAX_ITERS + 1):
        d = _lbfgs_direction(g, s_hist, y_hist, rho_hist, h)
        dg = float(d.dot(g))
        if dg >= 0.0:                       # not a descent direction: reset memory
            for hist in (s_hist, y_hist, rho_hist):
                hist.clear()
            d = -g / h
            dg = float(d.dot(g))

        t0 = 1.0
        if not s_hist:                      # steepest-descent start: conservative step
            dnorm = math.sqrt(float(d.dot(d)))
            if dnorm > 0:
                t0 = min(1.0, 1.0 / dnorm)

        hit = _line_search(fun_grad, x, f, d, t0, dg)
        if hit is None or hit[1] >= f:
            # No acceptable decrease along a descent direction: vanishing step.
            converged_by = "step"
            break
        x_new, f_new, g_new = hit

        step = x_new - x
        y = g_new - g
        ys = float(y.dot(step))
        step_norm = math.sqrt(float(step.dot(step)))
        if ys > 1e-12 * step_norm * math.sqrt(float(y.dot(y))):
            s_hist.append(step)
            y_hist.append(y)
            rho_hist.append(1.0 / ys)

        decrease = f - f_new
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.abs(g).max())

        if step_norm < TOL_STEP:
            converged_by = "step"
            break
        # stop only on a persistently small decrease: a single slow iteration
        # mid-run (e.g. while escaping a shallow saddle) is not convergence
        small_decreases = small_decreases + 1 if decrease < TOL_FUN else 0
        if small_decreases >= 2:
            converged_by = "function"
            break
        if gnorm <= GRAD_TOL:
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
    alphas = []                              # newest pair first
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        alpha = rho * float(s.dot(q))
        alphas.append(alpha)
        q -= alpha * y
    theta = 1.0 / (rho_hist[-1] * float(y_hist[-1].dot(y_hist[-1] / h)))
    q *= theta / h
    for s, y, rho, alpha in zip(s_hist, y_hist, rho_hist, reversed(alphas)):
        beta = rho * float(y.dot(q))
        q += (alpha - beta) * s
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

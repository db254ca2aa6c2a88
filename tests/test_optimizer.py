import numpy as np
import pytest

from kinkband import (InvalidStartError, MaterialParams, MinimizeOptions,
                      SlipSystem, build_dofmap, build_structured_mesh,
                      gradient_check, initial_state, minimize)
from kinkband.evolution import (LoadProgram, _make_objective,
                                apply_boundary_conditions)
from kinkband.optimizer import _lbfgs_direction


def rosenbrock(x):
    return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def rosenbrock_grad(x):
    return np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2),
    ])


def _fg(f, g):
    """The (f, g) objective minimize takes, from separate f and g."""
    return lambda x: (f(x), g(x))


def _tight():
    return MinimizeOptions(tol_fun=1e-12, tol_step=1e-12, max_iters=2000)


def test_quadratic_bowl():
    c = np.array([3.0, -1.0, 2.0, 0.5])
    res = minimize(_fg(lambda x: 0.5 * float((x - c) @ (x - c)), lambda x: x - c),
                   np.zeros(4), _tight())
    assert np.max(np.abs(res.x_min - c)) < 1e-8
    assert res.f_min == pytest.approx(0.0, abs=1e-16)


def test_rosenbrock():
    res = minimize(_fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]), _tight())
    assert np.max(np.abs(res.x_min - 1.0)) < 1e-4


def test_result_invariants():
    c = np.array([1.0, 2.0])

    def f(x):
        return 0.5 * float((x - c) @ (x - c))

    res = minimize(_fg(f, lambda x: x - c), np.zeros(2), _tight())
    assert res.f_min == f(res.x_min)
    assert res.converged_by in ("step", "function", "gradient", "max_iters")


def test_monotone_in_iteration_budget():
    # value after k accepted iterations is non-increasing in k
    prev = np.inf
    for k in range(1, 40):
        opts = MinimizeOptions(tol_fun=1e-16, tol_step=1e-16, max_iters=k)
        res = minimize(_fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]), opts)
        assert res.f_min <= prev + 1e-15
        prev = res.f_min


def test_translation_equivariance():
    c = np.array([0.7, -0.3, 1.1])
    d = np.array([10.0, -5.0, 2.5])

    def f(x):
        return 0.5 * float((x - c) @ (x - c))

    res = minimize(_fg(f, lambda x: x - c), np.zeros(3), _tight())
    res_shift = minimize(_fg(lambda x: f(x - d), lambda x: (x - d) - c),
                         np.zeros(3) + d, _tight())
    np.testing.assert_allclose(res_shift.x_min, res.x_min + d, atol=1e-10)


def test_determinism():
    r1 = minimize(_fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]), _tight())
    r2 = minimize(_fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]), _tight())
    assert (r1.x_min == r2.x_min).all()
    assert r1.f_min == r2.f_min
    assert r1.iterations == r2.iterations


def test_invalid_start_raises():
    with pytest.raises(InvalidStartError):
        minimize(_fg(lambda x: np.inf, lambda x: x), np.zeros(2), _tight())


def test_nonfinite_trial_points_are_rejected():
    # objective is +inf outside the unit ball; the line search must shrink
    # through the cliff instead of failing.  The narrow valley makes the
    # first step cross it and leave the ball.  The gradient there is NaN,
    # so a gradient from an off-cliff point in the step or the L-BFGS
    # memory would poison the result
    off_cliff = []

    def fun_grad(x):
        if float(x @ x) >= 1.0:
            off_cliff.append(x)
            return np.inf, np.full_like(x, np.nan)
        return x[0] ** 2 + 100.0 * x[1] ** 2, np.array([2.0 * x[0], 200.0 * x[1]])

    res = minimize(fun_grad, np.array([0.9, 0.1]), _tight())
    assert off_cliff
    assert np.max(np.abs(res.x_min)) < 1e-6


def test_zero_gradient_start_exits_immediately():
    res = minimize(_fg(lambda x: 1.0 + 0.5 * float(x @ x), lambda x: x),
                   np.zeros(3), MinimizeOptions())
    assert res.iterations == 0
    assert res.converged_by == "gradient"


def test_options_validation():
    with pytest.raises(ValueError):
        MinimizeOptions(tol_fun=0.0).validate()
    with pytest.raises(ValueError):
        MinimizeOptions(max_iters=0).validate()


# ---------------------------------------------------------------------------
# per-coordinate curvature scale


def _unscaled_direction(g, s_hist, y_hist, rho_hist):
    """The two-loop recursion with the scalar initial Hessian s'y / y'y."""
    q = -g.copy()
    if not s_hist:
        return q
    k = len(s_hist)
    alphas = np.empty(k)
    for i in range(k - 1, -1, -1):
        alphas[i] = rho_hist[i] * float(s_hist[i] @ q)
        q -= alphas[i] * y_hist[i]
    q *= 1.0 / (rho_hist[-1] * float(y_hist[-1] @ y_hist[-1]))
    for i in range(k):
        beta = rho_hist[i] * float(y_hist[i] @ q)
        q += (alphas[i] - beta) * s_hist[i]
    return q


def test_unit_scale_direction_is_the_unscaled_recursion_bitwise():
    rng = np.random.default_rng(7)
    for n, k in ((1, 1), (7, 3), (600, 10), (2203, 10), (50, 0)):
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        s_hist, y_hist, rho_hist = [], [], []
        for _ in range(k):
            s = rng.standard_normal(n)
            y = rng.uniform(0.5, 1e4, n) * s + 1e-3 * rng.standard_normal(n)
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / float(y @ s))
        d = _lbfgs_direction(g, s_hist, y_hist, rho_hist, np.ones(n))
        assert (d == _unscaled_direction(g, s_hist, y_hist, rho_hist)).all()


def test_curvature_scale_speeds_up_a_stiff_diagonal_quadratic():
    # curvatures spread over [1, 2] and [1e8, 2e8]: the scalar initial
    # Hessian stalls on the soft block, the matching scale sees both
    spread = np.linspace(1.0, 2.0, 20)
    c = np.concatenate([spread, 1e8 * spread])
    h = np.concatenate([np.ones(20), np.full(20, 1e8)])

    def fun_grad(x):
        return 0.5 * float(x @ (c * x)), c * x

    x0 = np.ones(40)
    plain = minimize(fun_grad, x0, _tight())
    scaled = minimize(fun_grad, x0, _tight(), h=h)
    assert np.max(np.abs(scaled.x_min)) < 1e-8
    assert 10 * scaled.iterations < plain.iterations


def test_curvature_scale_validation():
    fg = _fg(lambda x: 0.5 * float(x @ x), lambda x: x)
    for bad in (np.ones(2), np.array([1.0, 0.0, 1.0]),
                np.array([1.0, np.nan, 1.0]), np.array([1.0, np.inf, 1.0])):
        with pytest.raises(ValueError):
            minimize(fg, np.ones(3), _tight(), h=bad)


# ---------------------------------------------------------------------------
# gradient_check


def test_gradient_check_quadratic():
    err = gradient_check(lambda x: 0.5 * float(x @ x), lambda x: x,
                         np.array([0.2, -1.0, 3.0]), 1e-6)
    assert err < 1e-7


def test_gradient_check_detects_broken_gradient():
    def broken(x):
        g = x.copy()
        g[0] = 0.0
        return g

    err = gradient_check(lambda x: 0.5 * float(x @ x), broken,
                         np.array([1.5, -1.0]), 1e-6)
    assert err > 1e-2


def test_gradient_check_nan_coordinate_gives_nan():
    x = np.array([0.2, -1.0, 3.0])

    def nan_grad(v):
        g = v.copy()
        g[1] = np.nan
        return g

    def nan_fun(v):                  # NaN at one finite-difference point
        return np.nan if v[2] > 3.0 else 0.5 * float(v @ v)

    assert np.isnan(gradient_check(lambda v: 0.5 * float(v @ v), nan_grad,
                                   x, 1e-6))
    assert np.isnan(gradient_check(nan_fun, lambda v: v, x, 1e-6))


# ---------------------------------------------------------------------------
# assembled problem against a coordinate-descent oracle


def _parabolic_line_min(f, x, i, span):
    """Scalar minimization along coordinate i by sampled parabola refinement."""
    best_t, best_f = 0.0, f(x)
    for _ in range(40):
        ts = np.linspace(best_t - span, best_t + span, 7)
        fs = []
        for t in ts:
            xt = x.copy()
            xt[i] += t
            fs.append(f(xt))
        j = int(np.argmin(fs))
        best_t, best_f = ts[j], fs[j]
        span /= 2.5
    out = x.copy()
    out[i] += best_t
    return out, best_f


def test_assembled_step_matches_coordinate_descent_oracle():
    # first time step of the reference program on a 2x2-element mesh
    mesh = build_structured_mesh(42.0, 75.0, 2, 2)
    dofmap = build_dofmap(mesh)
    params = MaterialParams()
    slip = SlipSystem.default()
    program = LoadProgram(speed=0.18, Ly=75.0)
    t1 = 100.0 / 76.0
    template = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                         program, t1)
    b_prev = np.zeros(mesh.n_nodes)
    fun, fun_grad = _make_objective(mesh, dofmap, params, slip, template, b_prev)
    x0 = dofmap.pack(template.a1, template.a2, template.b)
    assert dofmap.n_free <= 27

    res = minimize(fun_grad, x0, MinimizeOptions())

    x = x0.copy()
    f = fun(x)
    for _ in range(80):
        f_before = f
        for i in range(len(x)):
            x, f = _parabolic_line_min(fun, x, i, span=0.05)
        if f_before - f < 1e-7:
            break

    assert abs(res.f_min - f) <= MinimizeOptions().tol_fun

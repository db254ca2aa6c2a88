import inspect
import math

import numpy as np
import pytest

from kinkband import MaterialParams, optimizer
from kinkband.energy import _assemble, _field_at_points, curvature_scale
from kinkband.evolution import (LoadProgram, _make_objective,
                                apply_boundary_conditions, initial_state)
from kinkband.mesh import build_dofmap, build_structured_mesh
from kinkband.optimizer import (InvalidStartError, _lbfgs_direction,
                                _line_search, gradient_check, minimize)
from rotations import aligned_slip
from seed_optimizer import MinimizeOptions, seed_line_search, seed_minimize


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


# minimize's stopping constants, tight enough to reach the minimizers of
# the small problems here
TIGHT = {"TOL_FUN": 1e-12, "TOL_STEP": 1e-12, "GRAD_TOL": 1e-14,
         "MAX_ITERS": 2000}


def _stop_at(mp, constants):
    """Set minimize's stopping constants, by name, through the monkeypatch mp."""
    for name, value in constants.items():
        mp.setattr(optimizer, name, value)


@pytest.fixture
def tight(monkeypatch):
    _stop_at(monkeypatch, TIGHT)


@pytest.mark.usefixtures("tight")
def test_quadratic_bowl():
    c = np.array([3.0, -1.0, 2.0, 0.5])
    res = minimize(_fg(lambda x: 0.5 * float((x - c) @ (x - c)), lambda x: x - c),
                   np.zeros(4))
    assert np.max(np.abs(res.x_min - c)) < 1e-8
    assert res.f_min == pytest.approx(0.0, abs=1e-16)


@pytest.mark.usefixtures("tight")
def test_rosenbrock():
    res = minimize(_fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]))
    assert np.max(np.abs(res.x_min - 1.0)) < 1e-4


@pytest.mark.usefixtures("tight")
def test_result_invariants():
    c = np.array([1.0, 2.0])

    def f(x):
        return 0.5 * float((x - c) @ (x - c))

    res = minimize(_fg(f, lambda x: x - c), np.zeros(2))
    assert res.f_min == f(res.x_min)
    assert res.converged_by in ("step", "function", "gradient", "max_iters")


def test_monotone_in_iteration_budget(monkeypatch):
    # value after k accepted iterations is non-increasing in k
    prev = np.inf
    for k in range(1, 40):
        _stop_at(monkeypatch, {"TOL_FUN": 1e-16, "TOL_STEP": 1e-16,
                               "GRAD_TOL": 1e-18, "MAX_ITERS": k})
        res = minimize(_fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]))
        assert res.f_min <= prev + 1e-15
        prev = res.f_min


@pytest.mark.usefixtures("tight")
def test_translation_equivariance():
    c = np.array([0.7, -0.3, 1.1])
    d = np.array([10.0, -5.0, 2.5])

    def f(x):
        return 0.5 * float((x - c) @ (x - c))

    res = minimize(_fg(f, lambda x: x - c), np.zeros(3))
    res_shift = minimize(_fg(lambda x: f(x - d), lambda x: (x - d) - c),
                         np.zeros(3) + d)
    np.testing.assert_allclose(res_shift.x_min, res.x_min + d, atol=1e-10)


@pytest.mark.usefixtures("tight")
def test_determinism():
    r1 = minimize(_fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]))
    r2 = minimize(_fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]))
    assert (r1.x_min == r2.x_min).all()
    assert r1.f_min == r2.f_min
    assert r1.iterations == r2.iterations


@pytest.mark.usefixtures("tight")
def test_invalid_start_raises():
    with pytest.raises(InvalidStartError):
        minimize(_fg(lambda x: np.inf, lambda x: x), np.zeros(2))


@pytest.mark.usefixtures("tight")
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

    res = minimize(fun_grad, np.array([0.9, 0.1]))
    assert off_cliff
    assert np.max(np.abs(res.x_min)) < 1e-6


def test_zero_gradient_start_exits_immediately():
    res = minimize(_fg(lambda x: 1.0 + 0.5 * float(x @ x), lambda x: x),
                   np.zeros(3))
    assert res.iterations == 0
    assert res.converged_by == "gradient"


def _one_ascent_run(run, patch, at=3):
    """``run``, ``minimize`` or a copy of it, on a convex quadratic with the
    scale h of its diagonal, where ``_lbfgs_direction`` returns the ascent
    direction g/h once, at iteration ``at``, and every search is watched;
    ``patch(name, value)`` sets a name where ``run`` looks it up.  Returns
    the result, the start value, the memory length at each direction, and
    per search (x, d, t0, memory length, first trial point)."""
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 6))
    a = m @ m.T + 6.0 * np.eye(6)
    c = rng.standard_normal(6)
    h = np.diag(a).copy()

    def fun_grad(x):
        return 0.5 * float(x @ a @ x) - float(c @ x), a @ x - c

    memory, held, searches = [], [], []

    def direction(g, s_hist, *args):
        memory[:] = [s_hist]
        held.append(len(s_hist))
        if len(held) == at:
            return g / h
        return _lbfgs_direction(g, s_hist, *args)

    def search(fun_grad, x, f0, d, t0, dg0):
        trials = []

        def recorded(xt):
            trials.append(xt.copy())
            return fun_grad(xt)
        watched = [x.copy(), d.copy(), t0, len(memory[0])]
        hit = _line_search(recorded, x, f0, d, t0, dg0)
        searches.append(watched + [trials[0]])
        return hit

    patch("_lbfgs_direction", direction)
    patch("_line_search", search)
    x0 = np.zeros(6)
    return run(fun_grad, x0, h=h), fun_grad(x0)[0], held, searches, fun_grad, h


@pytest.mark.usefixtures("tight")
def test_an_ascent_direction_empties_the_memory(monkeypatch):
    # the memory is cleared and the search runs along -g/h from the
    # conservative first trial t0 = min(1, 1/|g/h|); the run goes on
    res, f0, held, searches, fun_grad, h = _one_ascent_run(
        minimize, lambda name, value: monkeypatch.setattr(optimizer, name,
                                                          value))
    x, d, t0, kept, first = searches[2]
    assert held[2] == 2 and kept == 0
    g = fun_grad(x)[1]
    assert np.array_equal(d, -g / h)
    assert t0 == min(1.0, 1.0 / math.sqrt(float((g / h).dot(g / h))))
    assert np.array_equal(first, x + t0 * d)
    assert res.iterations > 3
    assert res.f_min < f0


@pytest.mark.usefixtures("tight")
def test_without_the_reset_an_ascent_direction_stops_the_run():
    # negative control: minimize with its reset taken out searches along the
    # ascent direction, finds no decrease and stops on ``step`` there
    source = inspect.getsource(optimizer.minimize)
    assert source.count("if dg >= 0.0:") == 1
    namespace = dict(vars(optimizer))
    exec(source.replace("if dg >= 0.0:", "if False:"), namespace)
    res = _one_ascent_run(namespace["minimize"], namespace.__setitem__)[0]
    assert (res.converged_by, res.iterations) == ("step", 3)


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


@pytest.mark.usefixtures("tight")
def test_curvature_scale_speeds_up_a_stiff_diagonal_quadratic():
    # curvatures spread over [1, 2] and [1e8, 2e8]: the scalar initial
    # Hessian stalls on the soft block, the matching scale sees both
    spread = np.linspace(1.0, 2.0, 20)
    c = np.concatenate([spread, 1e8 * spread])
    h = np.concatenate([np.ones(20), np.full(20, 1e8)])

    def fun_grad(x):
        return 0.5 * float(x @ (c * x)), c * x

    x0 = np.ones(40)
    plain = minimize(fun_grad, x0)
    scaled = minimize(fun_grad, x0, h=h)
    assert np.max(np.abs(scaled.x_min)) < 1e-8
    assert 10 * scaled.iterations < plain.iterations


@pytest.mark.usefixtures("tight")
def test_curvature_scale_validation():
    fg = _fg(lambda x: 0.5 * float(x @ x), lambda x: x)
    for bad in (np.ones(2), np.array([1.0, 0.0, 1.0]),
                np.array([1.0, np.nan, 1.0]), np.array([1.0, np.inf, 1.0])):
        with pytest.raises(ValueError):
            minimize(fg, np.ones(3), h=bad)


# ---------------------------------------------------------------------------
# gradient_check


def coordinate_oracle(fun, x):
    """The gradient check's oracle of a plain objective: t -> f(x + t e_i)
    for every coordinate i, one call per coordinate."""
    def oracle(t):
        values = np.empty(len(x))
        for i in range(len(x)):
            xi = np.array(x, dtype=float)
            xi[i] += t
            values[i] = fun(xi)
        return values
    return oracle


def test_gradient_check_quadratic():
    x = np.array([0.2, -1.0, 3.0])
    err = gradient_check(coordinate_oracle(lambda v: 0.5 * float(v @ v), x),
                         lambda v: v, x, 1e-6)
    assert err < 1e-7


def test_gradient_check_detects_broken_gradient():
    def broken(x):
        g = x.copy()
        g[0] = 0.0
        return g

    x = np.array([1.5, -1.0])
    err = gradient_check(coordinate_oracle(lambda v: 0.5 * float(v @ v), x),
                         broken, x, 1e-6)
    assert err > 1e-2


def test_gradient_check_nan_coordinate_gives_nan():
    x = np.array([0.2, -1.0, 3.0])

    def nan_grad(v):
        g = v.copy()
        g[1] = np.nan
        return g

    def nan_fun(v):                  # NaN at one finite-difference point
        return np.nan if v[2] > 3.0 else 0.5 * float(v @ v)

    quadratic = coordinate_oracle(lambda v: 0.5 * float(v @ v), x)
    assert np.isnan(gradient_check(quadratic, nan_grad, x, 1e-6))
    assert np.isnan(gradient_check(coordinate_oracle(nan_fun, x), lambda v: v,
                                   x, 1e-6))


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


def _assembled_first_step():
    """(fun, fun_grad, x0) of the first time step of the reference program
    on a 2x2-element mesh."""
    mesh = build_structured_mesh(42.0, 75.0, 2, 2)
    dofmap = build_dofmap(mesh)
    program = LoadProgram(speed=0.18, Ly=75.0)
    t1 = 100.0 / 76.0
    template = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                         program, t1)
    params, slip = MaterialParams(), aligned_slip()
    b_prev = np.zeros(mesh.n_nodes)
    fun_grad = _make_objective(mesh, dofmap, params, slip, template, b_prev)
    gam_prev = _field_at_points(mesh, b_prev)

    def fun(x):
        # fun_grad's value, bit for bit, without the gradient pass
        breakdown, diss, _ = _assemble(mesh, dofmap.unpack(x, template.q),
                                       params, slip, gam_prev=gam_prev)
        return breakdown.total + diss

    return fun, fun_grad, dofmap.pack(template.q)


def test_assembled_step_matches_coordinate_descent_oracle():
    fun, fun_grad, x0 = _assembled_first_step()
    assert len(x0) <= 27

    res = minimize(fun_grad, x0)

    x = x0.copy()
    f = fun(x)
    for _ in range(80):
        f_before = f
        for i in range(len(x)):
            x, f = _parabolic_line_min(fun, x, i, span=0.05)
        if f_before - f < 1e-7:
            break

    assert abs(res.f_min - f) <= optimizer.TOL_FUN


# ---------------------------------------------------------------------------
# the result against the start, exactly


def _stop_reason_cases():
    """(fun, fun_grad, x0, stopping constants) of this file's problems, one
    or more per stop reason; ``fun`` is the value alone."""
    c = np.array([3.0, -1.0, 2.0, 0.5])

    def bowl(x):
        return 0.5 * float((x - c) @ (x - c))

    def flat(x):
        return 1.0 + 0.5 * float(x @ x)

    def cliff(x):
        return x[0] ** 2 + 100.0 * x[1] ** 2 if float(x @ x) < 1.0 else np.inf

    def cliff_grad(x):
        return np.array([2.0 * x[0], 200.0 * x[1]])

    start = np.array([-1.2, 1.0])
    fun, fun_grad, x0 = _assembled_first_step()
    return [
        (bowl, _fg(bowl, lambda x: x - c), np.zeros(4), TIGHT),
        (flat, _fg(flat, lambda x: x), np.zeros(3), {}),
        (rosenbrock, _fg(rosenbrock, rosenbrock_grad), start, TIGHT),
        (rosenbrock, _fg(rosenbrock, rosenbrock_grad), start,
         {"MAX_ITERS": 5}),
        (cliff, _fg(cliff, cliff_grad), np.array([0.9, 0.1]), TIGHT),
        (fun, fun_grad, x0, {}),
        (fun, fun_grad, x0, TIGHT),
    ]


@pytest.mark.parametrize("scaled", [False, True])
def test_result_is_never_above_the_start(monkeypatch, scaled):
    # bit for bit: f_min is the value at x_min and at most the value at x0,
    # whatever the stop reason.  The restart from the lifted state in
    # evolution.incremental_step keeps its result on this fact alone
    reached = set()
    for fun, fun_grad, x0, constants in _stop_reason_cases():
        h = np.linspace(0.5, 2.0, len(x0)) if scaled else None
        with monkeypatch.context() as mp:
            _stop_at(mp, constants)
            res = minimize(fun_grad, x0, h=h)
        assert res.f_min <= fun(x0)
        assert res.f_min == fun(res.x_min)
        reached.add(res.converged_by)
    assert reached == {"step", "function", "gradient", "max_iters"}


# ---------------------------------------------------------------------------
# the iterates against the frozen optimizer, exactly


def _step_problem(sigma):
    """(fun_grad, x0, h) of a step of the reference program on the 4x6 mesh."""
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    dofmap = build_dofmap(mesh)
    params = MaterialParams(sigma=sigma)
    prev = initial_state(mesh)
    template = apply_boundary_conditions(prev, mesh, dofmap,
                                         LoadProgram(speed=0.18, Ly=75.0), 20.0)
    fun_grad = _make_objective(mesh, dofmap, params, aligned_slip(),
                               template, prev.b)
    return (fun_grad, dofmap.pack(template.q),
            curvature_scale(mesh, dofmap, params))


def _penalty_cliff():
    """A stiff quadratic inside the unit disk and a flat 1e6 outside it, a
    cliff as the determinant penalty makes one, with a start next to it."""
    c, a = np.array([0.15, -0.55]), np.array([1.0, 25.0])

    def fun_grad(x):
        if float(x @ x) > 1.0:
            return 1e6, np.zeros(2)
        return 0.5 * float((x - c) @ (a * (x - c))), a * (x - c)
    return fun_grad, np.array([-0.98, -0.13])


def _recorded(fun_grad):
    """fun_grad, and the list of the bytes of every point it is called at."""
    points = []

    def recording(x):
        points.append(x.tobytes())
        return fun_grad(x)
    return recording, points


@pytest.mark.usefixtures("tight")
def test_penalty_cliff_run_has_a_search_that_returns_its_lo_point(monkeypatch):
    # one search of the run finds no point before the cliff that meets the
    # curvature condition, so zoom runs out and returns its best Armijo
    # point, which is not the latest point it evaluated
    lo_returns = []

    def watched(fun_grad, *args):
        recording, points = _recorded(fun_grad)
        hit = line_search(recording, *args)
        lo_returns.append(hit is not None and hit[0].tobytes() != points[-1])
        return hit

    line_search = optimizer._line_search
    monkeypatch.setattr(optimizer, "_line_search", watched)
    fun_grad, x0 = _penalty_cliff()
    res = minimize(fun_grad, x0)
    assert res.converged_by == "function"
    assert any(lo_returns) and not lo_returns[-1]


# name: (f, f', t0, trials, accepted step or None) of a 1-D search from 0
# along +1, one per way the search can end
_SEARCH_EXITS = {
    "first_trial": (lambda x: 0.5 * (x - 1.0) ** 2, lambda x: x - 1.0,
                    1.0, 1, 1.0),
    "after_doubling": (lambda x: 0.5 * (x - 100.0) ** 2, lambda x: x - 100.0,
                       1.0, 5, 16.0),
    "armijo_failure_then_bisection": (lambda x: 0.5 * (x - 0.1) ** 2,
                                      lambda x: x - 0.1, 1.0, 4, 0.125),
    # the trial at 1.25 passes Armijo with slope 9: the bracket is [1.25, 0.625]
    "slope_flip_then_bisection": (
        lambda x: -x + 100.0 * max(0.0, x - 1.2) ** 2,
        lambda x: -1.0 + 200.0 * max(0.0, x - 1.2), 0.3125, 9, 1.201171875),
    "doublings_exhausted": (lambda x: -x, lambda x: -1.0, 1.0, 25, 2.0 ** 24),
    # a cliff at 1: the bisections close in on it from below at slope -1
    "bisections_exhausted": (lambda x: -x if x < 1.0 else 1e6,
                             lambda x: -1.0 if x < 1.0 else 0.0,
                             0.75, 2 + 30, 1.0 - 2.0 ** -32),
    "bisections_over_non_finite_values": (
        lambda x: 0.0 if x == 0.0 else np.nan,
        lambda x: -1.0 if x == 0.0 else np.nan, 1.0, 1 + 30, None),
    # f0 + c1 t dg0 rounds to f0 = 1e16, so a first trial at f0 passes Armijo
    "rounding_first_trial": (lambda x: 1e16, lambda x: -1.0 + 0.5 * x,
                             1.0, 1, 1.0),
    # the first trial, at f0, becomes lo; every later one is not below it,
    # and the bisections run out with lo's value not below f0: no point
    "rounding_then_bisections_exhausted": (lambda x: 1e16, lambda x: -1.0,
                                           1.0, 2 + 30, None),
}


@pytest.mark.parametrize("case", list(_SEARCH_EXITS))
def test_line_search_equals_the_frozen_search_bitwise(case):
    f, fprime, t0, trials, accepted = _SEARCH_EXITS[case]

    def fun_grad(x):
        return f(float(x[0])), np.array([fprime(float(x[0]))])
    x, d = np.zeros(1), np.ones(1)
    f0, g0 = fun_grad(x)
    live, live_points = _recorded(fun_grad)
    frozen, frozen_points = _recorded(fun_grad)
    hit = _line_search(live, x, f0, d, t0, float(d.dot(g0)))
    ref = seed_line_search(frozen, x, f0, g0, d, t0)
    assert live_points == frozen_points
    assert len(live_points) == trials
    if accepted is None:
        assert hit is None and ref is None
    else:
        assert ref[0] == accepted
        assert hit[0].tobytes() == (x + ref[0] * d).tobytes()
        assert hit[1] == ref[1]
        assert hit[2].tobytes() == ref[2].tobytes()


@pytest.mark.parametrize("case", ["step", "stiff_step", "rosenbrock",
                                  "penalty_cliff"])
def test_iterates_equal_the_frozen_optimizer_bitwise(monkeypatch, case):
    # the frozen copy takes as options the values the live one reads as
    # module constants
    h, options = None, MinimizeOptions()
    if case in ("step", "stiff_step"):
        fun_grad, x0, h = _step_problem(1000.0 if case == "stiff_step" else 0.001)
        assert (h == 1.0).all() == (case == "step")
    else:
        _stop_at(monkeypatch, TIGHT)
        options = MinimizeOptions(tol_fun=1e-12, tol_step=1e-12, max_iters=2000)
        if case == "rosenbrock":
            fun_grad, x0 = _fg(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0])
        else:
            fun_grad, x0 = _penalty_cliff()
    live, live_points = _recorded(fun_grad)
    frozen, frozen_points = _recorded(fun_grad)
    res = minimize(live, x0, h=h)
    ref = seed_minimize(frozen, x0, options, h=h)
    assert res.iterations > 5
    assert live_points == frozen_points
    assert res.x_min.tobytes() == ref.x_min.tobytes()
    assert (res.f_min, res.iterations, res.converged_by, res.gradient_norm) \
        == (ref.f_min, ref.iterations, ref.converged_by, ref.gradient_norm)

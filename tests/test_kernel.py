"""The quadrature-major assembly kernel against the frozen original kernel,
its pieces against the quadrature rule, the stress it gives at the
reference state, and the cost of one line-search trial point and of one
step."""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import kinkband.evolution as evolution
from kinkband import MaterialParams, State
from kinkband.energy import _assemble, _at_points, _field_at_points, _to_corners
from kinkband.evolution import (LoadProgram, apply_boundary_conditions,
                                initial_state, lift_state, reaction_force)
from kinkband.kinematics import SlipSystem
from kinkband.mesh import build_dofmap, build_structured_mesh
from kinkband.optimizer import minimize
from rotations import aligned_slip
from seed_kernel import seed_assemble

# axis-aligned slip systems, s along each of the four axis directions:
# every product with a component of s or m is exact, and the negated ones
# give negative components
AXIS_SLIPS = {
    "default": aligned_slip(),
    "swapped": SlipSystem(s=np.array([1.0, 0.0])),
    "negated_s": SlipSystem(s=np.array([0.0, -1.0])),
    "negated_swapped": SlipSystem(s=np.array([-1.0, 0.0])),
}
BREAKDOWN_FIELDS = ("elastic", "hardening", "slip_gradient", "penalty", "total")


def _random_inputs(mesh, rng, amp):
    n = mesh.n_nodes
    a1 = mesh.nodes[:, 0] + amp * rng.standard_normal(n)
    a2 = mesh.nodes[:, 1] + amp * rng.standard_normal(n)
    b = 0.3 * rng.standard_normal(n)
    b_prev = b - 0.1 * rng.standard_normal(n)
    return a1, a2, b, b_prev


def _both(mesh, a1, a2, b, slip, b_prev, need_grad):
    params = MaterialParams()
    gam_prev = None if b_prev is None else _field_at_points(mesh, b_prev)
    new = _assemble(mesh, np.array((a1, a2, b)), params, slip,
                    gam_prev=gam_prev, need_grad=need_grad)
    # the seed reads the row-major layout, given here as views
    row_major = SimpleNamespace(
        triangles=mesh.corners.T, basis_gradients=mesh.grads.transpose(2, 1, 0),
        element_area=mesh.element_area, n_nodes=mesh.n_nodes)
    old = seed_assemble(row_major, a1, a2, b, params, slip, b_prev=b_prev,
                        need_grad=need_grad)
    return new, old


@pytest.mark.parametrize("slip_name", sorted(AXIS_SLIPS))
@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("nx,ny", [(4, 6), (10, 18), (20, 36)])
def test_kernel_bitwise_equal_to_seed_kernel(nx, ny, with_prev, slip_name):
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    slip = AXIS_SLIPS[slip_name]
    rng = np.random.default_rng(1000 * nx + ny)
    penalty_seen = admissible_seen = False
    # amplitude 5 mm folds elements, so some points take the penalty branch
    for amp in (0.1, 1.0, 5.0):
        a1, a2, b, b_prev = _random_inputs(mesh, rng, amp)
        if not with_prev:
            b_prev = None
        for need_grad in (False, True):
            (bd, diss, grads), (bd0, diss0, grads0) = _both(
                mesh, a1, a2, b, slip, b_prev, need_grad)
            for field in BREAKDOWN_FIELDS:
                assert getattr(bd, field) == getattr(bd0, field), field
            assert diss == diss0
            if not need_grad:
                assert grads is None and grads0 is None
                continue
            for g, g0 in zip(grads, grads0):
                assert np.array_equal(g, g0)
        penalty_seen |= bd0.penalty > 0.0
        admissible_seen |= bd0.penalty == 0.0
    # the kernel skips the penalty masks when no point needs them: both
    # branches were compared
    assert penalty_seen and admissible_seen


def test_kernel_rotated_slip_matches_seed_to_rounding():
    # the seed kernel forms grad_y s, Fe m and S m by stacked matmul, which
    # fuses multiply-adds; for a rotated slip system the products are
    # inexact, so the two kernels agree to rounding, not bit for bit
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    rng = np.random.default_rng(7)
    tol = 4096 * np.finfo(float).eps
    for theta in (0.3, 1.0, 2.5):
        slip = SlipSystem(s=np.array([-np.sin(theta), np.cos(theta)]))
        for amp in (0.1, 1.0):
            a1, a2, b, b_prev = _random_inputs(mesh, rng, amp)
            (bd, diss, grads), (bd0, diss0, grads0) = _both(
                mesh, a1, a2, b, slip, b_prev, True)
            for field in BREAKDOWN_FIELDS:
                assert getattr(bd, field) == pytest.approx(
                    getattr(bd0, field), rel=tol, abs=tol)
            assert diss == pytest.approx(diss0, rel=tol)
            for g, g0 in zip(grads, grads0):
                assert np.max(np.abs(g - g0)) <= tol * np.max(np.abs(g0))


def test_negated_glide_direction_is_the_same_model():
    # -s turns m into -m, so s (x) m, Fp and Fe do not change, and a, e and
    # the frame rows of the law change sign exactly: every output is equal
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    params = MaterialParams()
    rng = np.random.default_rng(13)
    for s in ([0.0, 1.0], [-0.6, 0.8]):
        slip, flipped = SlipSystem(s=np.array(s)), SlipSystem(s=-np.array(s))
        for amp in (0.1, 1.0):
            a1, a2, b, b_prev = _random_inputs(mesh, rng, amp)
            gam_prev = _field_at_points(mesh, b_prev)
            q = np.array((a1, a2, b))
            bd, diss, grads = _assemble(mesh, q, params, slip,
                                        gam_prev=gam_prev, need_grad=True)
            bd1, diss1, grads1 = _assemble(mesh, q, params, flipped,
                                           gam_prev=gam_prev, need_grad=True)
            for field in BREAKDOWN_FIELDS:
                assert getattr(bd, field) == getattr(bd1, field), field
            assert diss == diss1
            for g, g1 in zip(grads, grads1):
                assert np.array_equal(g, g1)


@pytest.mark.parametrize("slip_name", sorted(AXIS_SLIPS))
def test_opposite_normal_is_the_kernel_at_negated_slip(slip_name):
    # the frame (s, -m), which SlipSystem no longer builds, at slip -b is
    # the kernel's frame (s, m) at b: Fp = I + (-b) s (x) (-m) is the same,
    # so the frozen seed kernel gives the same values and the b gradient
    # negated
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    slip = AXIS_SLIPS[slip_name]
    opposite = SimpleNamespace(s=slip.s, m=-slip.m)
    rng = np.random.default_rng(17)
    for amp in (0.1, 1.0, 5.0):
        a1, a2, b, b_prev = _random_inputs(mesh, rng, amp)
        (bd, diss, grads), _ = _both(mesh, a1, a2, b, slip, b_prev, True)
        _, (bd0, diss0, grads0) = _both(mesh, a1, a2, -b, opposite, -b_prev,
                                        True)
        for field in BREAKDOWN_FIELDS:
            assert getattr(bd, field) == getattr(bd0, field), field
        assert diss == diss0
        assert np.array_equal(grads[0], grads0[0])
        assert np.array_equal(grads[1], grads0[1])
        assert np.array_equal(grads[2], -grads0[2])


def test_point_and_corner_sums_are_the_rule_matmuls():
    # gamma at the points is values @ points.T, and the slip force on the
    # corners is values @ points, for the barycentric coordinates of the
    # edge midpoints: the products by the entries 0.5 and 0 are exact, so
    # two-term sums give the same bits
    points = np.array([[0.5, 0.5, 0.0],
                       [0.0, 0.5, 0.5],
                       [0.5, 0.0, 0.5]])
    rng = np.random.default_rng(3)
    for scale in (1e-300, 1e-5, 1.0, 1e5, 1e300):
        v = scale * rng.standard_normal((50, 3))
        assert np.array_equal(_at_points(v.T), (v @ points.T).T)
        assert np.array_equal(_to_corners(v.T), (v @ points).T)


def test_objective_gradient_is_the_packed_nodal_gradient():
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    dofmap = build_dofmap(mesh)
    params, slip = MaterialParams(), aligned_slip()
    rng = np.random.default_rng(11)
    a1, a2, b, b_prev = _random_inputs(mesh, rng, 0.3)
    template = State(np.array((a1, a2, b)))
    fun_grad = evolution._make_objective(mesh, dofmap, params, slip,
                                         template, b_prev)
    x = dofmap.pack(template.q)
    _, _, nodal = _assemble(mesh, template.q, params, slip,
                            gam_prev=_field_at_points(mesh, b_prev),
                            need_grad=True)
    assert np.array_equal(fun_grad(x)[1], dofmap.pack(nodal))


@pytest.mark.parametrize("nx,ny", [(4, 6), (20, 36), (34, 61)])
def test_reference_state_stress(nx, ny):
    # the first Piola stress of W at Fe = I is c I + 2 aniso m (x) m with
    # c = C (p 2^{(p-2)/2} - 2): the platen carries -c Lx, and the right
    # edge, whose normal is m, carries (c + 2 aniso) Ly
    p = MaterialParams()
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    slip = aligned_slip()
    assert np.array_equal(slip.m, [1.0, 0.0])
    state = initial_state(mesh)
    c = p.C * (p.p * 2.0 ** ((p.p - 2.0) / 2.0) - 2.0)
    _, _, grads = _assemble(mesh, state.q, p, slip,
                            need_grad=True)
    assert reaction_force(grads, mesh) == pytest.approx(-42.0 * c, rel=1e-12)
    assert -42.0 * c == pytest.approx(-9019.12, abs=0.01)
    ga1 = grads[0]
    right = mesh.nodes[:, 0] == 42.0
    assert ga1[right].sum() == pytest.approx(75.0 * (c + 2.0 * p.aniso),
                                             rel=1e-12)
    assert 75.0 * (c + 2.0 * p.aniso) == pytest.approx(31105.57, abs=0.01)


def test_each_trial_point_costs_one_assembly(monkeypatch):
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    dofmap = build_dofmap(mesh)
    params = MaterialParams()
    slip = aligned_slip()
    program = LoadProgram(speed=0.18, Ly=75.0)
    prev = initial_state(mesh)
    calls = []

    def recording(mesh_, q, *args, need_grad=False, **kwargs):
        calls.append((need_grad, q.tobytes()))
        return _assemble(mesh_, q, *args, need_grad=need_grad, **kwargs)

    monkeypatch.setattr(evolution, "_assemble", recording)
    template = apply_boundary_conditions(prev, mesh, dofmap, program, 20.0)
    fun_grad = evolution._make_objective(mesh, dofmap, params, slip,
                                         template, prev.b)
    x0 = dofmap.pack(template.q)
    res = minimize(fun_grad, x0)
    assert res.iterations > 5
    # every point the minimizer looked at was assembled once, value and
    # gradient together: the start plus at least one trial per iteration
    assert all(need_grad for need_grad, _ in calls)
    assert len({point for _, point in calls}) == len(calls)
    assert len(calls) >= res.iterations + 1

    # a whole step assembles every point once, always with its gradient,
    # on each of its paths.  Here the lifted state is stationary and
    # certified, so it is the only point: the probe, the start and the end
    # of the one minimization.  With the certificate made to fail, the lift
    # wins without an iteration after the zero-slip minimization, whose
    # start is then a second point; made to lose too, the probe is its only
    # use.  The record's energy, dissipation and reaction come from the
    # assembly at the accepted point
    lifted = lift_state(prev, mesh, program, prev.time, 20.0)
    x_lift = dofmap.pack(lifted.q)
    lift_point = dofmap.unpack(x_lift, template.q).tobytes()
    real_certified = evolution._certified
    for certified, lift_loses in ((True, False), (False, False), (False, True)):
        calls.clear()
        runs, verdicts = [], []

        def counting(*args, **kwargs):
            runs.append(minimize(*args, **kwargs))
            if lift_loses:
                runs[-1].f_min = -np.inf
            return runs[-1]

        def certificate(*args):
            verdicts.append(real_certified(*args))
            return verdicts[-1] and certified

        monkeypatch.setattr(evolution, "minimize", counting)
        monkeypatch.setattr(evolution, "_certified", certificate)
        if lift_loses:
            # the kept zero-slip result is 2e-4 N mm above the lift, which
            # the step's energy estimate rejects (tested in test_io); here
            # the estimate's slack is unbounded to reach the record of that
            # path
            monkeypatch.setattr(evolution, "ENERGY_ESTIMATE_TOL", np.inf)
        state, _ = evolution.incremental_step(prev, 20.0, mesh, dofmap, params,
                                              slip, program)
        assert verdicts == [True]
        assert all(need_grad for need_grad, _ in calls)
        points = [point for _, point in calls]
        assert len(set(points)) == len(points)
        assert points[0] == lift_point
        accepted = state.a1.tobytes() + state.a2.tobytes() + state.b.tobytes()
        assert accepted in points
        if certified:
            assert [run.iterations for run in runs] == [0]
            assert points == [lift_point] == [accepted]
        elif lift_loses:
            assert len(runs) == 1 and runs[0].iterations > 0
            assert accepted != lift_point
        else:
            assert [run.iterations for run in runs][1:] == [0]
            assert runs[0].iterations > 0 and accepted == lift_point


def test_objective_assembles_again_only_at_a_new_point(monkeypatch):
    # a copy of the latest point is served from its assembly; a point one
    # ulp away in one entry is assembled afresh
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    dofmap = build_dofmap(mesh)
    state = initial_state(mesh)
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["need_grad"])
        return _assemble(*args, **kwargs)

    monkeypatch.setattr(evolution, "_assemble", counting)
    fun_grad = evolution._make_objective(
        mesh, dofmap, MaterialParams(), aligned_slip(), state, state.b)
    x = dofmap.pack(state.q) + 0.1
    f, g = fun_grad(x)
    f_copy, g_copy = fun_grad(x.copy())
    assert calls == [True]
    assert f_copy == f and np.array_equal(g_copy, g)
    x_ulp = x.copy()
    x_ulp[7] = np.nextafter(x_ulp[7], np.inf)
    fun_grad(x_ulp)
    assert calls == [True, True]
    assert np.array_equal(fun_grad.last[0], x_ulp)
    fun_grad(x)
    assert calls == [True, True, True]


@pytest.mark.parametrize("end_on_start", [False, True])
def test_step_record_is_the_assembly_at_the_accepted_point(monkeypatch,
                                                           end_on_start):
    # the record takes the minimizer's latest assembly only at that point:
    # a result that ends elsewhere, here on the start, is assembled afresh,
    # and either way the record is bit for bit that of a fresh assembly.
    # The lifted state here is stationary and certified; with the
    # certificate made to fail, the step minimizes from zero slip first
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    dofmap = build_dofmap(mesh)
    params, slip = MaterialParams(), aligned_slip()
    program = LoadProgram(speed=0.18, Ly=75.0)
    prev = initial_state(mesh)
    lifted = lift_state(prev, mesh, program, prev.time, 20.0)
    x_lift = dofmap.pack(lifted.q)
    starts = []

    def on_start(fun_grad, x0, *args, **kwargs):
        starts.append(np.array_equal(x0, x_lift))
        res = minimize(fun_grad, x0, *args, **kwargs)
        if end_on_start:
            # f_min = -inf also keeps the lifted restart out
            res.x_min, res.f_min = x0.copy(), -np.inf
        return res

    monkeypatch.setattr(evolution, "minimize", on_start)
    if end_on_start:
        # the zero-slip start, kept when the certificate fails, is far above
        # the lift, which the step's energy estimate rejects (tested in
        # test_io); here the estimate's slack is unbounded to reach its
        # record
        monkeypatch.setattr(evolution, "ENERGY_ESTIMATE_TOL", np.inf)
    real_certified = evolution._certified
    for certified in (True, False):
        starts.clear()
        monkeypatch.setattr(evolution, "_certified", real_certified if certified
                            else (lambda *args: False))
        state, record = evolution.incremental_step(
            prev, 20.0, mesh, dofmap, params, slip, program)
        breakdown, diss, grads = _assemble(
            mesh, state.q, params, slip,
            gam_prev=_field_at_points(mesh, prev.b), need_grad=True)
        assert record.energy == breakdown
        assert record.dissipation_increment == diss
        assert record.reaction_force == reaction_force(grads, mesh)
        if certified:
            # one minimization, from the lifted state, which it does not leave
            assert starts == [True]
            assert record.optimizer_iterations == 0
        elif end_on_start:
            # the minimizer moved, so its latest point is not the start
            assert starts == [False]
            assert record.optimizer_iterations > 0
            assert not state.b.any()
        else:
            assert starts == [False, True]


def test_objective_is_freed_without_the_cycle_collector():
    # fun_grad keeps its latest assembly; a reference cycle through it would
    # keep every step's objective alive until the next collection
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    dofmap = build_dofmap(mesh)
    state = initial_state(mesh)
    fun_grad = evolution._make_objective(
        mesh, dofmap, MaterialParams(), aligned_slip(), state, state.b)
    fun_grad(dofmap.pack(state.q))
    ref = weakref.ref(fun_grad)
    gc.disable()
    try:
        del fun_grad
        assert ref() is None
    finally:
        gc.enable()

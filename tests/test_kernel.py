"""The component-array assembly kernel against the frozen original kernel,
and the cost of one line-search trial point."""

import numpy as np
import pytest

import kinkband.evolution as evolution
from kinkband import (MaterialParams, MinimizeOptions, SlipSystem,
                      build_dofmap, build_structured_mesh, initial_state,
                      minimize)
from kinkband.energy import _assemble
from kinkband.evolution import LoadProgram, apply_boundary_conditions
from seed_kernel import seed_assemble

# axis-aligned slip systems: every product with a component of s or m is exact
AXIS_SLIPS = {
    "default": SlipSystem.default(),
    "swapped": SlipSystem(s=np.array([1.0, 0.0]), m=np.array([0.0, 1.0])),
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
    new = _assemble(mesh, a1, a2, b, params, slip, b_prev=b_prev,
                    need_grad=need_grad)
    old = seed_assemble(mesh, a1, a2, b, params, slip, b_prev=b_prev,
                        need_grad=need_grad)
    return new, old


@pytest.mark.parametrize("slip_name", sorted(AXIS_SLIPS))
@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("nx,ny", [(4, 6), (10, 18)])
def test_kernel_bitwise_equal_to_seed_kernel(nx, ny, with_prev, slip_name):
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    slip = AXIS_SLIPS[slip_name]
    rng = np.random.default_rng(1000 * nx + ny)
    penalty_seen = False
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
    assert penalty_seen


def test_kernel_rotated_slip_matches_seed_to_rounding():
    # the seed kernel forms grad_y s, Fe m and S m by stacked matmul, which
    # fuses multiply-adds; for a rotated slip system the products are
    # inexact, so the two kernels agree to rounding, not bit for bit
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    rng = np.random.default_rng(7)
    tol = 4096 * np.finfo(float).eps
    for theta in (0.3, 1.0, 2.5):
        slip = SlipSystem(s=np.array([-np.sin(theta), np.cos(theta)]),
                          m=np.array([np.cos(theta), np.sin(theta)]))
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


def test_each_trial_point_costs_one_assembly(monkeypatch):
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    dofmap = build_dofmap(mesh)
    params = MaterialParams()
    slip = SlipSystem.default()
    program = LoadProgram(speed=0.18, Ly=75.0)
    prev = initial_state(mesh)
    calls = []

    def recording(mesh_, a1, a2, b, *args, need_grad=False, **kwargs):
        calls.append((need_grad, a1.tobytes() + a2.tobytes() + b.tobytes()))
        return _assemble(mesh_, a1, a2, b, *args, need_grad=need_grad, **kwargs)

    monkeypatch.setattr(evolution, "_assemble", recording)
    template = apply_boundary_conditions(prev, mesh, dofmap, program, 20.0)
    _, fun_grad = evolution._make_objective(mesh, dofmap, params, slip,
                                            template, prev.b)
    x0 = dofmap.pack(template.a1, template.a2, template.b)
    res = minimize(fun_grad, x0, MinimizeOptions())
    assert res.iterations > 5
    # every point the minimizer looked at was assembled once, value and
    # gradient together: the start plus at least one trial per iteration
    assert all(need_grad for need_grad, _ in calls)
    assert len({point for _, point in calls}) == len(calls)
    assert len(calls) >= res.iterations + 1

    # a whole step adds exactly two value-only assemblies: the lifted-state
    # probe and the post-step energy record
    calls.clear()
    evolution.incremental_step(prev, 20.0, mesh, dofmap, params, slip,
                               program, MinimizeOptions())
    value_only = [point for need_grad, point in calls if not need_grad]
    assert len(value_only) == 2
    grad_points = [point for need_grad, point in calls if need_grad]
    assert len(set(grad_points)) == len(grad_points)

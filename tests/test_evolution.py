import numpy as np
import pytest

import kinkband.evolution as evolution
from kinkband import (MaterialParams, MinimizeOptions, SimulationConfig,
                      SlipSystem, StepFailureError, build_dofmap,
                      build_structured_mesh, dissipation_increment,
                      energy_inequality_check, incremental_step, initial_state,
                      lift_state, minimize, reaction_force, run_simulation,
                      stability_check, total_energy)
from kinkband.evolution import (LoadProgram, apply_boundary_conditions,
                                _make_objective)
from kinkband.mesh import BOTTOM, INTERIOR, LEFT, RIGHT, TOP


@pytest.fixture(scope="module")
def small_problem():
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    dofmap = build_dofmap(mesh)
    params = MaterialParams()
    slip = SlipSystem.default()
    program = LoadProgram(speed=0.18, Ly=75.0)
    options = MinimizeOptions()
    return mesh, dofmap, params, slip, program, options


@pytest.fixture(scope="session")
def run_10x18_k76():
    config = SimulationConfig(nx=10, ny=18, K=76)
    records, states = run_simulation(config)
    return config, records, states


# ---------------------------------------------------------------------------
# boundary program


def _assert_prescribed(out, mesh, dofmap, program, t):
    """Every fixed entry of ``out`` holds its prescribed value exactly, and
    the fixed entries are the complement of ``dofmap.free``."""
    tags = mesh.boundary_tags
    fixed_a1 = tags != INTERIOR
    bottom, top = tags == BOTTOM, tags == TOP
    assert (out.a1[fixed_a1] == mesh.nodes[fixed_a1, 0]).all()
    assert (out.a2[bottom] == 0.0).all()
    assert (out.a2[top] == program.Ly - program.speed * t).all()
    fixed = np.concatenate((fixed_a1, bottom | top,
                            np.zeros(mesh.n_nodes, dtype=bool)))
    assert (np.flatnonzero(~fixed) == dofmap.free).all()


def test_apply_bc_identity_at_t0(small_problem):
    mesh, dofmap, _, _, program, _ = small_problem
    st = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                   program, 0.0)
    np.testing.assert_allclose(st.a1, mesh.nodes[:, 0])
    np.testing.assert_allclose(st.a2, mesh.nodes[:, 1])
    _assert_prescribed(st, mesh, dofmap, program, 0.0)


def test_apply_bc_platen_schedule(small_problem):
    mesh, dofmap, _, _, program, _ = small_problem
    st = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                   program, 100.0)
    top = mesh.boundary_tags == TOP
    np.testing.assert_allclose(st.a2[top], 57.0)
    _assert_prescribed(st, mesh, dofmap, program, 100.0)
    st = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                   program, 66.7)
    # 12 mm of platen travel
    assert abs(st.a2[top][0] - 63.0) < 0.01
    _assert_prescribed(st, mesh, dofmap, program, 66.7)


def test_apply_bc_leaves_free_entries(small_problem):
    mesh, dofmap, _, _, program, _ = small_problem
    # random fixed entries too, so each one must be overwritten
    rng = np.random.default_rng(50)
    st = evolution.State(*rng.standard_normal((3, mesh.n_nodes)))
    out = apply_boundary_conditions(st, mesh, dofmap, program, 42.0)
    assert (dofmap.pack(out.a1, out.a2, out.b)
            == dofmap.pack(st.a1, st.a2, st.b)).all()
    assert (out.b == st.b).all()
    _assert_prescribed(out, mesh, dofmap, program, 42.0)
    kept = (np.concatenate((out.a1, out.a2, out.b))
            == np.concatenate((st.a1, st.a2, st.b)))
    assert (np.flatnonzero(kept) == dofmap.free).all()
    lateral = (mesh.boundary_tags == LEFT) | (mesh.boundary_tags == RIGHT)
    assert (out.a2[lateral] == st.a2[lateral]).all()
    np.testing.assert_allclose(out.a1[lateral], mesh.nodes[lateral, 0])


def test_load_program_starts_at_ly():
    program = LoadProgram(speed=0.18, Ly=75.0)
    assert program.top_displacement(0.0) == 75.0


def test_lift_state_admissible(small_problem):
    mesh, dofmap, _, _, program, _ = small_problem
    st = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                   program, 10.0)
    lifted = lift_state(st, mesh, program, 10.0, 25.0)
    top = mesh.boundary_tags == TOP
    bottom = mesh.boundary_tags == BOTTOM
    np.testing.assert_allclose(lifted.a2[top], program.top_displacement(25.0))
    np.testing.assert_allclose(lifted.a2[bottom], st.a2[bottom])
    assert (lifted.a1 == st.a1).all()
    assert (lifted.b == st.b).all()


# ---------------------------------------------------------------------------
# incremental stepping


def test_zero_load_step_is_trivial(small_problem):
    mesh, dofmap, params, slip, _, options = small_problem
    program = LoadProgram(speed=0.0, Ly=75.0)
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 1.0, mesh, dofmap, params, slip,
                                  program, options)
    np.testing.assert_allclose(state.a1, prev.a1, atol=1e-10)
    np.testing.assert_allclose(state.a2, prev.a2, atol=1e-10)
    assert np.max(np.abs(state.b)) < 1e-10
    floor = params.sigma * params.delta * mesh.total_area
    assert rec.dissipation_increment == pytest.approx(floor, rel=1e-10)


def test_step_satisfies_boundary_program(small_problem):
    mesh, dofmap, params, slip, program, options = small_problem
    prev = initial_state(mesh)
    state, _ = incremental_step(prev, 20.0, mesh, dofmap, params, slip,
                                program, options)
    top = mesh.boundary_tags == TOP
    bottom = mesh.boundary_tags == BOTTOM
    np.testing.assert_allclose(state.a2[top], program.top_displacement(20.0))
    np.testing.assert_allclose(state.a2[bottom], mesh.nodes[bottom, 1])
    assert state.time == 20.0


def _minimize_subset(fun_grad, x_full, idx, options):
    """Minimize over a subset of coordinates, complement held fixed."""
    base = x_full.copy()

    def fgs(xs):
        base[idx] = xs
        f, g = fun_grad(base)
        return f, g[idx]

    res = minimize(fgs, x_full[idx], options)
    out = x_full.copy()
    out[idx] = res.x_min
    return out, res


def test_slip_suppressed_matches_elastic_minimization(small_problem):
    mesh, dofmap, params, slip, program, options = small_problem
    stiff = MaterialParams(sigma=params.sigma * 1e6)
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 10.0, mesh, dofmap, stiff, slip,
                                  program, options)
    assert np.max(np.abs(state.b)) < 1e-6

    # oracle: minimize over the elastic blocks only, slip frozen at zero
    template = apply_boundary_conditions(prev, mesh, dofmap, program, 10.0)
    template.b = np.zeros(mesh.n_nodes)
    _, fun_grad = _make_objective(mesh, dofmap, stiff, slip, template, prev.b)
    x0 = dofmap.pack(template.a1, template.a2, template.b)
    idx_a = np.flatnonzero(dofmap.free < 2 * mesh.n_nodes)
    _, res = _minimize_subset(fun_grad, x0, idx_a, options)
    assert rec.energy.total + rec.dissipation_increment \
        <= res.f_min + options.tol_fun
    # the curvature scale on the slip DOFs: 1,344 iterations without it
    assert rec.optimizer_iterations < 1344 / 10


# ---------------------------------------------------------------------------
# reaction force


def test_reaction_force_at_identity(small_problem):
    # For p > 2 the growth term leaves a residual stress at the reference
    # configuration, so the platen reaction at identity is the closed-form
    # prestress pull C (p 2^{(p-2)/2} - 2) Lx, not zero; the anisotropy term
    # contributes no vertical gradient there.
    mesh, _, params, slip, _, _ = small_problem
    st = initial_state(mesh)
    force = reaction_force(st, mesh, params, slip)
    prestress = params.C * (params.p * 2.0 ** (params.p / 2.0 - 1.0) - 2.0)
    assert force == pytest.approx(-prestress * mesh.Lx, rel=1e-12)
    assert force == pytest.approx(_fd_platen_force(st, mesh, params, slip),
                                  rel=1e-6)
    no_aniso = MaterialParams()
    no_aniso.aniso = 1e-300
    assert reaction_force(st, mesh, no_aniso, slip) == pytest.approx(force,
                                                                     rel=1e-12)


def _fd_platen_force(state, mesh, params, slip, h=1e-6):
    """Centered difference of stored energy under a rigid top-row shift."""
    top = mesh.boundary_tags == TOP
    up = state.copy()
    up.a2 = up.a2 + h * top
    down = state.copy()
    down.a2 = down.a2 - h * top
    e_up = total_energy(up, mesh, params, slip).total
    e_down = total_energy(down, mesh, params, slip).total
    # platen travel is downward, so the conjugate force flips sign
    return -(e_up - e_down) / (2.0 * h)


def test_reaction_force_matches_fd_small_compression(small_problem):
    mesh, _, params, slip, _, _ = small_problem
    st = initial_state(mesh)
    st.a2 = 0.999 * st.a2          # 0.1% uniform compression
    force = reaction_force(st, mesh, params, slip)
    fd = _fd_platen_force(st, mesh, params, slip)
    assert force == pytest.approx(fd, rel=1e-3)


def test_reaction_force_positive_beyond_natural_stretch(small_problem):
    # the growth exponent leaves a tensile bias at identity, so compression
    # reads positive only past the self-equilibrated stretch
    mesh, dofmap, params, slip, program, options = small_problem
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 50.0, mesh, dofmap, params, slip,
                                  program, options)
    assert rec.reaction_force > 0
    fd = _fd_platen_force(state, mesh, params, slip)
    assert rec.reaction_force == pytest.approx(fd, rel=1e-3)


def test_post_kink_force_drop(run_10x18_k76):
    _, records, _ = run_10x18_k76
    F = np.array([r.reaction_force for r in records])
    onset = next(i for i, r in enumerate(records) if r.max_abs_gamma > 0.01)
    assert F[onset] < F[onset - 1]


# ---------------------------------------------------------------------------
# diagnostics


def test_stability_state_itself(small_problem):
    mesh, dofmap, params, slip, program, options = small_problem
    prev = initial_state(mesh)
    state, _ = incremental_step(prev, 10.0, mesh, dofmap, params, slip,
                                program, options)
    v = stability_check(state, 10.0, mesh, dofmap, params, slip, program,
                        n_competitors=0)
    floor = params.sigma * params.delta * mesh.total_area
    assert v == pytest.approx(-floor, rel=1e-6)


def test_stability_after_converged_step(small_problem):
    mesh, dofmap, params, slip, program, options = small_problem
    prev = initial_state(mesh)
    state, _ = incremental_step(prev, 40.0, mesh, dofmap, params, slip,
                                program, options)
    v = stability_check(state, 40.0, mesh, dofmap, params, slip, program,
                        n_competitors=100, prev_state=prev,
                        rng=np.random.default_rng(51))
    assert v <= options.tol_fun


def test_stability_negative_control(small_problem):
    # one optimizer iteration from the raw boundary-updated start leaves a
    # visibly unstable state; the check must flag it
    mesh, dofmap, params, slip, program, _ = small_problem
    prev = initial_state(mesh)
    template = apply_boundary_conditions(prev, mesh, dofmap, program, 40.0)
    _, fun_grad = _make_objective(mesh, dofmap, params, slip, template, prev.b)
    x0 = dofmap.pack(template.a1, template.a2, template.b)
    options = MinimizeOptions(max_iters=1)
    res = minimize(fun_grad, x0, options)
    a1, a2, b = dofmap.unpack(res.x_min, template.a1, template.a2, template.b)
    state = evolution.State(a1=a1, a2=a2, b=b, time=40.0)
    v = stability_check(state, 40.0, mesh, dofmap, params, slip, program,
                        n_competitors=50, prev_state=prev,
                        rng=np.random.default_rng(52))
    assert v > 0


def test_energy_inequality_zero_load(small_problem):
    mesh, dofmap, params, slip, _, options = small_problem
    program = LoadProgram(speed=0.0, Ly=75.0)
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 1.0, mesh, dofmap, params, slip,
                                  program, options)
    lifted = lift_state(prev, mesh, program, 0.0, 1.0)
    le = total_energy(lifted, mesh, params, slip).total
    lower_ok, upper_ok = energy_inequality_check(rec, None, le, params,
                                                 mesh.total_area)
    assert lower_ok and upper_ok
    # equality holds up to the smoothing floor
    floor = params.sigma * params.delta * mesh.total_area
    slack = le + floor - rec.energy.total - rec.dissipation_increment
    assert abs(slack) < 1e-6


def test_energy_inequality_negative_control(small_problem):
    mesh, dofmap, params, slip, program, options = small_problem
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 10.0, mesh, dofmap, params, slip,
                                  program, options)
    lifted = lift_state(prev, mesh, program, 0.0, 10.0)
    le = total_energy(lifted, mesh, params, slip).total
    corrupted = evolution.StepRecord(
        k=rec.k, time=rec.time,
        energy=evolution.EnergyBreakdown(
            elastic=rec.energy.elastic, hardening=rec.energy.hardening,
            slip_gradient=rec.energy.slip_gradient, penalty=rec.energy.penalty,
            total=rec.energy.total * 1.1),
        dissipation_increment=rec.dissipation_increment,
        cumulative_dissipation=rec.cumulative_dissipation,
        reaction_force=rec.reaction_force,
        top_displacement=rec.top_displacement,
        max_abs_gamma=rec.max_abs_gamma, min_det_Fe=rec.min_det_Fe,
        optimizer_iterations=rec.optimizer_iterations)
    _, upper_ok = energy_inequality_check(corrupted, None, le, params,
                                          mesh.total_area)
    assert not upper_ok


# ---------------------------------------------------------------------------
# full runs


def test_single_step_zero_load_run():
    config = SimulationConfig(nx=2, ny=3, K=1, speed=0.0, T=1.0)
    records, states = run_simulation(config)
    assert len(records) == 1
    assert len(states) == 2
    assert records[0].max_abs_gamma < 1e-10
    # state untouched: the platen reaction is the reference prestress pull
    material = config.material
    prestress = material.C * (material.p * 2.0 ** (material.p / 2.0 - 1.0) - 2.0)
    assert records[0].reaction_force == pytest.approx(-prestress * config.Lx,
                                                      rel=1e-10)
    np.testing.assert_allclose(states[1].a2, states[0].a2, atol=1e-12)


def test_cumulative_dissipation_bookkeeping(run_10x18_k20, params):
    # cumulative variation uses the raw distance, so each step adds at most
    # the smoothed increment and at least the increment minus its floor
    config, records, _ = run_10x18_k20
    mesh = build_structured_mesh(config.Lx, config.Ly, config.nx, config.ny)
    floor = params.sigma * params.delta * mesh.total_area
    cums = np.array([r.cumulative_dissipation for r in records])
    incs = np.array([r.dissipation_increment for r in records])
    var_incs = np.diff(np.concatenate([[0.0], cums]))
    assert (var_incs >= -1e-15).all()
    assert (var_incs <= incs + 1e-12).all()
    assert (incs <= var_incs + floor + 1e-12).all()


def test_dissipation_increment_consistency(run_10x18_k20, params, slip):
    config, records, states = run_10x18_k20
    mesh = build_structured_mesh(config.Lx, config.Ly, config.nx, config.ny)
    raw = MaterialParams()
    raw.delta = 0.0
    cum = 0.0
    for k in range(1, len(records) + 1):
        d = dissipation_increment(states[k - 1].b, states[k].b, mesh, params)
        assert records[k - 1].dissipation_increment == pytest.approx(d, rel=1e-12)
        cum += dissipation_increment(states[k - 1].b, states[k].b, mesh, raw)
        assert records[k - 1].cumulative_dissipation == pytest.approx(
            cum, rel=1e-10, abs=1e-15)


def test_rate_independence_probe():
    base = dict(nx=4, ny=6)
    r1, _ = run_simulation(SimulationConfig(K=10, **base))
    r2, _ = run_simulation(SimulationConfig(K=20, **base))
    d1 = r1[-1].cumulative_dissipation
    d2 = r2[-1].cumulative_dissipation
    assert abs(d1 - d2) <= 0.05 * max(d1, d2) + 1e-12


def test_step_failure_retry_and_partial_results(monkeypatch):
    config = SimulationConfig(nx=2, ny=3, K=4)
    real_step = evolution.incremental_step
    calls = {"n": 0}

    def flaky(prev, t_next, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:                     # first attempt of step 2
            raise StepFailureError("injected failure")
        return real_step(prev, t_next, *args, **kwargs)

    monkeypatch.setattr(evolution, "incremental_step", flaky)
    records, states = evolution.run_simulation(config)
    assert len(records) == config.K             # recovered via midpoint retry

    calls["n"] = 0

    def always_fail(prev, t_next, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise StepFailureError("injected failure")
        return real_step(prev, t_next, *args, **kwargs)

    monkeypatch.setattr(evolution, "incremental_step", always_fail)
    with pytest.raises(StepFailureError) as excinfo:
        evolution.run_simulation(config)
    assert len(excinfo.value.records) == 2      # two good steps preserved
    assert len(excinfo.value.states) == 3

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import kinkband.evolution as evolution
from kinkband import (MaterialParams, SimulationConfig, StepFailureError,
                      optimizer, run_simulation)
from kinkband.energy import (_assemble, _field_at_points,
                             dissipation_increment, total_energy)
from kinkband.evolution import (LoadProgram, _make_objective, _min_det,
                                apply_boundary_conditions, incremental_step,
                                initial_state, lift_state, reaction_force)
from kinkband.mesh import (BOTTOM, INTERIOR, LATERAL, TOP, build_dofmap,
                           build_structured_mesh)
from kinkband.optimizer import minimize
from oracles import energy_inequality_check, stability_check
from rotations import aligned_slip


@pytest.fixture(scope="module")
def small_problem():
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    dofmap = build_dofmap(mesh)
    params = MaterialParams()
    slip = aligned_slip()
    program = LoadProgram(speed=0.18, Ly=75.0)
    return mesh, dofmap, params, slip, program


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
    mesh, dofmap, _, _, program = small_problem
    st = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                   program, 0.0)
    np.testing.assert_allclose(st.a1, mesh.nodes[:, 0])
    np.testing.assert_allclose(st.a2, mesh.nodes[:, 1])
    _assert_prescribed(st, mesh, dofmap, program, 0.0)


def test_apply_bc_platen_schedule(small_problem):
    mesh, dofmap, _, _, program = small_problem
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
    mesh, dofmap, _, _, program = small_problem
    # random fixed entries too, so each one must be overwritten
    rng = np.random.default_rng(50)
    st = evolution.State(rng.standard_normal((3, mesh.n_nodes)))
    out = apply_boundary_conditions(st, mesh, dofmap, program, 42.0)
    assert (dofmap.pack(out.q) == dofmap.pack(st.q)).all()
    assert (out.b == st.b).all()
    _assert_prescribed(out, mesh, dofmap, program, 42.0)
    kept = (np.concatenate((out.a1, out.a2, out.b))
            == np.concatenate((st.a1, st.a2, st.b)))
    assert (np.flatnonzero(kept) == dofmap.free).all()
    lateral = mesh.boundary_tags == LATERAL
    assert (out.a2[lateral] == st.a2[lateral]).all()
    np.testing.assert_allclose(out.a1[lateral], mesh.nodes[lateral, 0])


def test_load_program_starts_at_ly():
    program = LoadProgram(speed=0.18, Ly=75.0)
    assert program.top_displacement(0.0) == 75.0


def test_lift_state_admissible(small_problem):
    mesh, dofmap, _, _, program = small_problem
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
    mesh, dofmap, params, slip, _ = small_problem
    program = LoadProgram(speed=0.0, Ly=75.0)
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 1.0, mesh, dofmap, params, slip,
                                  program)
    np.testing.assert_allclose(state.a1, prev.a1, atol=1e-10)
    np.testing.assert_allclose(state.a2, prev.a2, atol=1e-10)
    assert np.max(np.abs(state.b)) < 1e-10
    floor = params.sigma * params.delta * mesh.total_area
    assert rec.dissipation_increment == pytest.approx(floor, rel=1e-10)


def test_step_satisfies_boundary_program(small_problem):
    mesh, dofmap, params, slip, program = small_problem
    prev = initial_state(mesh)
    state, _ = incremental_step(prev, 20.0, mesh, dofmap, params, slip,
                                program)
    top = mesh.boundary_tags == TOP
    bottom = mesh.boundary_tags == BOTTOM
    np.testing.assert_allclose(state.a2[top], program.top_displacement(20.0))
    np.testing.assert_allclose(state.a2[bottom], mesh.nodes[bottom, 1])
    assert state.time == 20.0


def _minimize_subset(fun_grad, x_full, idx):
    """Minimize over a subset of coordinates, complement held fixed."""
    base = x_full.copy()

    def fgs(xs):
        base[idx] = xs
        f, g = fun_grad(base)
        return f, g[idx]

    res = minimize(fgs, x_full[idx])
    out = x_full.copy()
    out[idx] = res.x_min
    return out, res


def test_slip_suppressed_matches_elastic_minimization(small_problem):
    mesh, dofmap, params, slip, program = small_problem
    stiff = MaterialParams(sigma=params.sigma * 1e6)
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 10.0, mesh, dofmap, stiff, slip,
                                  program)
    assert np.max(np.abs(state.b)) < 1e-6

    # oracle: minimize over the elastic blocks only, slip frozen at zero
    template = apply_boundary_conditions(prev, mesh, dofmap, program, 10.0)
    template.q[2] = np.zeros(mesh.n_nodes)
    fun_grad = _make_objective(mesh, dofmap, stiff, slip, template, prev.b)
    x0 = dofmap.pack(template.q)
    idx_a = np.flatnonzero(dofmap.free < 2 * mesh.n_nodes)
    _, res = _minimize_subset(fun_grad, x0, idx_a)
    assert rec.energy.total + rec.dissipation_increment \
        <= res.f_min + optimizer.TOL_FUN
    # the curvature scale on the slip DOFs: 1,344 iterations without it
    assert rec.optimizer_iterations < 1344 / 10


# ---------------------------------------------------------------------------
# reaction force


def _platen_force(state, mesh, params, slip):
    """The reaction of a state from its own gradient assembly."""
    _, _, grads = _assemble(mesh, state.q, params, slip, need_grad=True)
    return reaction_force(grads, mesh)


def test_reaction_force_at_identity(small_problem):
    # For p > 2 the growth term leaves a residual stress at the reference
    # configuration, so the platen reaction at identity is the closed-form
    # prestress pull C (p 2^{(p-2)/2} - 2) Lx, not zero; the anisotropy term
    # contributes no vertical gradient there.
    mesh, _, params, slip, _ = small_problem
    st = initial_state(mesh)
    force = _platen_force(st, mesh, params, slip)
    prestress = params.C * (params.p * 2.0 ** (params.p / 2.0 - 1.0) - 2.0)
    assert force == pytest.approx(-prestress * mesh.Lx, rel=1e-12)
    assert force == pytest.approx(_fd_platen_force(st, mesh, params, slip),
                                  rel=1e-6)
    no_aniso = MaterialParams()
    no_aniso.aniso = 1e-300
    assert _platen_force(st, mesh, no_aniso, slip) == pytest.approx(force,
                                                                    rel=1e-12)


def _fd_platen_force(state, mesh, params, slip, h=1e-6):
    """Centered difference of stored energy under a rigid top-row shift."""
    top = mesh.boundary_tags == TOP
    up = evolution.State(state.q.copy(), state.time)
    up.q[1] = up.a2 + h * top
    down = evolution.State(state.q.copy(), state.time)
    down.q[1] = down.a2 - h * top
    e_up = total_energy(up, mesh, params, slip).total
    e_down = total_energy(down, mesh, params, slip).total
    # platen travel is downward, so the conjugate force flips sign
    return -(e_up - e_down) / (2.0 * h)


def test_reaction_force_matches_fd_small_compression(small_problem):
    mesh, _, params, slip, _ = small_problem
    st = initial_state(mesh)
    st.q[1] = 0.999 * st.a2        # 0.1% uniform compression
    force = _platen_force(st, mesh, params, slip)
    fd = _fd_platen_force(st, mesh, params, slip)
    assert force == pytest.approx(fd, rel=1e-3)


def test_reaction_force_positive_beyond_natural_stretch(small_problem):
    # the growth exponent leaves a tensile bias at identity, so compression
    # reads positive only past the self-equilibrated stretch
    mesh, dofmap, params, slip, program = small_problem
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 50.0, mesh, dofmap, params, slip,
                                  program)
    assert rec.reaction_force > 0
    fd = _fd_platen_force(state, mesh, params, slip)
    assert rec.reaction_force == pytest.approx(fd, rel=1e-3)


def test_post_kink_force_drop(run_10x18_k76):
    _, records, _ = run_10x18_k76
    F = np.array([r.reaction_force for r in records])
    onset = next(i for i, r in enumerate(records) if r.max_abs_gamma > 0.01)
    assert F[onset] < F[onset - 1]


def test_record_is_the_accepted_state(run_10x18_k76):
    # the record of each step, taken from the one post-step assembly with
    # the dissipation, equals bit for bit what separate evaluations of the
    # returned state give, before and after the kink
    config, records, states = run_10x18_k76
    mesh, _, params, slip, _ = evolution.build_problem(config)
    assert any(r.max_abs_gamma > 0.01 for r in records)
    for rec, prev, state in zip(records, states, states[1:]):
        energy = total_energy(state, mesh, params, slip)
        for field in ("elastic", "hardening", "slip_gradient", "penalty",
                      "total"):
            assert getattr(rec.energy, field) == getattr(energy, field), field
        _, diss, _ = _assemble(mesh, state.q, params, slip,
                               gam_prev=_field_at_points(mesh, prev.b))
        assert rec.dissipation_increment == diss
        assert rec.reaction_force == _platen_force(state, mesh, params, slip)
        assert rec.min_det_Fe == _min_det(mesh, state.q)


# ---------------------------------------------------------------------------
# diagnostics


def test_stability_state_itself(small_problem):
    mesh, dofmap, params, slip, program = small_problem
    prev = initial_state(mesh)
    state, _ = incremental_step(prev, 10.0, mesh, dofmap, params, slip,
                                program)
    v = stability_check(state, 10.0, mesh, dofmap, params, slip, program,
                        n_competitors=0)
    floor = params.sigma * params.delta * mesh.total_area
    assert v == pytest.approx(-floor, rel=1e-6)


def test_stability_after_converged_step(small_problem):
    mesh, dofmap, params, slip, program = small_problem
    prev = initial_state(mesh)
    state, _ = incremental_step(prev, 40.0, mesh, dofmap, params, slip,
                                program)
    v = stability_check(state, 40.0, mesh, dofmap, params, slip, program,
                        n_competitors=100, prev_state=prev,
                        rng=np.random.default_rng(51))
    assert v <= optimizer.TOL_FUN


def test_stability_negative_control(monkeypatch, small_problem):
    # one optimizer iteration from the raw boundary-updated start leaves a
    # visibly unstable state; the check must flag it
    mesh, dofmap, params, slip, program = small_problem
    prev = initial_state(mesh)
    template = apply_boundary_conditions(prev, mesh, dofmap, program, 40.0)
    fun_grad = _make_objective(mesh, dofmap, params, slip, template, prev.b)
    x0 = dofmap.pack(template.q)
    monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
    res = minimize(fun_grad, x0)
    state = evolution.State(dofmap.unpack(res.x_min, template.q), time=40.0)
    v = stability_check(state, 40.0, mesh, dofmap, params, slip, program,
                        n_competitors=50, prev_state=prev,
                        rng=np.random.default_rng(52))
    assert v > 0


def test_energy_inequality_zero_load(small_problem):
    mesh, dofmap, params, slip, _ = small_problem
    program = LoadProgram(speed=0.0, Ly=75.0)
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 1.0, mesh, dofmap, params, slip,
                                  program)
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
    mesh, dofmap, params, slip, program = small_problem
    prev = initial_state(mesh)
    state, rec = incremental_step(prev, 10.0, mesh, dofmap, params, slip,
                                  program)
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


def test_step_energy_estimate_boundary(monkeypatch, small_problem):
    # a minimizing step from a bumped state, whose slack s = I(lift) +
    # sigma delta |Omega| - (I + D) is far from 0: the step's own estimate
    # rejects it with a tolerance just below -s and accepts it just above
    mesh, dofmap, params, slip, program = small_problem
    prev = initial_state(mesh)
    x, y = mesh.nodes.T
    prev.q[0] = prev.a1 + 0.5 * np.sin(np.pi * x / mesh.Lx) * np.sin(
        np.pi * y / mesh.Ly)
    _, rec = incremental_step(prev, 10.0, mesh, dofmap, params, slip, program)
    assert rec.optimizer_iterations > 0
    lifted = lift_state(prev, mesh, program, 0.0, 10.0)
    le = total_energy(lifted, mesh, params, slip).total
    floor = params.sigma * params.delta * mesh.total_area
    slack = le + floor - (rec.energy.total + rec.dissipation_increment)
    assert slack > 1.0
    monkeypatch.setattr(evolution, "ENERGY_ESTIMATE_TOL", -slack - 1e-9)
    with pytest.raises(StepFailureError, match="energy upper estimate"):
        incremental_step(prev, 10.0, mesh, dofmap, params, slip, program)
    monkeypatch.setattr(evolution, "ENERGY_ESTIMATE_TOL", -slack + 1e-9)
    _, accepted = incremental_step(prev, 10.0, mesh, dofmap, params, slip,
                                   program)
    assert accepted == rec


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


def test_step_failure_keeps_partial_results(monkeypatch):
    config = SimulationConfig(nx=2, ny=3, K=4)
    real_step = evolution.incremental_step
    calls = {"n": 0}

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


# ---------------------------------------------------------------------------
# certified steps


def test_certified_steps_keep_the_states_of_the_compared_starts(
        monkeypatch, run_10x18_k20):
    # a certified step keeps the lifted state without the zero-slip
    # minimization; that minimization, run when the certificate fails, loses
    # to the lift in the same steps, so the two runs differ only in the
    # iteration counts.  On 10x18 the stored energy of the homogeneous state
    # loses stability at step 9.6, and step 10 is the first that slips
    config, records, states = run_10x18_k20
    monkeypatch.setattr(evolution, "_certified", lambda *args: False)
    compared, compared_states = run_simulation(config)
    assert len(compared) == len(records) == 20
    for state, other in zip(states, compared_states):
        for field in ("a1", "a2", "b"):
            assert np.array_equal(getattr(state, field), getattr(other, field))
        assert state.time == other.time
    for rec, other in zip(records, compared):
        assert dataclasses.replace(rec, optimizer_iterations=0) \
            == dataclasses.replace(other, optimizer_iterations=0)
    iterations = [rec.optimizer_iterations for rec in records]
    assert iterations[:9] == [0] * 9 and iterations[9] > 0
    assert all(rec.optimizer_iterations > 0 for rec in compared)
    assert [rec.max_abs_gamma for rec in records[:9]] == [0.0] * 9


def test_certified_prefix_does_not_depend_on_delta():
    # the certificate tests the stored energy alone, which has no delta: on
    # the 10x18 K=20 program steps 1 to 9 keep the lifted state, bit for
    # bit the same for every delta, and step 10 minimizes.  The times are
    # those of the full program, not of a load.K prefix, which can differ
    # from them in the last bit
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    dofmap = build_dofmap(mesh)
    slip = aligned_slip()
    program = LoadProgram(speed=0.18, Ly=75.0)
    kept = None
    for delta in (1e-4, 1e-5, 1e-6):
        params = MaterialParams(delta=delta)
        state, states, iterations = initial_state(mesh), [], []
        for t in np.linspace(0.0, 100.0, 21)[1:11]:
            lifted = lift_state(state, mesh, program, state.time, float(t))
            state, rec = incremental_step(state, float(t), mesh, dofmap,
                                          params, slip, program)
            iterations.append(rec.optimizer_iterations)
            states.append(b"".join(getattr(state, f).tobytes()
                                   for f in ("a1", "a2", "b")))
            if len(states) < 10:
                assert states[-1] == b"".join(getattr(lifted, f).tobytes()
                                              for f in ("a1", "a2", "b"))
                assert rec.max_abs_gamma == 0.0
        assert iterations[:9] == [0] * 9 and iterations[9] > 0, delta
        kept = kept or states[:9]
        assert states[:9] == kept, delta


def test_a_run_imports_no_scipy():
    # the certificate is numpy only and the start-up check's probe is a
    # fixed formula: a tiny run whose first step is certified (0 iterations)
    # must load neither scipy nor numpy.random
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import sys\n"
            "from kinkband import SimulationConfig, run_simulation\n"
            "records, _ = run_simulation(SimulationConfig(nx=3, ny=4, K=2, T=2.0))\n"
            "assert records[0].optimizer_iterations == 0, records[0]\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] == 'scipy' or m.startswith('numpy.random'))\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_lift_with_a_penalty_point_is_not_kept_unminimized(monkeypatch,
                                                             small_problem):
    # the lift at t = 20 s is stationary and certified, so the step keeps it
    # with one minimization that does not move; reported with a penalty
    # point (injected into its assembly's breakdown alone), it is only one
    # of the two compared starts, and as the step ends there, the accepted
    # state has penalty energy and the step is rejected
    mesh, dofmap, params, slip, program = small_problem
    prev = initial_state(mesh)
    lifted = lift_state(prev, mesh, program, 0.0, 20.0)
    template = apply_boundary_conditions(prev, mesh, dofmap, program, 20.0)
    lift_point = dofmap.unpack(dofmap.pack(lifted.q), template.q)
    for penalized in (False, True):
        starts = []

        def assemble(mesh_, q, *args, **kwargs):
            out = _assemble(mesh_, q, *args, **kwargs)
            if penalized and np.array_equal(q, lift_point):
                out = (dataclasses.replace(out[0], penalty=1.0),) + out[1:]
            return out

        def recording(fun_grad, x0, *args, **kwargs):
            starts.append(x0.copy())
            return minimize(fun_grad, x0, *args, **kwargs)

        monkeypatch.setattr(evolution, "_assemble", assemble)
        monkeypatch.setattr(evolution, "minimize", recording)
        if penalized:
            with pytest.raises(StepFailureError, match="penalty energy"):
                incremental_step(prev, 20.0, mesh, dofmap, params, slip,
                                 program)
            assert len(starts) == 2
            assert np.array_equal(starts[1], dofmap.pack(lifted.q))
            continue
        state, record = incremental_step(prev, 20.0, mesh, dofmap, params,
                                         slip, program)
        assert len(starts) == 1
        assert np.array_equal(state.q,
                              lift_point)
        assert record.optimizer_iterations == 0


def test_every_step_minimizes_and_a_certified_step_once_unmoved(monkeypatch):
    # the benchmark's step table reads each step's first minimization: every
    # step makes one, and a certified step exactly one, of 0 iterations, from
    # the lifted state.  Steps 1 to 9 of the 10x18 K=20 program are
    # certified, step 10 is not
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    dofmap = build_dofmap(mesh)
    params, slip = MaterialParams(), aligned_slip()
    program = LoadProgram(speed=0.18, Ly=75.0)
    calls, verdicts = [], []
    real_certified = evolution._certified

    def recording(fun_grad, x0, *args, **kwargs):
        res = minimize(fun_grad, x0, *args, **kwargs)
        calls[-1].append((x0.copy(), res.iterations))
        return res

    def certified(*args):
        verdicts[-1] = real_certified(*args)
        return verdicts[-1]

    monkeypatch.setattr(evolution, "minimize", recording)
    monkeypatch.setattr(evolution, "_certified", certified)
    state = initial_state(mesh)
    for k, t in enumerate(np.linspace(0.0, 100.0, 21)[1:11], start=1):
        lifted = lift_state(state, mesh, program, state.time, float(t))
        calls.append([])
        verdicts.append(False)
        state, rec = incremental_step(state, float(t), mesh, dofmap, params,
                                      slip, program, k=k)
        assert len(calls[-1]) >= 1, k
        assert rec.optimizer_iterations == sum(n for _, n in calls[-1])
        if verdicts[-1]:
            (x0, iterations), = calls[-1]
            assert iterations == 0, k
            assert np.array_equal(x0, dofmap.pack(lifted.q))
    assert verdicts == [True] * 9 + [False]


def test_a_certified_step_computes_no_curvature_scale(monkeypatch):
    # only a minimization that moves reads the scale: steps 1 to 9 of the
    # 10x18 K=20 program are certified and compute none, step 10 one
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    dofmap = build_dofmap(mesh)
    params, slip = MaterialParams(), aligned_slip()
    program = LoadProgram(speed=0.18, Ly=75.0)
    scales = []
    real_scale = evolution.curvature_scale

    def counting(*args):
        scales[-1] += 1
        return real_scale(*args)

    monkeypatch.setattr(evolution, "curvature_scale", counting)
    state = initial_state(mesh)
    for t in np.linspace(0.0, 100.0, 21)[1:11]:
        scales.append(0)
        state, _ = incremental_step(state, float(t), mesh, dofmap, params,
                                    slip, program)
    assert scales == [0] * 9 + [1]

"""Acceptance suite: each test prints one pass/fail line (run pytest -s).

The long compression runs are shared module fixtures; budgets are asserted
with wide margins on a desktop-class machine.
"""

import time

import numpy as np
import pytest

from kinkband import (MaterialParams, SimulationConfig, SlipSystem,
                      build_dofmap, build_structured_mesh,
                      dissipation_increment, elastic_density,
                      elastic_strain, energy_inequality_check, initial_state,
                      inverse_plastic, lift_state, parse_config,
                      plastic_distortion, run_simulation, serialize_config,
                      stability_check, total_energy, write_history_csv,
                      write_snapshot_vtk)
from kinkband.evolution import LoadProgram, _make_objective
from kinkband.output import CSV_HEADER
from rotations import random_rotation
from test_io import read_vtk_ascii


def _report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def kink_run_20x36():
    config = SimulationConfig(nx=20, ny=36, K=76)
    t0 = time.perf_counter()
    records, states = run_simulation(config)
    return config, records, states, time.perf_counter() - t0


@pytest.fixture(scope="module")
def elastic_limit_run():
    config = SimulationConfig(nx=10, ny=18, K=20,
                              material=MaterialParams(sigma=0.001 * 1e6))
    records, states = run_simulation(config)
    return config, records, states


def test_criterion_1_kinematic_identities(slip):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10_000
    gammas = rng.uniform(-2.0, 2.0, size=n)
    grads = np.eye(2) + 0.5 * rng.standard_normal((n, 2, 2))

    Fp = np.stack([plastic_distortion(g, slip) for g in gammas[:200]])
    P = np.stack([inverse_plastic(g, slip) for g in gammas[:200]])
    det_dev = np.abs(np.linalg.det(Fp) - 1.0).max()
    inv_dev = np.abs(P @ Fp - np.eye(2)).max()

    # full 1e4-sample sweep on the closed forms the operations implement
    sm = np.outer(slip.s, slip.m)
    Fp_all = np.eye(2) + gammas[:, None, None] * sm
    P_all = np.eye(2) - gammas[:, None, None] * sm
    det_dev = max(det_dev, np.abs(np.linalg.det(Fp_all) - 1.0).max())
    inv_dev = max(inv_dev, np.abs(P_all @ Fp_all - np.eye(2)).max())
    Fe = grads @ P_all
    fe_dev = np.abs(np.linalg.det(Fe) - np.linalg.det(grads)).max()
    for i in range(0, n, 997):                  # spot-check the pointwise op
        Fe_i = elastic_strain(grads[i], gammas[i], slip)
        fe_dev = max(fe_dev, abs(np.linalg.det(Fe_i) - np.linalg.det(grads[i])))

    elapsed = time.perf_counter() - t0
    ok = det_dev < 1e-13 and inv_dev < 1e-13 and fe_dev < 1e-12 and elapsed < 1.0
    _report(1, "kinematic identities", ok,
            f"|det Fp - 1|={det_dev:.2e} |P Fp - I|={inv_dev:.2e} "
            f"|det Fe - det grad|={fe_dev:.2e} in {elapsed:.2f}s")


def test_criterion_2_frame_indifference(params, slip):
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    count = 0
    while count < 100:
        Fe = np.eye(2) + 0.6 * rng.standard_normal((2, 2))
        if np.linalg.det(Fe) <= 0.1:
            continue
        count += 1
        w0 = elastic_density(Fe, params, slip)
        for _ in range(100):
            R = random_rotation(rng)
            w = elastic_density(R @ Fe, params, slip)
            worst = max(worst, abs(w - w0) / max(abs(w0), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(2, "frame indifference", ok,
            f"worst relative deviation {worst:.2e} in {elapsed:.2f}s")


def test_criterion_3_gradient_correctness(params, slip, mesh_4x6, dofmap_4x6):
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        st = initial_state(mesh_4x6)
        st.a1 = st.a1 + 0.1 * rng.standard_normal(mesh_4x6.n_nodes)
        st.a2 = st.a2 + 0.1 * rng.standard_normal(mesh_4x6.n_nodes)
        st.b = 0.3 * rng.standard_normal(mesh_4x6.n_nodes)
        # keep the slip increment clear of the dissipation smoothing zone,
        # where the central-difference oracle itself loses accuracy
        b_prev = st.b - 0.05 - 0.3 * np.abs(rng.standard_normal(mesh_4x6.n_nodes))
        fun, fun_grad = _make_objective(mesh_4x6, dofmap_4x6, params, slip, st,
                                        b_prev)
        x = dofmap_4x6.pack(st.a1, st.a2, st.b)
        _, ga = fun_grad(x)
        h = 1e-6
        fd = np.empty_like(x)
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (fun(xp) - fun(xm)) / (2.0 * h)
        err = np.max(np.abs(ga - fd)) / max(1.0, np.max(np.abs(fd)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    _report(3, "analytic vs central-FD gradient", ok,
            f"worst relative l-inf error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_incremental_minimality(run_10x18_k20):
    t0 = time.perf_counter()
    config, records, states = run_10x18_k20
    mesh = build_structured_mesh(config.Lx, config.Ly, config.nx, config.ny)
    dofmap = build_dofmap(mesh)
    params = MaterialParams()
    slip = SlipSystem.default()
    program = LoadProgram(speed=config.speed, Ly=config.Ly)
    rng = np.random.default_rng(104)
    worst = -np.inf
    for k, rec in enumerate(records, start=1):
        v = stability_check(states[k], rec.time, mesh, dofmap, params, slip,
                            program, n_competitors=100,
                            prev_state=states[k - 1], rng=rng)
        worst = max(worst, v)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 600.0
    _report(4, "stability inequality after every step", ok,
            f"worst violation {worst:.3e} N mm over {len(records)} steps "
            f"in {elapsed:.1f}s")


def test_criterion_5_discrete_energy_inequality(run_10x18_k20):
    config, records, states = run_10x18_k20
    mesh = build_structured_mesh(config.Lx, config.Ly, config.nx, config.ny)
    params = MaterialParams()
    slip = SlipSystem.default()
    program = LoadProgram(speed=config.speed, Ly=config.Ly)
    floor = params.sigma * params.delta * mesh.total_area
    worst_slack = np.inf
    all_ok = True
    for k, rec in enumerate(records, start=1):
        lifted = lift_state(states[k - 1], mesh, program, states[k - 1].time,
                            rec.time)
        le = total_energy(lifted, mesh, params, slip).total
        lower_ok, upper_ok = energy_inequality_check(
            rec, records[k - 2] if k > 1 else None, le, params,
            mesh.total_area, tol=1e-4)
        slack = le + floor - rec.energy.total - rec.dissipation_increment
        worst_slack = min(worst_slack, slack)
        all_ok = all_ok and lower_ok and upper_ok
    ok = all_ok and worst_slack >= -1e-4
    _report(5, "discrete energy upper estimate", ok,
            f"worst slack {worst_slack:.3e} N mm")


def test_criterion_6_elastic_limit(elastic_limit_run):
    _, records, _ = elastic_limit_run
    max_gamma = max(r.max_abs_gamma for r in records)
    F = np.array([r.reaction_force for r in records])
    dF = np.diff(F)
    monotone = bool((dF > -1e-9 * np.maximum(1.0, np.abs(F[:-1]))).all())
    ok = max_gamma < 1e-6 and monotone
    _report(6, "elastic limit with slip suppressed", ok,
            f"max|gamma|={max_gamma:.2e}, monotone force={monotone}")


def test_criterion_7_kink_band_reproduction(kink_run_20x36):
    config, records, states, wall = kink_run_20x36
    F = np.array([r.reaction_force for r in records])
    G = np.array([r.max_abs_gamma for r in records])

    # (c) onset of slip only after at least 3 purely elastic steps
    onset = next((i for i, g in enumerate(G) if g > 0.01), None)
    onset_ok = onset is not None and onset >= 3

    # (a) a force drop of >= 10% relative to the preceding local maximum
    run_max = np.maximum.accumulate(F)
    drop_steps = [i for i in range(1, len(F))
                  if run_max[i - 1] > 0
                  and F[i] <= run_max[i - 1] - 0.1 * abs(run_max[i - 1])]
    drop_ok = len(drop_steps) > 0

    # (b) localization at the drop step: spatial std above 0.25 * max|gamma|
    loc_ok = False
    std_ratio = 0.0
    if drop_ok:
        kd = drop_steps[0]
        gamma = states[kd + 1].b
        std_ratio = float(np.std(gamma) / max(1e-30, np.max(np.abs(gamma))))
        loc_ok = std_ratio > 0.25

    ok = onset_ok and drop_ok and loc_ok and wall < 7200.0
    detail = (f"onset step {onset}, drop at step "
              f"{drop_steps[0] + 1 if drop_steps else '-'}, "
              f"std/max|gamma|={std_ratio:.2f}, wall {wall:.0f}s")
    _report(7, "kink-band reproduction", ok, detail)


def test_criterion_8_time_refinement_consistency():
    base = dict(nx=8, ny=14)
    r20, _ = run_simulation(SimulationConfig(K=20, **base))
    r40, _ = run_simulation(SimulationConfig(K=40, **base))
    e20, e40 = r20[-1].energy.total, r40[-1].energy.total
    d20, d40 = r20[-1].cumulative_dissipation, r40[-1].cumulative_dissipation
    e_rel = abs(e20 - e40) / abs(e40)
    d_rel = abs(d20 - d40) / abs(d40)
    ok = e_rel < 0.02 and d_rel < 0.05
    _report(8, "time-refinement consistency", ok,
            f"energy rel diff {e_rel:.2e}, dissipation rel diff {d_rel:.2e}")


def test_criterion_9_serialization(tmp_path):
    # config round-trip
    config = parse_config("mesh.nx = 5\nmaterial.p = 2.5\nload.K = 7")
    rt_ok = parse_config(serialize_config(config)) == config

    # CSV schema and value round-trip
    run_cfg = SimulationConfig(nx=3, ny=4, K=2)
    records, states = run_simulation(run_cfg)
    csv_path = tmp_path / "history.csv"
    write_history_csv(records, csv_path, Lx=run_cfg.Lx, Ly=run_cfg.Ly,
                      speed=run_cfg.speed)
    header_ok = csv_path.read_text().splitlines()[0] == CSV_HEADER
    from kinkband import read_history_csv
    parsed = read_history_csv(csv_path)
    csv_ok = all(a.energy.total == b.energy.total and a.time == b.time
                 and a.reaction_force == b.reaction_force
                 for a, b in zip(parsed, records))

    # VTK conformance via the minimal reader
    mesh = build_structured_mesh(run_cfg.Lx, run_cfg.Ly, run_cfg.nx, run_cfg.ny)
    vtk_path = tmp_path / "snap.vtk"
    write_snapshot_vtk(states[-1], mesh, vtk_path)
    data = read_vtk_ascii(vtk_path)
    vtk_ok = (data["points"].shape == (mesh.n_nodes, 3)
              and data["cells"].shape == (mesh.n_triangles, 3)
              and set(data["cell_data"]) == {"det_Fe", "E_11", "E_22", "E_12",
                                             "grad_u_11", "grad_u_12",
                                             "grad_u_21", "grad_u_22"}
              and set(data["point_data"]) == {"displacement", "gamma"})

    ok = rt_ok and header_ok and csv_ok and vtk_ok
    _report(9, "serialization round-trips and schemas", ok,
            f"config={rt_ok} header={header_ok} csv={csv_ok} vtk={vtk_ok}")

"""Test oracles that a run never executes: the plastic/elastic split at one
point (criterion 1), the stability inequality probed with random smooth
competitors (criterion 4), the two-sided discrete energy estimate on step
records (criterion 5, an independent reference for the step's own upper
estimate) and the history CSV reader (criterion 9)."""

from __future__ import annotations

import csv

import numpy as np

from kinkband.energy import EnergyBreakdown, MaterialParams, total_energy
from kinkband.evolution import (LoadProgram, State, StepRecord,
                                _make_objective, apply_boundary_conditions,
                                lift_state)
from kinkband.kinematics import SlipSystem
from kinkband.mesh import DofMap, Mesh2D
from kinkband.output import CSV_HEADER


def plastic_distortion(gamma: float, slip: SlipSystem) -> np.ndarray:
    """Fp = I + gamma * s (x) m; unimodular for every gamma."""
    return np.eye(2) + gamma * np.outer(slip.s, slip.m)


def inverse_plastic(gamma: float, slip: SlipSystem) -> np.ndarray:
    """P = Fp^-1 = I - gamma * s (x) m (s (x) m is nilpotent)."""
    return np.eye(2) - gamma * np.outer(slip.s, slip.m)


def elastic_strain(grad_y: np.ndarray, gamma: float, slip: SlipSystem) -> np.ndarray:
    """Fe = grad_y (I - gamma * s (x) m); det Fe = det grad_y."""
    return np.asarray(grad_y) @ inverse_plastic(gamma, slip)


def _smooth_bumps(mesh, dofmap, rng):
    """One random smooth admissible perturbation of the free DOFs (packed)."""
    x = mesh.nodes[:, 0] / mesh.Lx
    y = mesh.nodes[:, 1] / mesh.Ly
    i1, j1 = rng.integers(1, 5, size=2)
    amp = 10.0 ** rng.uniform(-3.5, -0.4)
    sgn = rng.choice([-1.0, 1.0], size=3)
    active = rng.random(3) < 2.0 / 3.0
    if not active.any():
        active[rng.integers(0, 3)] = True
    da1 = sgn[0] * amp * np.sin(np.pi * i1 * x) * np.sin(np.pi * j1 * y)
    da2 = sgn[1] * amp * np.cos(np.pi * i1 * x) * np.sin(np.pi * j1 * y)
    db = sgn[2] * amp * np.cos(np.pi * i1 * x) * np.cos(np.pi * j1 * y)
    return dofmap.pack(np.array([f if on else np.zeros_like(f)
                                 for f, on in zip((da1, da2, db), active)]))


def stability_check(state: State, t: float, mesh: Mesh2D, dofmap: DofMap,
                    params: MaterialParams, slip: SlipSystem,
                    program: LoadProgram, n_competitors: int = 100,
                    prev_state: State | None = None,
                    rng=None) -> float:
    """Worst stability violation max over competitors of
    I(t,q) - I(t,q~) - D_delta(gamma, gamma~)   [N mm].

    Competitors are random smooth admissible bumps of the free blocks plus
    the lifted previous state (when given) and the state itself.  A
    converged step should report at most about 1e-4, the optimizer's fixed
    function tolerance; negative means strictly stable against the sample.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    bc = apply_boundary_conditions(state, mesh, dofmap, program, t)
    f_state = total_energy(bc, mesh, params, slip).total
    x = dofmap.pack(bc.q)
    fun_grad = _make_objective(mesh, dofmap, params, slip, bc, state.b)
    worst = f_state - fun_grad(x)[0]  # the state itself
    if prev_state is not None:
        lifted = lift_state(prev_state, mesh, program, prev_state.time, t)
        xc = dofmap.pack(lifted.q)
        worst = max(worst, f_state - fun_grad(xc)[0])
    for _ in range(n_competitors):
        xc = x + _smooth_bumps(mesh, dofmap, rng)
        worst = max(worst, f_state - fun_grad(xc)[0])
    return float(worst)


def energy_inequality_check(record_k: StepRecord, record_km1: StepRecord | None,
                            lifted_prev_energy: float, params: MaterialParams,
                            domain_area: float, tol: float = 1e-4):
    """Two-sided discrete energy estimate for one accepted step.

    upper: I(t_k, q_k) + D(g_{k-1}, g_k) <= I(t_k, lift(q_{k-1})) +
    sigma*delta*|Omega| + tol.  lower: the dissipation chain is consistent,
    i.e. the increment is at least its smoothing floor and the cumulative
    sum does not decrease.
    """
    floor = params.sigma * params.delta * domain_area
    upper_ok = (record_k.energy.total + record_k.dissipation_increment
                <= lifted_prev_energy + floor + tol)
    lower_ok = record_k.dissipation_increment >= floor - tol
    if record_km1 is not None:
        lower_ok = lower_ok and (record_k.cumulative_dissipation
                                 >= record_km1.cumulative_dissipation - tol)
    return lower_ok, upper_ok


def read_history_csv(path):
    """Parse a history CSV back into StepRecord objects (round-trip exact)."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"unexpected header in {path}")
        for row in reader:
            energy = EnergyBreakdown(
                elastic=float(row["elastic_Nmm"]),
                hardening=float(row["hardening_Nmm"]),
                slip_gradient=float(row["slip_gradient_Nmm"]),
                penalty=float(row["penalty_Nmm"]),
                total=float(row["total_energy_Nmm"]),
            )
            records.append(StepRecord(
                k=int(row["k"]),
                time=float(row["time_s"]),
                energy=energy,
                dissipation_increment=float(row["dissipation_increment_Nmm"]),
                cumulative_dissipation=float(row["cumulative_dissipation_Nmm"]),
                reaction_force=float(row["reaction_force_N"]),
                top_displacement=float(row["top_displacement_mm"]),
                max_abs_gamma=float(row["max_abs_gamma"]),
                min_det_Fe=float(row["min_det_Fe"]),
                optimizer_iterations=int(row["optimizer_iterations"]),
            ))
    return records

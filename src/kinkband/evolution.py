"""Rate-independent evolution by time-incremental energy minimization.

Each step minimizes H(q) = D_delta(gamma_prev, gamma) + I(t_next, y, gamma)
over the free coefficients, with the moving Dirichlet data imposed at
t_next before minimization.  The diagnostics ``stability_check`` (the
stability inequality probed with random competitors) and
``energy_inequality_check`` (the two-sided discrete energy estimate against
an affinely lifted copy of the previous state) are called by the tests;
``run_simulation`` calls neither.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .energy import (EnergyBreakdown, MaterialParams, _assemble, _integrate,
                     _kernel, curvature_scale, dissipation_increment,
                     element_grad_y, energy_nodal_gradient)
from .kinematics import SlipSystem
from .mesh import TOP, DofMap, Mesh2D, build_dofmap, build_structured_mesh
from .optimizer import InvalidStartError, MinimizeOptions, gradient_check, minimize

log = logging.getLogger("kinkband")

# largest max relative error of the analytic gradient against central
# differences that the start-up check and ``check-gradient`` accept
GRADIENT_CHECK_TOL = 1e-3
# central-difference step of that check (``_startup_gradient_check`` says
# why not smaller)
GRADIENT_CHECK_STEP = 1e-6
# smallest mesh, in elements, on which the gradient check re-evaluates only
# the elements each difference point touches
ANCHORED_CHECK_MIN_ELEMENTS = 200


class StepFailureError(RuntimeError):
    """The run could not be solved; partial results, if any, are attached."""

    def __init__(self, message, records=None, states=None):
        super().__init__(message)
        self.records = records or []
        self.states = states or []


@dataclass
class State:
    """Packed nodal coefficients: deformation (a1, a2) and slip b, at a time."""

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    time: float = 0.0

    def copy(self) -> "State":
        return State(a1=self.a1.copy(), a2=self.a2.copy(), b=self.b.copy(),
                     time=self.time)


@dataclass
class LoadProgram:
    """Constant-speed platen descent: prescribed top height Ly - speed * t."""

    speed: float       # mm/s
    Ly: float          # mm

    def top_displacement(self, t: float) -> float:
        return self.Ly - self.speed * t


@dataclass
class StepRecord:
    k: int
    time: float
    energy: EnergyBreakdown
    dissipation_increment: float
    cumulative_dissipation: float
    reaction_force: float
    top_displacement: float
    max_abs_gamma: float
    min_det_Fe: float
    optimizer_iterations: int


def initial_state(mesh: Mesh2D) -> State:
    """Undeformed configuration: nodes at reference coordinates, zero slip."""
    return State(a1=mesh.nodes[:, 0].copy(), a2=mesh.nodes[:, 1].copy(),
                 b=np.zeros(mesh.n_nodes), time=0.0)


def apply_boundary_conditions(state: State, mesh: Mesh2D, dofmap: DofMap,
                              program: LoadProgram, t: float) -> State:
    """Impose the Dirichlet program at time t on a copy of ``state``.

    The entries ``dofmap`` marks free are kept; the fixed ones are taken
    from the prescribed field (x_ref, (y_ref / Ly) top_displacement(t)),
    which is the reference position on the bottom (y_ref = 0) and the
    platen height on the top (y_ref / Ly is exactly 1 there).
    """
    x_ref, y_ref = mesh.nodes.T
    a1, a2, b = dofmap.unpack(
        dofmap.pack(state.a1, state.a2, state.b), x_ref,
        (y_ref / mesh.Ly) * program.top_displacement(t), state.b)
    return State(a1=a1, a2=a2, b=b, time=t)


def lift_state(state: State, mesh: Mesh2D, program: LoadProgram,
               t_from: float, t_to: float) -> State:
    """Affine vertical lift making a state at t_from admissible at t_to.

    Adds the incremental field (0, delta * x2 / Ly) evaluated at reference
    heights, which moves the top nodes exactly onto the new platen position
    and keeps the bottom fixed.
    """
    delta = program.top_displacement(t_to) - program.top_displacement(t_from)
    out = state.copy()
    out.a2 = out.a2 + delta * mesh.nodes[:, 1] / program.Ly
    out.time = t_to
    return out


def _make_objective(mesh, dofmap, params, slip, template: State, b_prev):
    """I + D^delta over the packed free DOFs: ``fun(x)`` is the value alone,
    ``fun_grad(x)`` the value and analytic gradient from one assembly."""
    a1_t, a2_t, b_t = template.a1, template.a2, template.b

    def fun(x):
        a1, a2, b = dofmap.unpack(x, a1_t, a2_t, b_t)
        breakdown, diss, _ = _assemble(mesh, a1, a2, b, params, slip,
                                       b_prev=b_prev)
        return breakdown.total + diss

    def fun_grad(x):
        a1, a2, b = dofmap.unpack(x, a1_t, a2_t, b_t)
        breakdown, diss, grads = _assemble(mesh, a1, a2, b, params, slip,
                                           b_prev=b_prev, need_grad=True)
        return breakdown.total + diss, dofmap.pack(*grads)

    return fun, fun_grad


def _anchored_objective(mesh, dofmap, params, slip, template: State, b_prev,
                        x_anchor):
    """Value-only objective equal bit for bit to ``fun`` of ``_make_objective``,
    fast for points that differ from ``x_anchor`` in a few DOFs.

    The first call runs the kernel over all elements at ``x_anchor`` and keeps
    its densities.  Each call re-runs the kernel only on the elements at the
    nodes whose DOFs differ from ``x_anchor``, writes those rows into the kept
    densities, integrates over all elements and puts the rows back.  A row
    depends only on its element's nodes, and the integrals sum the same rows
    in the same order, so the value is that of the full assembly.
    """
    n = mesh.n_nodes
    x_anchor = np.array(x_anchor, dtype=float)
    # (nodal arrays, densities) and the mesh's node-to-element map are built
    # by the first call, so set-up that ends at the first value sees none of it
    kept = []

    def fun(x):
        if not kept:
            q = dofmap.unpack(x_anchor, template.a1, template.a2, template.b)
            kept.append((q, _kernel(mesh, *q, params, slip, b_prev=b_prev)[0]))
        q, dens = kept[0]
        changed = np.flatnonzero(x != x_anchor)
        pos = dofmap.free[changed]
        elems = mesh.elements_at(pos % n)
        flat = q.ravel()
        flat[pos] = x[changed]
        patch, _ = _kernel(mesh, *q, params, slip, b_prev=b_prev, elems=elems)
        flat[pos] = x_anchor[changed]
        live = [(d, p) for d, p in zip(dens, patch) if d is not None]
        saved = [d[elems] for d, _ in live]
        for d, p in live:
            d[elems] = p
        breakdown, diss = _integrate(mesh, dens, params)
        for (d, _), rows in zip(live, saved):
            d[elems] = rows
        return breakdown.total + diss

    return fun


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
    return dofmap.pack(*(f if on else np.zeros_like(f)
                         for f, on in zip((da1, da2, db), active)))


def incremental_step(prev: State, t_next: float, mesh: Mesh2D, dofmap: DofMap,
                     params: MaterialParams, slip: SlipSystem,
                     program: LoadProgram, options: MinimizeOptions,
                     prev_cumulative: float = 0.0, k: int = 0):
    """Advance one step: minimize H over free DOFs with boundary data at t_next.

    The initial guess keeps the elastic coefficients from the previous
    solution (top row re-imposed) and restarts the slip block at zero.  The
    result is also checked against the affinely lifted previous state; if
    that admissible competitor is lower, the minimization restarts from it
    and the better local minimizer wins.  prev_cumulative is the cumulative
    dissipation before the step and k the step number, both for the record.
    """
    template = apply_boundary_conditions(prev, mesh, dofmap, program, t_next)
    template.b = np.zeros_like(template.b)
    b_prev = prev.b
    fun, fun_grad = _make_objective(mesh, dofmap, params, slip, template, b_prev)
    x0 = dofmap.pack(template.a1, template.a2, template.b)
    h = curvature_scale(mesh, dofmap, params)

    try:
        res = minimize(fun_grad, x0, options, h=h)
    except InvalidStartError as exc:
        raise StepFailureError(
            f"step to t={t_next:g} failed to start: {exc}") from exc
    iterations = res.iterations

    # Compare with the lifted previous state (admissible, keeps gamma): if it
    # beats the found minimizer, descend from it instead.
    lifted = lift_state(prev, mesh, program, prev.time, t_next)
    x_lift = dofmap.pack(lifted.a1, lifted.a2, prev.b)
    f_lift = fun(x_lift)
    if np.isfinite(f_lift) and f_lift < res.f_min:
        res_lift = minimize(fun_grad, x_lift, options, h=h)
        iterations += res_lift.iterations
        if res_lift.f_min < res.f_min:
            res = res_lift

    a1, a2, b = dofmap.unpack(res.x_min, template.a1, template.a2, template.b)
    new_state = State(a1=a1, a2=a2, b=b, time=t_next)
    breakdown, diss, _ = _assemble(mesh, a1, a2, b, params, slip, b_prev=b_prev)
    # the smoothed increment is what the step minimized; the cumulative
    # variation uses the raw dissipation distance sigma * int |dgamma|
    var_inc = dissipation_increment(b_prev, b, mesh, replace(params, delta=0.0))
    record = StepRecord(
        k=k,
        time=t_next,
        energy=breakdown,
        dissipation_increment=diss,
        cumulative_dissipation=prev_cumulative + var_inc,
        reaction_force=reaction_force(new_state, mesh, params, slip),
        top_displacement=program.top_displacement(t_next),
        max_abs_gamma=float(np.max(np.abs(b))),
        min_det_Fe=_min_det(mesh, a1, a2),
        optimizer_iterations=iterations,
    )
    return new_state, record


def _min_det(mesh, a1, a2):
    return float(np.min(element_grad_y(mesh, a1, a2)[4]))


def reaction_force(state: State, mesh: Mesh2D, params: MaterialParams,
                   slip: SlipSystem) -> float:
    """Vertical constraint reaction on the platen, compression positive [N/mm].

    Sum of the stored-energy gradient over the prescribed vertical DOFs of
    the top edge, negated so that pushing the platen down against resistance
    reads positive.
    """
    _, ga2, _ = energy_nodal_gradient(state, mesh, params, slip)
    top = mesh.boundary_tags == TOP
    return -float(ga2[top].sum())


def stability_check(state: State, t: float, mesh: Mesh2D, dofmap: DofMap,
                    params: MaterialParams, slip: SlipSystem,
                    program: LoadProgram, n_competitors: int = 100,
                    prev_state: State | None = None,
                    rng=None) -> float:
    """Worst stability violation max over competitors of
    I(t,q) - I(t,q~) - D_delta(gamma, gamma~)   [N mm].

    Competitors are random smooth admissible bumps of the free blocks plus
    the lifted previous state (when given) and the state itself.  A
    converged step should report at most roughly the optimizer's function
    tolerance; negative means strictly stable against the sample.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    bc = apply_boundary_conditions(state, mesh, dofmap, program, t)
    breakdown, _, _ = _assemble(mesh, bc.a1, bc.a2, state.b, params, slip)
    f_state = breakdown.total
    x = dofmap.pack(bc.a1, bc.a2, state.b)
    competitor_value, _ = _make_objective(mesh, dofmap, params, slip, bc,
                                          state.b)
    worst = f_state - competitor_value(x)          # the state itself
    if prev_state is not None:
        lifted = lift_state(prev_state, mesh, program, prev_state.time, t)
        xc = dofmap.pack(lifted.a1, lifted.a2, prev_state.b)
        worst = max(worst, f_state - competitor_value(xc))
    for _ in range(n_competitors):
        xc = x + _smooth_bumps(mesh, dofmap, rng)
        worst = max(worst, f_state - competitor_value(xc))
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


def _startup_gradient_check(mesh, dofmap, params, slip, program):
    """Verify the analytic gradient against central differences once per run.

    Uses a perturbed admissible state and the step ``GRADIENT_CHECK_STEP``
    = 1e-6: central differences at a step of 1e-8 are dominated by
    summation roundoff on energies of this magnitude.

    Each difference point moves one DOF.  On meshes of at least
    ``ANCHORED_CHECK_MIN_ELEMENTS`` elements the values come from
    ``_anchored_objective``, which re-runs the kernel only on the elements
    at that DOF's node; on smaller ones the plain objective is cheaper.
    Both give the same values bit for bit.  Per value, plain against
    anchored (best of five sweeps, 2-vCPU x86-64 VM, numpy 2.4): 146/170 us
    at 96 elements (the 6x8 probe of ``run``), 160/163 at 160, 174/167 at
    216, 194/162 at 360 (10x18) and 1,889/236 at 4,148 (34x61), so the
    crossover lies between 160 and 216 elements.
    """
    probe = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                      program, 0.0)
    rng = np.random.default_rng(12345)
    b_prev = np.zeros(mesh.n_nodes)
    fun, fun_grad = _make_objective(mesh, dofmap, params, slip, probe, b_prev)
    x = dofmap.pack(probe.a1, probe.a2, probe.b)
    # a visibly strained, slipped probe keeps all gradient blocks well scaled
    x = x + 0.6 * _smooth_bumps(mesh, dofmap, rng) \
        + 0.6 * _smooth_bumps(mesh, dofmap, rng)
    zero = np.zeros(mesh.n_nodes)
    x = x + dofmap.pack(zero, zero, np.full(mesh.n_nodes, 0.2))
    if mesh.n_triangles >= ANCHORED_CHECK_MIN_ELEMENTS:
        fun = _anchored_objective(mesh, dofmap, params, slip, probe, b_prev, x)
    return gradient_check(fun, lambda v: fun_grad(v)[1], x, GRADIENT_CHECK_STEP)


def build_problem(config):
    """Mesh, dofmap, material, slip system and load program of a validated
    SimulationConfig, in the argument order of the solver functions."""
    mesh = build_structured_mesh(config.Lx, config.Ly, config.nx, config.ny)
    slip = SlipSystem(s=np.array([config.s1, config.s2]),
                      m=np.array([config.m1, config.m2]))
    program = LoadProgram(speed=config.speed, Ly=config.Ly)
    return mesh, build_dofmap(mesh), config.material, slip, program


def run_simulation(config):
    """Run the full load program described by a validated SimulationConfig.

    Returns (records, states): one StepRecord per step and the state list
    including the initial state.  A failed start-up gradient check raises
    StepFailureError; so does an unrecoverable step failure, carrying the
    partial records and states.
    """
    mesh, dofmap, params, slip, program = build_problem(config)

    # the check exercises the same assembly path, so a capped probe mesh
    # keeps the startup cost negligible on production meshes
    probe_mesh = build_structured_mesh(config.Lx, config.Ly,
                                       min(config.nx, 6), min(config.ny, 8))
    err = _startup_gradient_check(probe_mesh, build_dofmap(probe_mesh),
                                  params, slip, program)
    if not err < GRADIENT_CHECK_TOL:
        raise StepFailureError(
            f"start-up gradient check failed: max relative error {err:.3e} "
            f"is not below {GRADIENT_CHECK_TOL:g}, so the analytic gradient "
            "cannot be trusted")

    state = initial_state(mesh)
    records: list[StepRecord] = []
    states: list[State] = [state]
    cumulative = 0.0

    times = np.linspace(0.0, config.T, config.K + 1)
    for k in range(1, config.K + 1):
        t_next = float(times[k])
        step_kwargs = dict(mesh=mesh, dofmap=dofmap, params=params, slip=slip,
                           program=program, options=config.optimizer)
        try:
            state_new, rec = incremental_step(
                state, t_next, prev_cumulative=cumulative, k=k, **step_kwargs)
        except StepFailureError as exc:
            # Retry once through the interval midpoint, then give up.
            t_mid = 0.5 * (state.time + t_next)
            log.warning("step %d failed (%s); retrying via t=%g", k, exc, t_mid)
            try:
                state_mid, rec_mid = incremental_step(
                    state, t_mid, prev_cumulative=cumulative, k=k,
                    **step_kwargs)
                state_new, rec = incremental_step(
                    state_mid, t_next,
                    prev_cumulative=rec_mid.cumulative_dissipation, k=k,
                    **step_kwargs)
                rec.dissipation_increment += rec_mid.dissipation_increment
                rec.optimizer_iterations += rec_mid.optimizer_iterations
            except StepFailureError as exc2:
                raise StepFailureError(
                    f"step {k} to t={t_next:g} failed after halving: {exc2}",
                    records=records, states=states) from exc2
        cumulative = rec.cumulative_dissipation
        records.append(rec)
        states.append(state_new)
        state = state_new
        log.info("step %2d  t=%7.3f  E=%12.4f  diss+=%.4e  F=%10.3f  "
                 "max|g|=%.4f  iters=%d", k, t_next, rec.energy.total,
                 rec.dissipation_increment, rec.reaction_force,
                 rec.max_abs_gamma, rec.optimizer_iterations)
    return records, states

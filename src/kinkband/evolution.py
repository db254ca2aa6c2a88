"""Rate-independent evolution by time-incremental energy minimization.

Each step minimizes H(q) = D_delta(gamma_prev, gamma) + I(t_next, y, gamma)
over the free coefficients, with the moving Dirichlet data imposed at
t_next before minimization.  A step first assembles the lifted previous
state.  If that state is stationary, has no penalty point and the stored
energy's Hessian there is positive definite (``energy._certified``:
block Cholesky on its row blocks), it is a strict local minimizer of
the step, and the step keeps it with 0 iterations: the local solution
concept.  Otherwise the step compares two starts: one minimization from
the previous elastic coefficients with zero slip, then one from the
lifted previous state if that is lower.  There is no retry: a step ends
the run with the steps before it when it cannot start, when its accepted
state has penalty energy, or when that state breaks the discrete energy
upper estimate I + D <= I(lift) + sigma * delta * |Omega| against the
lifted previous state, whose stored energy the step assembled first.  The
stop test is not checked yet.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .energy import (EnergyBreakdown, MaterialParams, _assemble, _certified,
                     _field_at_points, _patch_oracle, curvature_scale,
                     dissipation_increment, element_grad_y)
from .kinematics import SlipSystem
from .mesh import TOP, DofMap, Mesh2D, build_dofmap, build_structured_mesh
from .optimizer import GRAD_TOL, InvalidStartError, gradient_check, minimize

log = logging.getLogger("kinkband")

# largest max relative error of the analytic gradient against central
# differences that the start-up check and ``check-gradient`` accept
GRADIENT_CHECK_TOL = 1e-3
# central-difference step of that check (``_startup_gradient_check`` says
# why not smaller)
GRADIENT_CHECK_STEP = 1e-6
# slack [N mm] of a step's energy upper estimate: the accepted state is at
# or below the lifted state's H by construction, so only a faulty step
# breaks it by more than rounding; 1e-4 is the optimizer's TOL_FUN and
# criterion 5's threshold
ENERGY_ESTIMATE_TOL = 1e-4


class StepFailureError(RuntimeError):
    """The run could not be solved; partial results, if any, are attached."""

    def __init__(self, message, records=None, states=None):
        super().__init__(message)
        self.records = records or []
        self.states = states or []


@dataclass
class State:
    """The (3, n) nodal values q at a time: rows a1 and a2, the deformation,
    and b, the slip; ``a1``, ``a2`` and ``b`` are read-only views of them."""

    q: np.ndarray
    time: float = 0.0

    def _row(self, i):
        row = self.q[i]
        row.flags.writeable = False
        return row

    a1 = property(lambda self: self._row(0))
    a2 = property(lambda self: self._row(1))
    b = property(lambda self: self._row(2))


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
    q = np.zeros((3, mesh.n_nodes))
    q[:2] = mesh.nodes.T
    return State(q)


def apply_boundary_conditions(state: State, mesh: Mesh2D, dofmap: DofMap,
                              program: LoadProgram, t: float) -> State:
    """Impose the Dirichlet program at time t on a copy of ``state``.

    The entries ``dofmap`` marks free are kept; the fixed ones are taken
    from the prescribed field (x_ref, (y_ref / Ly) top_displacement(t)),
    which is the reference position on the bottom (y_ref = 0) and the
    platen height on the top (y_ref / Ly is exactly 1 there).
    """
    x_ref, y_ref = mesh.nodes.T
    prescribed = state.q.copy()
    prescribed[0] = x_ref
    prescribed[1] = (y_ref / mesh.Ly) * program.top_displacement(t)
    return State(dofmap.unpack(dofmap.pack(state.q), prescribed), t)


def lift_state(state: State, mesh: Mesh2D, program: LoadProgram,
               t_from: float, t_to: float) -> State:
    """Affine vertical lift making a state at t_from admissible at t_to.

    Adds the incremental field (0, delta * x2 / Ly) evaluated at reference
    heights, which moves the top nodes exactly onto the new platen position
    and keeps the bottom fixed.
    """
    delta = program.top_displacement(t_to) - program.top_displacement(t_from)
    q = state.q.copy()
    q[1] += delta * mesh.nodes[:, 1] / program.Ly
    return State(q, t_to)


def _make_objective(mesh, dofmap, params, slip, template: State, b_prev):
    """I + D^delta over the packed free DOFs: ``fun_grad(x)`` is the value
    and analytic gradient from one assembly into one nodal buffer holding
    the template's fixed entries.  ``fun_grad.last`` is [a copy of x, the
    ``_assemble`` result] of the latest assembly, a list updated in place; a
    call at an equal x (``np.array_equal``) returns it without assembling.
    fun_grad holds no reference to itself, so it is freed without the cycle
    collector.  ``b_prev`` is taken to the quadrature points once."""
    q = template.q.copy()
    gam_prev = None if b_prev is None else _field_at_points(mesh, b_prev)
    last = [None, None]

    def fun_grad(x):
        if not np.array_equal(x, last[0]):
            q.reshape(-1)[dofmap.free] = x
            last[:] = x.copy(), _assemble(mesh, q, params, slip,
                                          gam_prev=gam_prev, need_grad=True)
        breakdown, diss, grads = last[1]
        return breakdown.total + diss, dofmap.pack(grads)

    fun_grad.last = last
    return fun_grad


def incremental_step(prev: State, t_next: float, mesh: Mesh2D, dofmap: DofMap,
                     params: MaterialParams, slip: SlipSystem,
                     program: LoadProgram, prev_cumulative: float = 0.0,
                     k: int = 0):
    """Advance one step: minimize H over free DOFs with boundary data at t_next.

    The step first assembles the affinely lifted previous state, an
    admissible competitor that keeps the slip.  If it is stationary (|g|inf
    at most ``GRAD_TOL``, ``minimize``'s test for returning its start
    unmoved), has no penalty point and ``_certified`` passes, it is a
    strict local minimizer and the step keeps it: the minimization from it
    ends at its start.  Otherwise the step minimizes from the previous elastic
    coefficients (top row re-imposed) with the slip restarted at zero and,
    if the lifted state is lower than that minimizer, once more from the
    lifted state, keeping that result, which ``minimize`` never leaves
    above its start.  StepFailureError is raised for a start where H is
    not finite, and for an accepted state with penalty energy or one that
    breaks the energy upper estimate I + D <= I(lift) + sigma * delta *
    |Omega| by more than ``ENERGY_ESTIMATE_TOL``.  prev_cumulative is the
    cumulative dissipation before the step and k the step number, both for
    the record.
    """
    template = apply_boundary_conditions(prev, mesh, dofmap, program, t_next)
    template.q[2] = 0.0
    fun_grad = _make_objective(mesh, dofmap, params, slip, template, prev.b)
    x0 = dofmap.pack(template.q)
    x_lift = dofmap.pack(lift_state(prev, mesh, program, prev.time, t_next).q)
    f_lift, g_lift = fun_grad(x_lift)
    lift_assembly = fun_grad.last[:]
    stable = (float(np.abs(g_lift).max(initial=0.0)) <= GRAD_TOL
              and lift_assembly[1][0].penalty == 0.0
              and _certified(mesh, dofmap, params, slip,
                             dofmap.unpack(x_lift, template.q)))

    try:
        if stable:                      # ends at its start, reading no h
            res = minimize(fun_grad, x_lift)
        else:
            h = curvature_scale(mesh, dofmap, params)
            res = minimize(fun_grad, x0, h=h)
        iterations = res.iterations
        # else descend from the lifted state, from its assembly, if it is
        # below the found minimizer
        if not stable and f_lift < res.f_min:
            fun_grad.last[:] = lift_assembly
            res = minimize(fun_grad, x_lift, h=h)
            iterations += res.iterations
    except InvalidStartError as exc:
        raise StepFailureError(
            f"step to t={t_next:g} failed to start: {exc}") from exc

    state = State(dofmap.unpack(res.x_min, template.q), t_next)
    # the record from one assembly, the minimizer's latest if it ended there
    fun_grad(res.x_min)
    breakdown, diss, grads = fun_grad.last[1]
    # the smoothed increment is what the step minimized; the cumulative
    # variation uses the raw dissipation distance sigma * int |dgamma|
    var_inc = dissipation_increment(prev.b, state.b, mesh,
                                    replace(params, delta=0.0))
    record = StepRecord(
        k=k,
        time=t_next,
        energy=breakdown,
        dissipation_increment=diss,
        cumulative_dissipation=prev_cumulative + var_inc,
        reaction_force=reaction_force(grads, mesh),
        top_displacement=program.top_displacement(t_next),
        max_abs_gamma=float(np.max(np.abs(state.b))),
        min_det_Fe=_min_det(mesh, state.q),
        optimizer_iterations=iterations,
    )
    # the north star's acceptance tests that need no further assembly
    if breakdown.penalty > 0.0:
        raise StepFailureError(
            f"the accepted state has penalty energy {breakdown.penalty:.6g} "
            f"N mm (det Fe at or below {params.det_floor:g})")
    lifted_energy = lift_assembly[1][0].total
    if not (breakdown.total + diss <= lifted_energy
            + params.sigma * params.delta * mesh.total_area
            + ENERGY_ESTIMATE_TOL):
        raise StepFailureError(
            "the accepted state breaks the energy upper estimate: I + D = "
            f"{breakdown.total + diss:.10g} N mm against the lifted state's "
            f"I = {lifted_energy:.10g} N mm")
    return state, record


def _min_det(mesh, q):
    return float(np.min(element_grad_y(mesh, q)[4]))


def reaction_force(grads, mesh: Mesh2D) -> float:
    """Vertical constraint reaction on the platen, compression positive [N].

    Minus the sum of ga2, row 1 of the (3, n) nodal gradient ``grads`` of
    ``_assemble``, over the prescribed vertical DOFs of the top edge; a
    dissipation term in ``grads`` changes only its row 2, gb.
    """
    return -float(grads[1][mesh.boundary_tags == TOP].sum())


def _startup_probe(mesh, dofmap, program) -> State:
    """The start-up check's state: mode-(3, 1) bumps of 0.025 mm in a1 and
    0.002 mm in a2, slip 0.2 plus a bump of 0.002, and the Dirichlet data at
    t = 0; strained and slipped, so every gradient block is well scaled."""
    x, y = mesh.nodes.T
    u, v = 3.0 * np.pi * x / mesh.Lx, np.pi * y / mesh.Ly
    bumped = State(np.array((x - 0.025 * np.sin(u) * np.sin(v),
                             y + 0.002 * np.cos(u) * np.sin(v),
                             0.2 + 0.002 * np.cos(u) * np.cos(v))))
    return apply_boundary_conditions(bumped, mesh, dofmap, program, 0.0)


def _startup_gradient_check(mesh, dofmap, params, slip, program):
    """Verify the analytic gradient against central differences once per run.

    Uses the state ``_startup_probe`` and the step ``GRADIENT_CHECK_STEP``
    = 1e-6: central differences at a step of 1e-8 are dominated by
    summation roundoff on energies of this magnitude.  Each difference
    point moves one DOF, and its value is the energy of that DOF's element
    patch alone: ``energy._patch_oracle`` gives it for every entry of the
    nodal vector, of which the check takes the free ones, ``dofmap.free``.
    All of them together cost 18 kernel passes over the mesh, one per
    field, corner and sign, each recomputing only the moved field's
    gradient rows (and for b the point slip).
    """
    probe = _startup_probe(mesh, dofmap, program)
    b_prev = np.zeros(mesh.n_nodes)
    fun_grad = _make_objective(mesh, dofmap, params, slip, probe, b_prev)
    x = dofmap.pack(probe.q)
    oracle = _patch_oracle(mesh, probe.q, params, slip,
                           _field_at_points(mesh, b_prev))
    return gradient_check(lambda t: oracle(t)[dofmap.free],
                          lambda v: fun_grad(v)[1], x, GRADIENT_CHECK_STEP)


def build_problem(config):
    """Mesh, dofmap, material, slip system and load program of a validated
    SimulationConfig, in the argument order of the solver functions."""
    mesh = build_structured_mesh(config.Lx, config.Ly, config.nx, config.ny)
    slip = SlipSystem(s=np.array([config.s1, config.s2]))
    program = LoadProgram(speed=config.speed, Ly=config.Ly)
    return mesh, build_dofmap(mesh), config.material, slip, program


def run_simulation(config):
    """Run the full load program described by a validated SimulationConfig.

    Returns (records, states): one StepRecord per step and the state list
    including the initial state.  A failed start-up gradient check raises
    StepFailureError; so does a failed step, carrying the records and
    states of the steps before it.
    """
    mesh, dofmap, params, slip, program = build_problem(config)
    err = _startup_gradient_check(mesh, dofmap, params, slip, program)
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
        try:
            state, rec = incremental_step(
                state, t_next, mesh=mesh, dofmap=dofmap, params=params,
                slip=slip, program=program, prev_cumulative=cumulative, k=k)
        except StepFailureError as exc:
            raise StepFailureError(f"step {k} to t={t_next:g} failed: {exc}",
                                   records=records, states=states) from exc
        cumulative = rec.cumulative_dissipation
        records.append(rec)
        states.append(state)
        log.info("step %2d  t=%7.3f  E=%12.4f  diss+=%.4e  F=%10.3f  "
                 "max|g|=%.4f  iters=%d", k, t_next, rec.energy.total,
                 rec.dissipation_increment, rec.reaction_force,
                 rec.max_abs_gamma, rec.optimizer_iterations)
    return records, states

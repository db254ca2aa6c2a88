"""The patch oracle of the gradient check: its values are the full
assembly's element integrals summed over each patch, its central
differences are those of the full assembly, it is 9 kernel passes over the
whole mesh per sign that recompute only the moved field, and a patch
missing an element is caught."""

import math

import numpy as np
import pytest

import kinkband.energy as energy
import kinkband.evolution as evolution
from kinkband import MaterialParams, parse_config
from kinkband.cli import cli_main
from kinkband.energy import (_assemble, _at_points, _field_at_points,
                             _integrate, _p1_gradient, _patch_oracle)
from kinkband.evolution import State, _make_objective
from kinkband.kinematics import SlipSystem
from kinkband.mesh import build_dofmap, build_structured_mesh
from kinkband.optimizer import gradient_check
from rotations import aligned_slip

SLIPS = {
    "default": aligned_slip(),
    "rotated": SlipSystem(s=np.array([-np.sin(0.7), np.cos(0.7)])),
}
BREAKDOWN_FIELDS = ("elastic", "hardening", "slip_gradient", "penalty", "total")


def _problem(slip_name, amp, with_prev, seed=3):
    """10x18 mesh, a random template and anchor; amp 5 mm folds elements."""
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    dofmap = build_dofmap(mesh)
    rng = np.random.default_rng(seed)
    n = mesh.n_nodes
    template = State(np.array((mesh.nodes[:, 0] + amp * rng.standard_normal(n),
                               mesh.nodes[:, 1] + amp * rng.standard_normal(n),
                               0.3 * rng.standard_normal(n))))
    b_prev = template.b - 0.1 * rng.standard_normal(n) if with_prev else None
    x = dofmap.pack(template.q)
    x = x + 0.5 * amp * rng.standard_normal(len(dofmap.free))
    args = (mesh, dofmap, MaterialParams(), SLIPS[slip_name], template, b_prev)
    return args, x


def _free_oracle(mesh, dofmap, params, slip, template, b_prev, x):
    """The patch oracle around the packed x, taken at the free DOFs."""
    q = dofmap.unpack(x, template.q)
    gp = None if b_prev is None else _field_at_points(mesh, b_prev)
    oracle = _patch_oracle(mesh, q, params, slip, gp)
    return lambda t: oracle(t)[dofmap.free]


def _element_integrals(mesh, a1, a2, b, params, slip, gam_prev=None):
    """The breakdown and dissipation of ``_assemble`` as (nt,) arrays of
    element integrals: its kernel on the same inputs, per element."""
    rows = [_p1_gradient(f[mesh.corners], mesh.grads) for f in (a1, a2, b)]
    bd, diss, _ = _integrate(rows, _at_points(b[mesh.corners]), mesh.grads,
                             mesh.element_area, params, slip, gam_prev,
                             need_grad=False, per_element=True)
    return bd, diss


def _startup_probe(problem):
    """The start-up check's probe of ``problem``, from the function the check
    takes it from: the packed x, the (3, n) nodal values there, the zero
    previous slip at the points and the packed analytic gradient."""
    mesh, dofmap, params, slip, program = problem
    probe = evolution._startup_probe(mesh, dofmap, program)
    x = dofmap.pack(probe.q)
    q = probe.q
    gam_prev = np.zeros((3, mesh.n_triangles))
    _, _, grads = _assemble(mesh, q, params, slip, gam_prev=gam_prev,
                            need_grad=True)
    return x, q, gam_prev, grads.reshape(-1)[dofmap.free]


def _sweep_error(problem, x, q, gam_prev, grad):
    """The gradient check's error with the patch oracle called directly,
    once per sign."""
    mesh, dofmap, params, slip, _ = problem
    oracle = _patch_oracle(mesh, q, params, slip, gam_prev)
    return gradient_check(lambda t: oracle(t)[dofmap.free], lambda v: grad,
                          x, evolution.GRADIENT_CHECK_STEP)


@pytest.mark.parametrize("slip_name", sorted(SLIPS))
@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("amp", [0.1, 5.0])
def test_patch_differences_equal_full_differences(slip_name, with_prev, amp):
    # every single-DOF central difference of the patch values equals that of
    # the full assembly to the roundoff of the full values
    args, x = _problem(slip_name, amp, with_prev)
    mesh, dofmap, params, slip, template, b_prev = args
    if amp > 1.0:                   # the anchor has penalty points
        q = dofmap.unpack(x, template.q)
        assert _assemble(mesh, q, params, slip)[0].penalty > 0.0
    fun_grad = _make_objective(*args)
    oracle = _free_oracle(*args, x)
    patch_p, patch_m = oracle(1e-6), oracle(-1e-6)
    eps = np.finfo(float).eps
    worst = 0.0
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += 1e-6
        xm[i] -= 1e-6
        fp, fm = fun_grad(xp)[0], fun_grad(xm)[0]
        gap = abs((patch_p[i] - patch_m[i]) - (fp - fm))
        worst = max(worst, gap / (4.0 * eps * (abs(fp) + abs(fm))))
    assert worst <= 1.0


@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("amp", [0.1, 5.0])
def test_assemble_over_every_element_by_index_equals_the_default(amp,
                                                                 with_prev):
    # the per-element integrals, indexed by element, sum to the totals
    args, x = _problem("default", amp, with_prev)
    mesh, dofmap, params, slip, template, b_prev = args
    q = dofmap.unpack(x, template.q)
    gp = None if b_prev is None else _field_at_points(mesh, b_prev)
    bd, diss, _ = _assemble(mesh, q, params, slip, gam_prev=gp)
    bd_e, diss_e = _element_integrals(mesh, *q, params, slip, gam_prev=gp)
    for field in BREAKDOWN_FIELDS:
        assert getattr(bd_e, field).shape == (mesh.n_triangles,)
        assert math.fsum(getattr(bd_e, field)) == pytest.approx(
            getattr(bd, field), rel=1e-12, abs=1e-12)
    diss_e = np.broadcast_to(diss_e, (mesh.n_triangles,))
    assert math.fsum(diss_e) == pytest.approx(diss, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("slip_name", sorted(SLIPS))
@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("t", [1e-6, -1e-6])
def test_oracle_sums_the_full_element_integrals_over_each_patch(
        mesh_4x6, dofmap_4x6, slip_name, with_prev, t):
    # oracle(t)[i] is the sum, in element order, of the full mesh's
    # per-element total + dissipation at x + t e_i over i's patch, bit for
    # bit
    mesh, dofmap = mesh_4x6, dofmap_4x6
    params, slip = MaterialParams(), SLIPS[slip_name]
    rng = np.random.default_rng(7)
    n = mesh.n_nodes
    template = State(np.array((mesh.nodes[:, 0] + 0.2 * rng.standard_normal(n),
                               mesh.nodes[:, 1] + 0.2 * rng.standard_normal(n),
                               0.3 * rng.standard_normal(n))))
    b_prev = template.b - 0.1 * rng.standard_normal(n) if with_prev else None
    gp = None if b_prev is None else _field_at_points(mesh, b_prev)
    x = dofmap.pack(template.q)
    got = _free_oracle(mesh, dofmap, params, slip, template, b_prev, x)(t)
    for i, node in enumerate(dofmap.free % n):
        xi = x.copy()
        xi[i] += t
        q = dofmap.unpack(xi, template.q)
        bd, diss = _element_integrals(mesh, *q, params, slip, gam_prev=gp)
        want = 0.0
        for e in np.flatnonzero((mesh.corners == node).any(axis=0)):
            want += (bd.total + diss)[e]
        assert got[i] == want, i


def test_sweep_is_18_kernel_passes_over_every_element(monkeypatch):
    # at 34x61 the whole sweep is one kernel pass per field, corner and
    # sign, each over the mesh's elements: no more memory than one assembly
    problem = evolution.build_problem(parse_config(""))
    mesh, dofmap = problem[:2]
    assert (mesh.n_triangles, len(dofmap.free)) == (4148, 6250)
    probe = _startup_probe(problem)
    sizes = []

    def counted(rows, gam, grads, area, *args, **kwargs):
        sizes.append(len(area))
        return _integrate(rows, gam, grads, area, *args, **kwargs)

    monkeypatch.setattr(energy, "_integrate", counted)
    assert _sweep_error(problem, *probe) < 1e-5
    assert sizes == [mesh.n_triangles] * 18


def test_sweep_recomputes_only_the_moved_field(monkeypatch):
    # at 34x61 the oracle forms the three fields' gradient rows and the
    # point slip once, then per pass only the moved field's rows and, in
    # the b passes, the slip; every a1 or a2 pass gets the base slip object
    problem = evolution.build_problem(parse_config(""))
    probe = _startup_probe(problem)
    rows_made, gams_made, gams_seen = [], [], []

    def rows_counted(vt, grads):
        rows_made.append(None)
        return _p1_gradient(vt, grads)

    def gam_counted(vt):
        gams_made.append(_at_points(vt))
        return gams_made[-1]

    def kernel(rows, gam, *args, **kwargs):
        gams_seen.append(gam)
        return _integrate(rows, gam, *args, **kwargs)

    monkeypatch.setattr(energy, "_p1_gradient", rows_counted)
    monkeypatch.setattr(energy, "_at_points", gam_counted)
    monkeypatch.setattr(energy, "_integrate", kernel)
    assert _sweep_error(problem, *probe) < 1e-5
    assert len(rows_made) == 3 + 18
    assert len(gams_made) == 1 + 6
    assert len(gams_seen) == 18
    for i, gam in enumerate(gams_seen):          # field-major, 9 per sign
        assert (gam is gams_made[0]) == (i % 9 < 6), i


def test_a_patch_missing_one_element_fails_the_check(monkeypatch):
    # negative control: drop element 110 from the a1 pass of its corner 0,
    # node 60, and the difference in that DOF no longer matches the
    # analytic gradient
    problem = evolution.build_problem(parse_config("mesh.nx = 10\nmesh.ny = 18"))
    mesh = problem[0]
    probe = _startup_probe(problem)
    # the direct sweep is the start-up check's, bit for bit
    err = _sweep_error(problem, *probe)
    assert err == evolution._startup_gradient_check(*problem)
    assert err < 1e-5
    assert mesh.corners[0, 110] == 60
    calls = []

    def dropping(*args, **kwargs):
        bd, diss, loc = _integrate(*args, **kwargs)
        if len(calls) % 9 == 0:                 # field a1, corner 0
            bd.total[110] = 0.0
        calls.append(None)
        return bd, diss, loc

    monkeypatch.setattr(energy, "_integrate", dropping)
    err = _sweep_error(problem, *probe)
    assert len(calls) == 18
    assert err > evolution.GRADIENT_CHECK_TOL


@pytest.mark.parametrize("nx,ny", [(10, 18), (20, 36)])
def test_cli_check_gradient_error_stays_small_on_finer_meshes(
        tmp_path, capsys, nx, ny):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"mesh.nx = {nx}\nmesh.ny = {ny}\n")
    code = cli_main(["check-gradient", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    err = float(out.strip().rsplit(" ", 1)[-1])
    assert err < 1e-5

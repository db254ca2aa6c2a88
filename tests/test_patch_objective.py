"""The patch oracle of the gradient check: its values are the full
assembly's element integrals summed over each patch, its central
differences are those of the full assembly, it integrates at most
``n_triangles`` element copies per kernel call, and a patch missing an
element is caught."""

import math

import numpy as np
import pytest

import kinkband.evolution as evolution
from kinkband import (MaterialParams, SlipSystem, build_dofmap,
                      build_structured_mesh, parse_config)
from kinkband.cli import cli_main
from kinkband.energy import Elements, _assemble, _at_points, _field_at_points
from kinkband.evolution import State, _make_objective, _patch_oracle

SLIPS = {
    "default": SlipSystem.default(),
    "rotated": SlipSystem(s=np.array([-np.sin(0.7), np.cos(0.7)]),
                          m=np.array([np.cos(0.7), np.sin(0.7)])),
}
BREAKDOWN_FIELDS = ("elastic", "hardening", "slip_gradient", "penalty", "total")


def _problem(slip_name, amp, with_prev, seed=3):
    """10x18 mesh, a random template and anchor; amp 5 mm folds elements."""
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    dofmap = build_dofmap(mesh)
    rng = np.random.default_rng(seed)
    n = mesh.n_nodes
    template = State(a1=mesh.nodes[:, 0] + amp * rng.standard_normal(n),
                     a2=mesh.nodes[:, 1] + amp * rng.standard_normal(n),
                     b=0.3 * rng.standard_normal(n))
    b_prev = template.b - 0.1 * rng.standard_normal(n) if with_prev else None
    x = dofmap.pack(template.a1, template.a2, template.b)
    x = x + 0.5 * amp * rng.standard_normal(dofmap.n_free)
    args = (mesh, dofmap, MaterialParams(), SLIPS[slip_name], template, b_prev)
    return args, x


@pytest.mark.parametrize("slip_name", sorted(SLIPS))
@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("amp", [0.1, 5.0])
def test_patch_differences_equal_full_differences(slip_name, with_prev, amp):
    # every single-DOF central difference of the patch values equals that of
    # the full assembly to the roundoff of the full values
    args, x = _problem(slip_name, amp, with_prev)
    mesh, dofmap, params, slip, template, b_prev = args
    if amp > 1.0:                   # the anchor has penalty points
        a1, a2, b = dofmap.unpack(x, template.a1, template.a2, template.b)
        assert _assemble(mesh, a1, a2, b, params, slip)[0].penalty > 0.0
    full, _ = _make_objective(*args)
    oracle = _patch_oracle(*args, x)
    patch_p, patch_m = oracle(1e-6), oracle(-1e-6)
    eps = np.finfo(float).eps
    worst = 0.0
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += 1e-6
        xm[i] -= 1e-6
        fp, fm = full(xp), full(xm)
        gap = abs((patch_p[i] - patch_m[i]) - (fp - fm))
        worst = max(worst, gap / (4.0 * eps * (abs(fp) + abs(fm))))
    assert worst <= 1.0


@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("amp", [0.1, 5.0])
def test_assemble_over_every_element_by_index_equals_the_default(amp,
                                                                 with_prev):
    # every element's corner values, indexed in order, give the default
    # totals and, scattered back, its gradients bit for bit
    args, x = _problem("default", amp, with_prev)
    mesh, dofmap, params, slip, template, b_prev = args
    q = dofmap.unpack(x, template.a1, template.a2, template.b)
    geo = mesh.corner_major
    every = np.arange(mesh.n_triangles)
    corners = geo.triangles.take(every, axis=1)
    batch = Elements(geo.grads.take(every, axis=2), mesh.element_area.take(every))
    qc = q.take(corners, axis=1)                        # (field, corner, element)
    gp = gc = None
    if b_prev is not None:
        gp = _field_at_points(mesh, b_prev)
        gc = _at_points(b_prev.take(corners))
    for need_grad in (False, True):
        bd, diss, grads = _assemble(mesh, *q, params, slip, gam_prev=gp,
                                    need_grad=need_grad)
        bd_i, diss_i, grads_i = _assemble(batch, *qc, params, slip,
                                          gam_prev=gc, need_grad=need_grad)
        for field in BREAKDOWN_FIELDS:
            assert getattr(bd_i, field) == getattr(bd, field), field
        assert diss_i == diss
        if need_grad:
            for g_i, g in zip(grads_i, grads):
                assert np.array_equal(
                    np.bincount(mesh.triangles.ravel(), weights=g_i.ravel(),
                                minlength=mesh.n_nodes), g)
        else:
            assert grads is None and grads_i is None
    # per element, both give the same integrals, which sum to the totals
    bd_e, diss_e, _ = _assemble(mesh, *q, params, slip, gam_prev=gp,
                                per_element=True)
    bd_c, diss_c, _ = _assemble(batch, *qc, params, slip, gam_prev=gc,
                                per_element=True)
    for field in BREAKDOWN_FIELDS:
        assert np.array_equal(getattr(bd_c, field), getattr(bd_e, field))
        assert math.fsum(getattr(bd_e, field)) == pytest.approx(
            getattr(bd, field), rel=1e-12, abs=1e-12)
    assert np.array_equal(diss_c, diss_e)
    assert math.fsum(np.broadcast_to(diss_e, every.shape)) == pytest.approx(
        diss, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("slip_name", sorted(SLIPS))
@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("t", [1e-6, -1e-6])
def test_oracle_sums_the_full_element_integrals_over_each_patch(
        mesh_4x6, dofmap_4x6, slip_name, with_prev, t):
    # oracle(t)[i] is the sum, in element order, of the full mesh's
    # per-element total + dissipation at x + t e_i over i's patch, bit for
    # bit.  The sweep's copies run in DOF order in batches of n_triangles,
    # and a DOF whose copies straddle two batches (6 of 75 here) gets each
    # batch's part summed first
    mesh, dofmap = mesh_4x6, dofmap_4x6
    params, slip = MaterialParams(), SLIPS[slip_name]
    rng = np.random.default_rng(7)
    n = mesh.n_nodes
    template = State(a1=mesh.nodes[:, 0] + 0.2 * rng.standard_normal(n),
                     a2=mesh.nodes[:, 1] + 0.2 * rng.standard_normal(n),
                     b=0.3 * rng.standard_normal(n))
    b_prev = template.b - 0.1 * rng.standard_normal(n) if with_prev else None
    gp = None if b_prev is None else _field_at_points(mesh, b_prev)
    x = dofmap.pack(template.a1, template.a2, template.b)
    got = _patch_oracle(mesh, dofmap, params, slip, template, b_prev, x)(t)
    indptr, indices = mesh.node_elements
    first = 0                                   # the DOF's first copy
    straddling = 0
    for i, node in enumerate(dofmap.free % n):
        xi = x.copy()
        xi[i] += t
        q = dofmap.unpack(xi, template.a1, template.a2, template.b)
        bd, diss, _ = _assemble(mesh, *q, params, slip, gam_prev=gp,
                                per_element=True)
        patch = indices[indptr[node]:indptr[node + 1]]
        batch = (first + np.arange(len(patch))) // mesh.n_triangles
        first += len(patch)
        straddling += batch[-1] > batch[0]
        want = 0.0
        for part in np.bincount(batch - batch[0],
                                weights=(bd.total + diss)[patch]):
            want += part
        assert got[i] == want, i
    assert straddling == 6


def test_sweep_batches_cover_at_most_n_triangles_copies(monkeypatch):
    # at 34x61 the whole sweep is 2 * ceil(sum of patch sizes / n_triangles)
    # kernel calls on element batches, none over more element copies than
    # the mesh has
    problem = evolution.build_problem(parse_config(""))
    mesh, dofmap = problem[:2]
    assert (mesh.n_triangles, dofmap.n_free) == (4148, 6250)
    sizes = []

    def counted(mesh_, *args, **kwargs):
        if not kwargs.get("need_grad"):         # all but the one gradient
            assert isinstance(mesh_, Elements)
            sizes.append(mesh_.n_triangles)
        return _assemble(mesh_, *args, **kwargs)

    monkeypatch.setattr(evolution, "_assemble", counted)
    assert evolution._startup_gradient_check(*problem) < 1e-5
    indptr = mesh.node_elements[0]
    patch_sum = int(np.diff(indptr)[dofmap.free % mesh.n_nodes].sum())
    assert sum(sizes) == 2 * patch_sum
    assert len(sizes) <= 2 * math.ceil(patch_sum / mesh.n_triangles)
    assert max(sizes) <= mesh.n_triangles


def test_a_patch_missing_one_element_fails_the_check():
    # negative control: drop one element from one node's patch, and the
    # differences in that node's DOFs no longer match the analytic gradient
    problem = evolution.build_problem(parse_config("mesh.nx = 10\nmesh.ny = 18"))
    mesh = problem[0]
    assert evolution._startup_gradient_check(*problem) < 1e-5
    node = 60
    indptr, indices = mesh.node_elements
    assert indptr[node + 1] - indptr[node] == 6
    vars(mesh)["node_elements"] = (
        np.concatenate([indptr[:node + 1], indptr[node + 1:] - 1]),
        np.delete(indices, indptr[node]))
    err = evolution._startup_gradient_check(*problem)
    assert err > evolution.GRADIENT_CHECK_TOL


@pytest.mark.parametrize("nx,ny", [(10, 18), (20, 36)])
def test_cli_check_gradient_error_stays_small_on_finer_meshes(
        tmp_path, capsys, nx, ny):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("")
    code = cli_main(["check-gradient", "--config", str(cfg),
                     "--mesh", str(nx), str(ny)])
    out = capsys.readouterr().out
    assert code == 0
    err = float(out.strip().rsplit(" ", 1)[-1])
    assert err < 1e-5

"""The patch objective of the gradient check: its central differences are
those of the full assembly, and a patch missing an element is caught."""

import numpy as np
import pytest

import kinkband.evolution as evolution
from kinkband import (MaterialParams, SlipSystem, build_dofmap,
                      build_structured_mesh, parse_config)
from kinkband.cli import cli_main
from kinkband.energy import _assemble
from kinkband.evolution import State, _make_objective, _patch_objective

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
    patch = _patch_objective(*args, x)
    eps = np.finfo(float).eps
    worst = 0.0
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += 1e-6
        xm[i] -= 1e-6
        fp, fm = full(xp), full(xm)
        gap = abs((patch(xp) - patch(xm)) - (fp - fm))
        worst = max(worst, gap / (4.0 * eps * (abs(fp) + abs(fm))))
    assert worst <= 1.0


@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("amp", [0.1, 5.0])
def test_assemble_over_every_element_by_index_equals_the_default(amp,
                                                                 with_prev):
    args, x = _problem("default", amp, with_prev)
    mesh, dofmap, params, slip, template, b_prev = args
    q = dofmap.unpack(x, template.a1, template.a2, template.b)
    every = np.arange(mesh.n_triangles)
    for need_grad in (False, True):
        bd, diss, grads = _assemble(mesh, *q, params, slip, b_prev=b_prev,
                                    need_grad=need_grad)
        bd_i, diss_i, grads_i = _assemble(mesh, *q, params, slip,
                                          b_prev=b_prev, need_grad=need_grad,
                                          elems=every)
        for field in BREAKDOWN_FIELDS:
            assert getattr(bd_i, field) == getattr(bd, field), field
        assert diss_i == diss
        if need_grad:
            for g_i, g in zip(grads_i, grads):
                assert np.array_equal(g_i, g)
        else:
            assert grads is None and grads_i is None


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

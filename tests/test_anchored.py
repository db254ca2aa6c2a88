"""The anchored objective of the gradient check against the plain one: every
value equal bit for bit, whatever DOFs differ from the anchor."""

import numpy as np
import pytest

from kinkband import MaterialParams, SlipSystem, build_dofmap, build_structured_mesh
from kinkband.energy import _assemble
from kinkband.evolution import State, _anchored_objective, _make_objective

SLIPS = {
    "default": SlipSystem.default(),
    "rotated": SlipSystem(s=np.array([-np.sin(0.7), np.cos(0.7)]),
                          m=np.array([np.cos(0.7), np.sin(0.7)])),
}


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


def _points(x, mesh, dofmap, rng):
    """The anchor, every single-DOF central-difference point, multi-DOF and
    dense perturbations, large single-DOF moves, and the anchor again."""
    points = [x]
    for i in range(len(x)):
        for step in (1e-6, -1e-6):
            xp = x.copy()
            xp[i] += step
            points.append(xp)
    for k in (2, 3, 7, 40):
        for _ in range(5):
            xp = x.copy()
            idx = rng.choice(len(x), size=k, replace=False)
            xp[idx] += 1e-3 * rng.standard_normal(k)
            points.append(xp)
    node = 60                                   # an interior node: a1, a2, b
    xp = x.copy()
    for block in range(3):
        pos = block * mesh.n_nodes + node
        xp[int(np.flatnonzero(dofmap.free == pos)[0])] += 0.01
    points.append(xp)
    points.append(x + 1e-3 * rng.standard_normal(len(x)))
    for i in rng.choice(len(x), size=20, replace=False):
        xp = x.copy()
        xp[i] += 3.0 * rng.standard_normal()
        points.append(xp)
    points.append(x.copy())
    return points


def _mismatches(args, x, points):
    fun, _ = _make_objective(*args)
    anchored = _anchored_objective(*args, x)
    return [i for i, p in enumerate(points) if anchored(p) != fun(p)]


@pytest.mark.parametrize("slip_name", sorted(SLIPS))
@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("amp", [0.1, 5.0])
def test_anchored_values_equal_plain_values(slip_name, with_prev, amp):
    args, x = _problem(slip_name, amp, with_prev)
    mesh, dofmap = args[0], args[1]
    if amp > 1.0:                   # the anchor has penalty points
        a1, a2, b = dofmap.unpack(x, args[4].a1, args[4].a2, args[4].b)
        assert _assemble(mesh, a1, a2, b, *args[2:4])[0].penalty > 0.0
    points = _points(x, mesh, dofmap, np.random.default_rng(11))
    assert _mismatches(args, x, points) == []


def test_caches_are_built_on_the_first_call():
    args, x = _problem("default", 0.1, True)
    mesh = args[0]
    anchored = _anchored_objective(*args, x)
    assert "node_elements" not in vars(mesh)
    anchored(x)
    assert "node_elements" in vars(mesh)


def test_a_patch_missing_one_element_is_caught():
    # negative control: drop one element from one node's patch, and a
    # perturbation of that node's slip DOF no longer equals the plain value
    args, x = _problem("default", 0.1, True)
    mesh, dofmap = args[0], args[1]
    node = 60
    indptr, indices = mesh.node_elements
    assert indptr[node + 1] - indptr[node] == 6
    broken = (np.concatenate([indptr[:node + 1], indptr[node + 1:] - 1]),
              np.delete(indices, indptr[node]))
    vars(mesh)["node_elements"] = broken
    xp = x.copy()
    pos = 2 * mesh.n_nodes + node
    xp[int(np.flatnonzero(dofmap.free == pos)[0])] += 1e-3
    assert _mismatches(args, x, [x, xp]) == [1]

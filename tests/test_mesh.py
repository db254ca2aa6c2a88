import math
from dataclasses import FrozenInstanceError
from itertools import product

import numpy as np
import pytest

from kinkband.energy import _WEIGHTS, _at_points
from kinkband.mesh import (BOTTOM, INTERIOR, LATERAL, TOP, GeometryError,
                           _all_element_geometry, build_dofmap,
                           build_structured_mesh)


def exact_monomial_integral(v1, v2, v3, a, b):
    """Integral of x^a y^b over a triangle, by affine map to the reference.

    Expands the mapped monomial and uses int_ref s^i t^j = i! j! / (i+j+2)!,
    so it is independent of any quadrature rule.
    """
    v1, v2, v3 = (np.asarray(v) for v in (v1, v2, v3))
    e1, e2 = v2 - v1, v3 - v1
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])

    def expand(c, u, v, n):
        # (c + u s + v t)^n as {(i, j): coeff of s^i t^j}
        terms = {}
        for i, j in product(range(n + 1), repeat=2):
            if i + j > n:
                continue
            k = n - i - j
            coef = (math.factorial(n) // (math.factorial(i) * math.factorial(j)
                                          * math.factorial(k)))
            terms[(i, j)] = coef * (u ** i) * (v ** j) * (c ** k)
        return terms

    tx = expand(v1[0], e1[0], e2[0], a)
    ty = expand(v1[1], e1[1], e2[1], b)
    total = 0.0
    for (i1, j1), c1 in tx.items():
        for (i2, j2), c2 in ty.items():
            i, j = i1 + i2, j1 + j2
            total += c1 * c2 * (math.factorial(i) * math.factorial(j)
                                / math.factorial(i + j + 2))
    return total * jac


# ---------------------------------------------------------------------------
# build_structured_mesh


def test_smallest_mesh():
    mesh = build_structured_mesh(1, 1, 1, 1)
    assert mesh.n_nodes == 4
    assert mesh.n_triangles == 2
    assert mesh.total_area == pytest.approx(1.0, rel=1e-12)


def test_two_by_two_counts():
    mesh = build_structured_mesh(1, 1, 2, 2)
    assert mesh.n_nodes == 9
    assert mesh.n_triangles == 8


def _rectangle_loop(nx, ny):
    """The triangles' nodes, one row per triangle: rectangle by rectangle,
    row by row, each split along its diagonal n00-n11 into (n00, n10, n11)
    and (n00, n11, n01)."""
    expected = []
    for j in range(ny):
        for i in range(nx):
            n00 = j * (nx + 1) + i
            n11 = n00 + nx + 2
            expected += [(n00, n00 + 1, n11), (n00, n11, n11 - 1)]
    return expected


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 5), (5, 1), (4, 6), (34, 61)])
def test_triangles_are_the_rectangle_loop(nx, ny):
    expected = _rectangle_loop(nx, ny)
    corners = build_structured_mesh(42.0, 75.0, nx, ny).corners
    assert corners.dtype == np.int64 and corners.flags.c_contiguous
    assert np.array_equal(corners.T, expected)


def test_counting_formulas_and_area():
    mesh = build_structured_mesh(42, 75, 32, 57)
    assert mesh.n_nodes == 33 * 58 == 1914
    assert mesh.n_triangles == 2 * 32 * 57 == 3648
    assert mesh.total_area == pytest.approx(3150.0, rel=1e-10)


@pytest.mark.parametrize("args", [(0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 0, 1),
                                  (1, 1, 2, 0)])
def test_invalid_arguments(args):
    with pytest.raises(ValueError):
        build_structured_mesh(*args)


def test_positive_areas_and_gradient_sums():
    mesh = build_structured_mesh(3.5, 2.25, 7, 5)
    assert (mesh.element_area > 0).all()
    sums = mesh.grads.sum(axis=1)
    assert np.max(np.abs(sums)) < 1e-13


@pytest.mark.parametrize("nx,ny", [(4, 6), (34, 61)])
def test_geometry_is_the_per_triangle_formula(nx, ny):
    # each triangle on its own, from its three nodes in the rectangle loop:
    # twice the area is the cross product of two edges, and the hat of
    # corner i has the gradient (y_j - y_k, x_k - x_j) / 2A for (i, j, k) a
    # cyclic order; the mesh's arrays hold these bits, corner index first
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    nt = 2 * nx * ny
    area = np.empty(nt)
    grads = np.empty((2, 3, nt))
    for e, tri in enumerate(_rectangle_loop(nx, ny)):
        (x1, y1), (x2, y2), (x3, y3) = (mesh.nodes[n].tolist() for n in tri)
        two_a = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        area[e] = 0.5 * two_a
        grads[0, :, e] = [(y2 - y3) / two_a, (y3 - y1) / two_a,
                          (y1 - y2) / two_a]
        grads[1, :, e] = [(x3 - x2) / two_a, (x1 - x3) / two_a,
                          (x2 - x1) / two_a]
    assert mesh.grads.flags.c_contiguous and mesh.grads.shape == grads.shape
    assert np.array_equal(mesh.grads, grads)
    assert np.array_equal(mesh.element_area, area)


def test_vtk_cells_are_the_row_major_connectivity():
    nx, ny = 4, 6
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    nt = 2 * nx * ny
    want = (f"CELLS {nt} {4 * nt}\n"
            + "".join(f"3 {i} {j} {k}\n" for i, j, k in _rectangle_loop(nx, ny))
            + f"CELL_TYPES {nt}\n" + "5\n" * nt)
    assert mesh.vtk_cells == want


def test_mesh_is_immutable():
    # the cached slots and VTK text stay those of the mesh: no array can be
    # written and no field rebound
    mesh = build_structured_mesh(42.0, 75.0, 4, 6)
    for name in ("nodes", "corners", "boundary_tags", "element_area",
                 "grads", "slots"):
        a = getattr(mesh, name)
        with pytest.raises(ValueError):
            a[0] = a[1]
    with pytest.raises(ValueError):
        mesh.nodes[:, 1] *= 2.0
    for name in ("Lx", "nodes", "corners", "grads"):
        with pytest.raises(FrozenInstanceError):
            setattr(mesh, name, getattr(mesh, name))


# ---------------------------------------------------------------------------
# boundary tags


def test_unit_square_corner_precedence():
    mesh = build_structured_mesh(1, 1, 1, 1)
    coords = {tuple(p): t for p, t in zip(mesh.nodes, mesh.boundary_tags)}
    assert coords[(0.0, 0.0)] == BOTTOM
    assert coords[(1.0, 0.0)] == BOTTOM
    assert coords[(0.0, 1.0)] == TOP
    assert coords[(1.0, 1.0)] == TOP


def test_lateral_and_top_tags():
    mesh = build_structured_mesh(42, 75, 2, 2)
    coords = {tuple(p): t for p, t in zip(mesh.nodes, mesh.boundary_tags)}
    assert coords[(0.0, 37.5)] == LATERAL
    assert coords[(42.0, 37.5)] == LATERAL
    assert coords[(42.0, 75.0)] == TOP
    assert coords[(21.0, 37.5)] == INTERIOR


def test_tag_counts():
    nx, ny = 6, 9
    mesh = build_structured_mesh(10, 20, nx, ny)
    tags = mesh.boundary_tags
    assert (tags == BOTTOM).sum() == nx + 1
    assert (tags == TOP).sum() == nx + 1
    assert (tags == LATERAL).sum() == 2 * (ny - 1)
    assert (tags == INTERIOR).sum() == (nx - 1) * (ny - 1)


# ---------------------------------------------------------------------------
# element geometry


def _triangle_geometry(p1, p2, p3):
    """Area and hat-function gradients of one triangle, from the mesh's
    vectorized geometry."""
    area, grads = _all_element_geometry(np.array([p1, p2, p3], dtype=float),
                                        np.array([[0], [1], [2]]))
    return area[0], grads[:, :, 0].T


def test_reference_triangle_geometry():
    area, grads = _triangle_geometry((0, 0), (1, 0), (0, 1))
    assert area == pytest.approx(0.5)
    np.testing.assert_allclose(grads, [[-1, -1], [1, 0], [0, 1]], atol=1e-14)


def test_scaled_triangle_geometry():
    area, grads = _triangle_geometry((0, 0), (2, 0), (0, 2))
    assert area == pytest.approx(2.0)
    np.testing.assert_allclose(grads, np.array([[-1, -1], [1, 0], [0, 1]]) / 2,
                               atol=1e-14)


def test_random_triangle_gradient_sum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pts = rng.uniform(-2, 2, size=(3, 2))
        two_a = ((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                 - (pts[2, 0] - pts[0, 0]) * (pts[1, 1] - pts[0, 1]))
        if two_a < 1e-3:
            continue
        _, grads = _triangle_geometry(*pts)
        assert np.max(np.abs(grads.sum(axis=0))) < 1e-12


def test_degenerate_triangle_raises():
    with pytest.raises(GeometryError):
        _triangle_geometry((0, 0), (1, 1), (2, 2))
    with pytest.raises(GeometryError):
        _triangle_geometry((0, 0), (1, 0), (2, 0))


# ---------------------------------------------------------------------------
# quadrature: the rule the assembly kernel runs


def _rule_points():
    """(nq, 3) barycentric coordinates of the kernel's points: column c is
    ``_at_points`` of the hat function of corner c."""
    return _at_points(np.eye(3))


def test_partition_of_unity():
    points = _rule_points()
    assert np.max(np.abs(points.sum(axis=1) - 1.0)) < 1e-12
    assert _WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
    assert (_WEIGHTS > 0).all()


def test_quadrature_exact_for_quadratics():
    points = _rule_points()
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.uniform(-1.5, 1.5, size=(3, 2))
        two_a = ((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                 - (pts[2, 0] - pts[0, 0]) * (pts[1, 1] - pts[0, 1]))
        if two_a < 1e-2:
            continue
        area = 0.5 * abs(two_a)
        qpoints = points @ pts                            # physical positions
        for a, b in ((2, 0), (1, 1), (0, 2)):
            approx = area * np.sum(_WEIGHTS
                                   * qpoints[:, 0] ** a * qpoints[:, 1] ** b)
            exact = exact_monomial_integral(pts[0], pts[1], pts[2], a, b)
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# DofMap


def test_dofmap_index_sets(mesh_4x6):
    dm = build_dofmap(mesh_4x6)
    tags = mesh_4x6.boundary_tags
    n = mesh_4x6.n_nodes
    # positions in [a1, a2, b], ascending, so the packed blocks keep that order
    assert (np.diff(dm.free) > 0).all()
    assert 0 <= dm.free[0] and dm.free[-1] < 3 * n
    block = dm.free // n
    assert (dm.pack(np.array((np.zeros(n), np.ones(n), np.full(n, 2.0))))
            == block).all()
    free_a1, free_a2, free_b = (dm.free[block == k] - k * n for k in range(3))
    assert (free_a1 == np.flatnonzero(tags == INTERIOR)).all()
    assert (free_a2 == np.flatnonzero((tags != BOTTOM) & (tags != TOP))).all()
    assert (free_b == np.arange(n)).all()
    assert (tags[free_a1] == INTERIOR).all()
    assert not np.isin(tags[free_a2], (BOTTOM, TOP)).any()
    assert len(free_b) == mesh_4x6.n_nodes
    # lateral nodes move only vertically: they are a2-free but not a1-free
    lateral = np.flatnonzero(tags == LATERAL)
    assert np.isin(lateral, free_a2).all()
    assert not np.isin(lateral, free_a1).any()


def test_pack_unpack_roundtrip(mesh_4x6):
    dm = build_dofmap(mesh_4x6)
    rng = np.random.default_rng(5)
    a1 = rng.standard_normal(mesh_4x6.n_nodes)
    a2 = rng.standard_normal(mesh_4x6.n_nodes)
    b = rng.standard_normal(mesh_4x6.n_nodes)
    q = np.array((a1, a2, b))
    a1, a2, b = q
    for _ in range(10):
        v = rng.standard_normal(len(dm.free))
        assert (dm.pack(dm.unpack(v, q)) == v).all()
    # unpack keeps fixed entries
    v = rng.standard_normal(len(dm.free))
    before = [a.copy() for a in (a1, a2, b)]
    na1, na2, nb = dm.unpack(v, q)
    fixed_a1 = np.setdiff1d(np.arange(mesh_4x6.n_nodes),
                            dm.free[dm.free < mesh_4x6.n_nodes])
    assert (na1[fixed_a1] == a1[fixed_a1]).all()
    # and returns copies: the inputs are unchanged and share no memory
    for new, old, kept in zip((na1, na2, nb), (a1, a2, b), before):
        assert not np.shares_memory(new, old)
        assert (old == kept).all()


def test_p1_interpolation_exact_for_affine(mesh_4x6):
    # the elementwise gradient of the interpolant of f(x) = c . x equals c
    c = np.array([0.75, -1.25])
    vals = mesh_4x6.nodes @ c
    g = np.einsum("ie,jie->ej", vals[mesh_4x6.corners], mesh_4x6.grads)
    np.testing.assert_allclose(g, np.broadcast_to(c, g.shape), atol=1e-12)

"""Structured triangulations of a rectangle, boundary tags, and DOF packing."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Node tag codes.  Corners receive the highest-precedence tag:
# bottom > top > lateral.
INTERIOR = 0
BOTTOM = 1
TOP = 2
LEFT = 3
RIGHT = 4


class GeometryError(ValueError):
    """Degenerate (zero or negative area) element geometry."""


@dataclass
class QuadratureRule:
    """Quadrature on the reference triangle in barycentric coordinates.

    Weights are area-normalized (they sum to 1); multiply by the element
    area to integrate.
    """

    points: np.ndarray  # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,) positive, summing to 1


def midpoint_rule() -> QuadratureRule:
    """Three-point edge-midpoint rule, exact for polynomials of degree <= 2."""
    pts = np.array([[0.5, 0.5, 0.0],
                    [0.0, 0.5, 0.5],
                    [0.5, 0.0, 0.5]])
    return QuadratureRule(points=pts, weights=np.full(3, 1.0 / 3.0))


@dataclass
class Mesh2D:
    """Triangulated rectangle (0, Lx) x (0, Ly) with P1 element geometry.

    Immutable after construction; safe for concurrent reads.
    """

    Lx: float
    Ly: float
    nodes: np.ndarray            # (n_nodes, 2) reference coordinates [mm]
    triangles: np.ndarray        # (n_tri, 3) node indices, counter-clockwise
    boundary_tags: np.ndarray    # (n_nodes,) tag codes
    element_area: np.ndarray     # (n_tri,) [mm^2]
    basis_gradients: np.ndarray  # (n_tri, 3, 2) gradients of the hat functions [1/mm]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def total_area(self) -> float:
        return float(self.element_area.sum())

    @cached_property
    def node_elements(self):
        """Node-to-element map in CSR form, built on first use: the elements
        containing node i are ``indices[indptr[i]:indptr[i + 1]]``, ascending.
        Returns (indptr, indices), both read-only."""
        flat = self.triangles.ravel()
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.n_nodes), out=indptr[1:])
        # a stable sort of the corner slots 3e + c by node keeps each node's
        # elements ascending, since a node is a corner of an element once
        indices = np.argsort(flat, kind="stable") // 3
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    def elements_at(self, nodes) -> np.ndarray:
        """Ascending indices of the elements that contain any of ``nodes``;
        for one node, a view of ``node_elements``."""
        indptr, indices = self.node_elements
        patches = [indices[indptr[i]:indptr[i + 1]] for i in nodes]
        if len(patches) == 1:
            return patches[0]
        hit = np.zeros(self.n_triangles, dtype=bool)
        for patch in patches:
            hit[patch] = True
        return np.flatnonzero(hit)


def _triangle_geometry(p1, p2, p3):
    """Area and hat-function gradients of one triangle from its vertices."""
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    two_a = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if two_a <= 0.0:
        raise GeometryError(f"degenerate or inverted triangle, 2A = {two_a}")
    grads = np.array([[y2 - y3, x3 - x2],
                      [y3 - y1, x1 - x3],
                      [y1 - y2, x2 - x1]]) / two_a
    return 0.5 * two_a, grads


def element_geometry(mesh: Mesh2D, e: int):
    """Area and basis gradients of element ``e``, recomputed from coordinates."""
    if not 0 <= e < mesh.n_triangles:
        raise IndexError(f"element index {e} out of range")
    tri = mesh.triangles[e]
    return _triangle_geometry(*mesh.nodes[tri])


def _all_element_geometry(nodes, triangles):
    p1 = nodes[triangles[:, 0]]
    p2 = nodes[triangles[:, 1]]
    p3 = nodes[triangles[:, 2]]
    two_a = ((p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
             - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1]))
    if np.any(two_a <= 0.0):
        bad = int(np.argmax(two_a <= 0.0))
        raise GeometryError(f"degenerate or inverted triangle at index {bad}")
    grads = np.empty((len(triangles), 3, 2))
    grads[:, 0, 0] = p2[:, 1] - p3[:, 1]
    grads[:, 0, 1] = p3[:, 0] - p2[:, 0]
    grads[:, 1, 0] = p3[:, 1] - p1[:, 1]
    grads[:, 1, 1] = p1[:, 0] - p3[:, 0]
    grads[:, 2, 0] = p1[:, 1] - p2[:, 1]
    grads[:, 2, 1] = p2[:, 0] - p1[:, 0]
    grads /= two_a[:, None, None]
    return 0.5 * two_a, grads


def classify_boundary(mesh: Mesh2D) -> Mesh2D:
    """Fill per-node boundary tags from coordinates.

    Nodes with x2 = 0 are bottom, x2 = Ly top, remaining x1 in {0, Lx}
    left/right; corner precedence bottom > top > lateral.
    """
    x = mesh.nodes[:, 0]
    y = mesh.nodes[:, 1]
    tol = 1e-9 * max(mesh.Lx, mesh.Ly)
    tags = np.full(mesh.n_nodes, INTERIOR, dtype=np.int64)
    tags[np.abs(x - mesh.Lx) < tol] = RIGHT
    tags[np.abs(x) < tol] = LEFT
    tags[np.abs(y - mesh.Ly) < tol] = TOP
    tags[np.abs(y) < tol] = BOTTOM
    mesh.boundary_tags = tags
    return mesh


def build_structured_mesh(Lx: float, Ly: float, nx: int, ny: int) -> Mesh2D:
    """Structured mesh of nx-by-ny rectangles, each split along the same diagonal.

    Produces (nx+1)(ny+1) nodes and 2*nx*ny counter-clockwise triangles.
    """
    if not (Lx > 0 and Ly > 0):
        raise ValueError(f"domain dimensions must be positive, got Lx={Lx}, Ly={Ly}")
    if not (nx >= 1 and ny >= 1):
        raise ValueError(f"subdivisions must be at least 1, got nx={nx}, ny={ny}")
    nx, ny = int(nx), int(ny)

    xs = np.linspace(0.0, Lx, nx + 1)
    ys = np.linspace(0.0, Ly, ny + 1)
    xv, yv = np.meshgrid(xs, ys)                     # row-major by rows of constant y
    nodes = np.column_stack([xv.ravel(), yv.ravel()])

    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    k = 0
    for j in range(ny):
        row = j * (nx + 1)
        for i in range(nx):
            n00 = row + i
            n10 = n00 + 1
            n01 = n00 + nx + 1
            n11 = n01 + 1
            tris[k] = (n00, n10, n11)                # diagonal n00-n11 everywhere
            tris[k + 1] = (n00, n11, n01)
            k += 2

    area, grads = _all_element_geometry(nodes, tris)
    mesh = Mesh2D(Lx=float(Lx), Ly=float(Ly), nodes=nodes, triangles=tris,
                  boundary_tags=np.zeros(len(nodes), dtype=np.int64),
                  element_area=area, basis_gradients=grads)
    return classify_boundary(mesh)


@dataclass
class DofMap:
    """The free/fixed split of the nodal vector [a1, a2, b] (length 3n).

    ``free`` holds the ascending positions of the free coefficients in that
    vector, so the packed layout is the free entries of a1, then of a2, then
    of b.  Horizontal displacements are fixed on the whole boundary,
    vertical ones on bottom and top; the slip field is free everywhere.
    Every other entry is fixed and prescribed by the boundary program.
    """

    free: np.ndarray

    @property
    def n_free(self) -> int:
        return len(self.free)

    def pack(self, a1, a2, b) -> np.ndarray:
        return np.concatenate((a1, a2, b))[self.free]

    def unpack(self, x, a1, a2, b) -> np.ndarray:
        """Scatter a flat vector into a copy of the nodal arrays (fixed
        entries kept); returns a (3, n) array whose rows are a1, a2, b."""
        q = np.concatenate((a1, a2, b))
        q[self.free] = x
        return q.reshape(3, -1)


def build_dofmap(mesh: Mesh2D) -> DofMap:
    """Free positions from boundary tags: a1 interior-only, a2 also lateral."""
    tags = mesh.boundary_tags
    free = np.flatnonzero(np.concatenate((
        tags == INTERIOR, (tags != BOTTOM) & (tags != TOP),
        np.ones(mesh.n_nodes, dtype=bool))))
    return DofMap(free=free)

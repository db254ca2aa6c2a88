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


@dataclass(frozen=True, eq=False)
class CornerMajor:
    """Per-element geometry of a mesh with the corner index c first."""

    triangles: np.ndarray  # (3, n_tri) node of corner c of each element
    grads: np.ndarray      # (2, 3, n_tri) d/dx1, d/dx2 of corner c's hat [1/mm]
    n_nodes: int

    @cached_property
    def slots(self) -> np.ndarray:
        """(3 * 3 n_tri,) entry 3 (k n_tri + e) + c is the position of corner
        c of element e in block k of the nodal vector [a1, a2, b] (length
        3n); built on first use, as only gradients need it."""
        slots = (self.triangles.T.ravel()
                 + self.n_nodes * np.arange(3)[:, None]).ravel()
        slots.flags.writeable = False
        return slots


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
    def corner_major(self) -> CornerMajor:
        """The element geometry with the corner index first, as the assembly
        kernel reads it, built on first use; its arrays are read-only."""
        tri = np.ascontiguousarray(self.triangles.T)
        grads = np.ascontiguousarray(self.basis_gradients.transpose(2, 1, 0))
        tri.flags.writeable = grads.flags.writeable = False
        return CornerMajor(triangles=tri, grads=grads, n_nodes=self.n_nodes)

    @cached_property
    def vtk_cells(self) -> str:
        """The CELLS and CELL_TYPES blocks of this mesh's VTK snapshots."""
        nt = self.n_triangles
        return (f"CELLS {nt} {4 * nt}\n"
                + ("3 %d %d %d\n" * nt) % tuple(self.triangles.ravel().tolist())
                + f"CELL_TYPES {nt}\n" + "5\n" * nt)


def _all_element_geometry(nodes, triangles):
    """Areas and hat-function gradients of every triangle from its vertices."""
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

    # lower-left node of each rectangle, row by row; its two triangles
    # (n00, n10, n11) and (n00, n11, n01) share the diagonal n00-n11
    n00 = (np.arange(ny, dtype=np.int64)[:, None] * (nx + 1)
           + np.arange(nx, dtype=np.int64)).ravel()
    n11 = n00 + nx + 2
    tris = np.column_stack((n00, n00 + 1, n11, n00, n11, n11 - 1)).reshape(-1, 3)

    # nodes with y = 0 are bottom, y = Ly top, the others with x in {0, Lx}
    # left/right; a later assignment wins, so corners go bottom > top > lateral
    x, y = nodes.T
    tol = 1e-9 * max(Lx, Ly)
    tags = np.full(len(nodes), INTERIOR, dtype=np.int64)
    tags[np.abs(x - Lx) < tol] = RIGHT
    tags[np.abs(x) < tol] = LEFT
    tags[np.abs(y - Ly) < tol] = TOP
    tags[np.abs(y) < tol] = BOTTOM

    area, grads = _all_element_geometry(nodes, tris)
    return Mesh2D(Lx=float(Lx), Ly=float(Ly), nodes=nodes, triangles=tris,
                  boundary_tags=tags, element_area=area, basis_gradients=grads)


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
    n_nodes: int

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
    return DofMap(free=free, n_nodes=mesh.n_nodes)

"""Structured triangulations of a rectangle, boundary tags, and DOF packing."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Node tag codes.  Corners receive the highest-precedence tag:
# bottom > top > lateral.
INTERIOR = 0
BOTTOM = 1
TOP = 2
LATERAL = 3


class GeometryError(ValueError):
    """Degenerate (zero or negative area) element geometry."""


@dataclass(frozen=True, eq=False)
class Mesh2D:
    """Triangulated rectangle (0, Lx) x (0, Ly) with P1 element geometry,
    the corner index c first, as the assembly kernel reads it.

    Immutable: the fields cannot be rebound and the arrays are read-only, so
    the cached ``slots`` and ``vtk_cells``, the only products it keeps,
    always match; safe for concurrent reads.
    """

    Lx: float
    Ly: float
    nodes: np.ndarray            # (n_nodes, 2) reference coordinates [mm]
    corners: np.ndarray          # (3, n_tri) node of corner c, counter-clockwise
    boundary_tags: np.ndarray    # (n_nodes,) tag codes
    element_area: np.ndarray     # (n_tri,) [mm^2]
    grads: np.ndarray            # (2, 3, n_tri) d/dx1, d/dx2 of corner c's hat [1/mm]

    def __post_init__(self):
        for a in (self.nodes, self.corners, self.boundary_tags,
                  self.element_area, self.grads):
            a.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return self.corners.shape[1]

    @property
    def total_area(self) -> float:
        return float(self.element_area.sum())

    @cached_property
    def slots(self) -> np.ndarray:
        """(3 * 3 n_tri,) entry 3 (k n_tri + e) + c is the position of corner
        c of element e in block k of the nodal vector [a1, a2, b] (length
        3n); built on first use, as only gradients need it."""
        slots = (self.corners.T.ravel()
                 + self.n_nodes * np.arange(3)[:, None]).ravel()
        slots.flags.writeable = False
        return slots

    @cached_property
    def vtk_cells(self) -> str:
        """The CELLS and CELL_TYPES blocks of this mesh's VTK snapshots."""
        nt = self.n_triangles
        return (f"CELLS {nt} {4 * nt}\n"
                + ("3 %d %d %d\n" * nt) % tuple(self.corners.T.ravel().tolist())
                + f"CELL_TYPES {nt}\n" + "5\n" * nt)


def _all_element_geometry(nodes, corners):
    """Areas (n_tri,) and hat-function gradients (2, 3, n_tri) of every
    triangle from the nodes of its (3, n_tri) corners."""
    (x1, x2, x3), (y1, y2, y3) = nodes.T[:, corners]
    two_a = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if np.any(two_a <= 0.0):
        bad = int(np.argmax(two_a <= 0.0))
        raise GeometryError(f"degenerate or inverted triangle at index {bad}")
    grads = np.empty((2, 3, len(two_a)))
    grads[0] = y2 - y3, y3 - y1, y1 - y2
    grads[1] = x3 - x2, x1 - x3, x2 - x1
    grads /= two_a
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
    corners = np.column_stack(
        (n00, n00 + 1, n11, n00, n11, n11 - 1)).reshape(-1, 3).T.copy()

    # nodes with y = 0 are bottom, y = Ly top, the others with x in {0, Lx}
    # lateral; a later assignment wins, so corners go bottom > top > lateral
    x, y = nodes.T
    tol = 1e-9 * max(Lx, Ly)
    tags = np.full(len(nodes), INTERIOR, dtype=np.int64)
    tags[(np.abs(x) < tol) | (np.abs(x - Lx) < tol)] = LATERAL
    tags[np.abs(y - Ly) < tol] = TOP
    tags[np.abs(y) < tol] = BOTTOM

    area, grads = _all_element_geometry(nodes, corners)
    return Mesh2D(Lx=float(Lx), Ly=float(Ly), nodes=nodes, corners=corners,
                  boundary_tags=tags, element_area=area, grads=grads)


class RowBlocks(NamedTuple):
    """The block-tridiagonal layout of a matrix over the nodal vector
    [a1, a2, b] (length 3n) of a mesh whose nodes are numbered row by row, w
    to a row, and where the entries of the element Hessians land in it.

    Block j holds node row j, and entry (field f, node v) sits in block
    v // w at position f w + v % w, so every block has m = 3 w positions.
    An element that spans two adjacent rows couples only their blocks.  A
    band is the elements between node rows j and j + 1; the elements come
    band by band, so the bands from j to k - 1 are the element slice
    ``start[j]:start[k]``.  Band j fills a stretch of 2 m^2 + 1 bins, each
    block row-major: D_j, the diagonal block of row j; B_j+1, the coupling
    H[row j + 1, row j]; one bin that is discarded; and the next band's
    stretch begins with D_j+1.  An entry at positions p and r, on local
    rows u and w of its band (0 for row j, 1 for row j + 1), lands
    (u + w) m^2 + p m + r bins into the stretch, plus 1 when u = w = 1,
    except that the upper coupling (u = 0, w = 1), which mirrors B, and
    every entry at a fixed DOF land in the discarded bin, 2 m^2.

    Those 81 bins depend on the element only through its columns and its
    fixed DOFs, so most elements share them with elements of other bands:
    each element keeps the index of its row of ``pattern``, and the table
    lives as long as the problem at 19 kB at 20x36 (81 bins per element
    would take 0.23 MB)."""

    row: np.ndarray         # (3n,) block of each entry
    pos: np.ndarray         # (3n,) position of each entry in its block
    free: np.ndarray        # (3n,) bool, the entry is a free DOF
    count: int              # number of blocks, the node rows
    size: int               # positions per block, 3 w
    fixed_row: np.ndarray   # (fixed,) block of each fixed entry
    fixed_at: np.ndarray    # (fixed,) its diagonal entry in the flat block
    band: np.ndarray        # (n_tri,) the band of each element, ascending
    start: np.ndarray       # (count,) the first element of band j
    kind: np.ndarray        # (n_tri,) the pattern of each element
    pattern: np.ndarray     # (kinds, 81) bins of entry (local DOF, local
    # DOF) in the band's stretch, unsigned, as narrow as 3 m^2 allows


@dataclass
class DofMap:
    """The free/fixed split of the (3, n) nodal values q, rows a1, a2, b.

    ``free`` holds the ascending positions of the free coefficients in
    q.ravel(), the nodal vector [a1, a2, b] (length 3n), so the packed
    layout is the free entries of a1, then of a2, then of b.  Horizontal
    displacements are fixed on the whole boundary, vertical ones on bottom
    and top; the slip field is free everywhere.
    Every other entry is fixed and prescribed by the boundary program.
    ``grid`` is (rows, nodes per row) of the node numbering, row by row,
    and ``corners`` the mesh's (3, n_tri) element corners, as in ``Mesh2D``.
    """

    free: np.ndarray
    grid: tuple[int, int]
    corners: np.ndarray

    @cached_property
    def row_blocks(self) -> RowBlocks:
        """The Hessian's layout, one block per node row, with the bin of
        every element Hessian entry in it; built on first use, as only the
        stability certificate needs it.  Local DOF 3 f + c is corner c of
        field f, the order of ``Mesh2D.slots``.  Each element must span at
        most two adjacent node rows, and the elements must be numbered band
        by band, as ``build_structured_mesh`` numbers them; a ValueError
        says so when the bands ever decrease."""
        rows, width = self.grid
        m = 3 * width
        field, node = np.divmod(np.arange(3 * rows * width), rows * width)
        row, pos = node // width, field * width + node % width
        free = np.zeros(len(node), dtype=bool)
        free[self.free] = True
        corners = self.corners
        band = (corners // width).min(axis=0)
        if np.any(band[1:] < band[:-1]):
            raise ValueError("the certificate's Hessian needs the elements "
                             "numbered band by band, the bands ascending")
        # an element's bins follow from each corner's row in the band, its
        # column and its fixed fields: one key per corner, one per element
        fixed = (~free).reshape(3, -1)
        nodes = fixed.shape[1]
        node_key = (np.arange(nodes) % width * 8
                    + fixed[0] + 2 * fixed[1] + 4 * fixed[2])
        corner_key = node_key[corners] + 8 * width * (corners // width - band)
        key = (corner_key[0] * 16 * width + corner_key[1]) * 16 * width \
            + corner_key[2]
        _, first, kind = np.unique(key, return_index=True, return_inverse=True)
        at = (corners[:, first][None]
              + nodes * np.arange(3)[:, None, None]).reshape(9, -1)
        up = row[at] - band[first]              # (9, kinds), 0 or 1
        pos_at, free_at = pos[at], free[at]
        pattern = ((up[:, None] + up) * m + pos_at[:, None]) * m + pos_at \
            + (up[:, None] & up)
        pattern[(up[:, None] < up) | ~(free_at[:, None] & free_at)] = 2 * m * m
        pattern = pattern.reshape(81, -1).T.astype(
            np.min_scalar_type(3 * m * m))
        lay = RowBlocks(row, pos, free, rows, m, row[~free],
                        pos[~free] * (m + 1), band,
                        np.searchsorted(band, np.arange(rows)), kind, pattern)
        for a in lay:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return lay

    def pack(self, q) -> np.ndarray:
        """The free entries of the (3, n) nodal values q, rows a1, a2, b."""
        return q.ravel()[self.free]

    def unpack(self, x, q) -> np.ndarray:
        """A copy of the (3, n) nodal values q with the free entries set to
        the flat vector x (fixed entries kept)."""
        out = q.copy()
        out.reshape(-1)[self.free] = x
        return out


def build_dofmap(mesh: Mesh2D) -> DofMap:
    """Free positions from boundary tags: a1 interior-only, a2 also lateral.
    The bottom row is the nodes tagged BOTTOM (corners included)."""
    tags = mesh.boundary_tags
    free = np.flatnonzero(np.concatenate((
        tags == INTERIOR, (tags != BOTTOM) & (tags != TOP),
        np.ones(mesh.n_nodes, dtype=bool))))
    width = int(np.count_nonzero(tags == BOTTOM))
    return DofMap(free=free, grid=(mesh.n_nodes // width, width),
                  corners=mesh.corners)

"""Stored energy, smoothed dissipation, and their gradients over free DOFs.

The stored-energy density per unit reference area is

    W(Fe) = C (|Fe|^p - 2^{p/2} - 2 log det Fe) + D (det Fe - 1)^2
            + aniso |Fe m|^2                       [MPa]

with |.| the Frobenius norm, plus the slip terms

    beta (2 + gamma^2)^{r/2}  +  eps_grad |grad gamma|^2 ,

the second being eps_grad |grad Fp|^2 for unit s and m.  Where
det Fe <= det_floor the elastic density is replaced by the flat penalty
det_penalty and its gradient contribution is zero; both guards are
constants (1e-8 and 1e6 MPa), not material parameters.  The smoothed
dissipation between two slip fields is

    sigma * integral sqrt(delta^2 + (gamma1 - gamma2)^2) dx .

``material_law`` is the one pointwise copy of W, of the hardening and of
their derivatives; the solver, the diagnostics and the tests all call it.
It works in the slip frame.  With P = I - gamma s (x) m, Fe = grad y P
maps s and m to

    a = Fe s = grad y s ,   e = Fe m = grad y m - gamma a ,

so |Fe|^2 = |a|^2 + |e|^2, |Fe m|^2 = |e|^2 and det Fe = a1 e0 - a0 e1,
as m is s turned clockwise (det [s m] = -1).  a and grad y m are element
constants, formed once per element, so only e and what follows is formed
per point.  These identities assume a unit s; ``SlipSystem`` checks that
to 1e-9, so they hold to that tolerance.  The derivative comes back as the
frame rows P = S s - gamma S m and M = S m, S = dW/dFe, from which the
kernel forms dW/d(grad y) = P (x) s + M (x) m after averaging.  The one
quadrature is the edge-midpoint rule: ``_at_points`` takes a P1 field from
its corners to the 3 points, ``_to_corners`` is its transpose and
``_WEIGHTS`` holds the weights.  The one kernel, ``_integrate``, takes
what it reads: the gradient rows of a1, a2 and b, (k,) arrays, and gamma
at the points, (3, k), row q for point q, so element constants broadcast.
A configuration is one (3, n) array q of nodal values, rows a1, a2 and b.
Every reader of q gathers its corners in one ``np.take(q, Mesh2D.corners,
axis=1)``, a (field, corner, element) array (the equal ``q[:, corners]``
takes numpy's mixed slice-and-index path, 3.5 to 4 times slower at
20x36), and forms the gradient rows from it with ``_gradient_rows``.  The
kernel's two callers scatter by ``Mesh2D.slots``: ``_assemble`` forms both
inputs from the corners and scatters element vectors; the gradient check's
sweep (``_patch_oracle``) scatters element integrals, and per pass
recomputes only the moved field's rows, and gamma only for b.  Every sum
keeps the order of the original einsum kernel (frozen in
tests/seed_kernel.py), so for axis-aligned slip systems the results are
bit-identical to it (for rotated ones the seed's stacked matmul fused
multiply-adds, so the two agree to rounding):

- |Fe|^2 is (F00^2 + F10^2) + (F01^2 + F11^2), other contractions sum left
  to right; the frame law drops only products by 0 or +-1 and sums with a
  zero, and keeps every other sum up to commutation, so it rounds as the
  seed's Fe does (up to the sign of a zero);
- a point's value is 0.5 v_i + 0.5 v_j over the two corners of its edge,
  and a corner's slip force the same two-term sum over its two points, as
  the matmuls by the rule's barycentric points (exact products) give them;
- the integrands are copied into one C-ordered (integrand, element, point)
  buffer for one batched BLAS ``@ weights``, which sums each element's row
  as ``(k, 3) @ weights`` of that integrand alone does, and each integral
  is then ``area @ row``;
- the nodal gradient blocks are one element-order ``bincount`` over
  [a1, a2, b], so each node sums its elements in ascending order;
- the penalty masks are applied only where some point is inadmissible.

The second derivatives come from the same law (``derivatives=2``): the
Jacobian of the frame rows in (a, grad y m, gamma), formed on whole arrays
(``_frame_jacobian``: the 4x4 Hessian in (a, e) as one contraction of its
two rank-one terms, then its blocks), exactly symmetric.
``_element_hessians`` turns them, with the same quadrature, into 9x9
element matrices by one contraction with each element's frame gradients
(its hat gradients along s and m) and broadcast products, adding the slip
gradient's term grad phi_c . grad phi_d, per chunk; the rule's weights are
equal, so the point values are summed and weighted once, with the area.
``hessian_rows`` assembles the stored energy's Hessian over the free DOFs,
one block per node row, for the stability certificate: the elements come
band by band, so a chunk of bands is an element slice, and one
``bincount`` per chunk (one at 10x18, three at 20x36) scatters its element
matrices straight into its row blocks, at bins computed once per problem
(``DofMap.row_blocks``), and ``_certified`` factors the rows by block
Cholesky.  Only ``mesh``, which lays out the rows, and ``hessian_rows``,
which fills them, know that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .kinematics import SlipSystem
from .mesh import DofMap, Mesh2D

_WEIGHTS = np.full(3, 1.0 / 3.0)       # summing to 1: times area integrates
# elements whose Hessians ``hessian_rows`` forms and scatters at once
_HESSIAN_CHUNK = 500


@dataclass
class MaterialParams:
    """Constitutive and regularization constants, N-mm-MPa units.

    Defaults are the reference compression setup: C = 0.6 GPa, D = 0.2 GPa,
    aniso = 0.1 GPa, beta = 20 kPa, eps_grad = 500 N, sigma = 1 kPa,
    delta = 1e-5.  The model only constrains the growth exponent to p > 2;
    see the README for why the default sits just above 2.
    """

    C: float = 600.0            # MPa
    D: float = 200.0            # MPa
    aniso: float = 100.0        # MPa, coefficient of |Fe m|^2
    beta: float = 0.02          # MPa
    eps_grad: float = 500.0     # N (= MPa mm^2)
    sigma: float = 0.001        # MPa, slip resistance
    p: float = 2.2              # growth exponent, > 2
    r: float = 2.0              # hardening exponent
    delta: float = 1e-5         # dissipation smoothing
    det_penalty: ClassVar[float] = 1e6    # MPa, density where det Fe <= det_floor
    det_floor: ClassVar[float] = 1e-8

    def validate(self) -> None:
        """Raise ValueError whose message starts with the bad field's name."""
        for name in ("C", "D", "aniso", "eps_grad", "sigma", "delta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if not self.p > 2:
            raise ValueError(f"p must exceed 2, got {self.p}")
        if not self.r >= 1:
            raise ValueError(f"r must be at least 1, got {self.r}")


@dataclass
class EnergyBreakdown:
    """Stored energy split by term; total excludes dissipation.  [N mm]"""

    elastic: float
    hardening: float
    slip_gradient: float
    penalty: float
    total: float


def _check_lengths(mesh: Mesh2D, *arrays):
    for a in arrays:
        if len(a) != mesh.n_nodes:
            raise ValueError(
                f"nodal array length {len(a)} does not match mesh with "
                f"{mesh.n_nodes} nodes")


def _p1_gradient(vt, grads):
    """Element gradient (d/dx1, d/dx2) of a P1 field from its (3, nt) corner
    values and (2, 3, nt) hat gradients, two (nt,) arrays in corner order."""
    gx, gy = grads
    return (vt[0] * gx[0] + vt[1] * gx[1] + vt[2] * gx[2],
            vt[0] * gy[0] + vt[1] * gy[1] + vt[2] * gy[2])


def _gradient_rows(v, grads):
    """One ``_p1_gradient`` pair per field of the (field, corner, element)
    corner values v, as ``np.take(q, corners, axis=1)`` gathers them."""
    return [_p1_gradient(vf, grads) for vf in v]


def element_grad_y(mesh: Mesh2D, q):
    """Element-constant grad y as components (Y00, Y01, Y10, Y11) and its
    determinant, which equals det Fe at every point (det P = 1), from the
    (3, n) nodal values q."""
    (y00, y01), (y10, y11) = _gradient_rows(
        np.take(q[:2], mesh.corners, axis=1), mesh.grads)
    return y00, y01, y10, y11, y00 * y11 - y01 * y10


def _at_points(vt):
    """A P1 field at the quadrature points, (3, nt), from its (3, nt) corner
    values: point q is the midpoint of edge (0, 1), (1, 2), (0, 2), so its
    value is 0.5 v_i + 0.5 v_j, the barycentric point of q times vt."""
    half = 0.5 * vt
    out = np.empty_like(half)
    np.add(half[:2], half[1:], out=out[:2])
    np.add(half[0], half[2], out=out[2])
    return out


def _to_corners(vq):
    """The transpose of ``_at_points``: corner c sums 0.5 v_q over the two
    points q on its edges."""
    half = 0.5 * vq
    out = np.empty_like(half)
    np.add(half[0], half[2], out=out[0])
    np.add(half[:2], half[1:], out=out[1:])
    return out


# the rule's barycentric values (point, corner) and their products at each
# point (point, corner, corner), which take the slip's curvature to corners
_BARY = _at_points(np.eye(3))
_BARY_PAIRS = _BARY[:, :, None] * _BARY[:, None]


def _field_at_points(mesh: Mesh2D, v):
    """A nodal P1 field at the quadrature points, (3, nt)."""
    return _at_points(v[mesh.corners])


def material_law(y00, y01, y10, y11, gam, params: MaterialParams,
                 slip: SlipSystem, derivatives=False):
    """The pointwise stored density from grad y, by its components, and gamma,
    arrays that broadcast to one shape: Fe = grad y P, P = I - gamma s (x) m.

    Returns ``(elastic, hardening, penalty, derivs)``: W(Fe), 0 at penalty
    points; beta (2 + gamma^2)^{r/2}; None when every point is admissible,
    else det_penalty at the penalty points and 0 elsewhere; and, with
    ``derivatives``, one array whose rows are the frame rows P0, P1, M0, M1
    and d_gamma (else None).  With S = dW/dFe, zero at penalty points,
    M = S m and P = S s - gamma M, so that dW/d(grad y) = S P^T has the
    entries P_i s_j + M_i m_j, and d_gamma = -a . M plus the hardening slope.

    The five rows are the gradient of the density in the frame variables
    v = (a0, a1, n0, n1, gamma), n = grad y m, so e = n - gamma a.  With
    ``derivatives=2`` 25 more rows follow, the Jacobian of those five in v,
    row-major: the second derivatives K of W in (a, e), chained through e,
    plus -M in the (a, gamma) entries (e is bilinear in gamma and a) and the
    hardening curvature in (gamma, gamma); the elastic part is zero at
    penalty points, as in the first derivatives.  The values are then not
    formed: elastic, hardening and penalty are None.
    """
    (s0, s1), (m0, m1) = slip.s.tolist(), slip.m.tolist()
    a0 = y00 * s0 + y01 * s1                    # a = grad_y s = Fe s
    a1 = y10 * s0 + y11 * s1
    e0 = (y00 * m0 + y01 * m1) - gam * a0       # e = grad_y m - gam a = Fe m
    e1 = (y10 * m0 + y11 * m1) - gam * a1
    fe2 = e0 * e0 + e1 * e1                     # |Fe m|^2
    frob2 = fe2 + (a0 * a0 + a1 * a1)           # |Fe|^2
    det = a1 * e0 - a0 * e1                     # det Fe, as det [s m] = -1
    ok = det > params.det_floor
    admissible = bool(ok.all())                 # no penalty point
    det_safe = det if admissible else np.where(ok, det, 1.0)
    if not derivatives:                 # a smaller peak of live arrays
        del e0, e1

    det_m1 = det - 1.0
    two_g2 = 2.0 + gam * gam
    elastic = hardening = penalty = None
    if derivatives < 2:                 # the Hessian reads no value
        elastic = ((params.C * (frob2 ** (params.p / 2.0)
                                - 2.0 ** (params.p / 2.0)
                                - 2.0 * np.log(det_safe))
                    + params.D * det_m1 ** 2)
                   + params.aniso * fe2)
        hardening = params.beta * two_g2 ** (params.r / 2.0)
        if not admissible:
            elastic[~ok] = 0.0
            penalty = np.where(ok, 0.0, params.det_penalty)
    del fe2
    if not derivatives:
        return elastic, hardening, penalty, None

    # S = coef_p Fe + c cof Fe + 2 aniso e (x) m on the smooth branch, with
    # c = 2 D (det - 1) - 2 C / det, cof Fe s = (-e1, e0) and cof Fe m =
    # (a1, -a0): coef_det = -c takes their signs.  Arrays are deleted after
    # their last read, for a smaller peak
    coef_p = params.C * params.p * frob2 ** (params.p / 2.0 - 1.0)
    coef_det = -2.0 * params.D * det_m1 + 2.0 * params.C / det_safe
    derivs = np.empty((5 if derivatives < 2 else 30,) + det.shape)
    del det, det_m1
    p0, p1, sm0, sm1, d_gam = derivs[:5]        # the rows averaged in one pass
    np.add(coef_p * a0, coef_det * e1, out=p0)              # S s
    np.subtract(coef_p * a1, coef_det * e0, out=p1)
    np.add(coef_p * e0 - coef_det * a1, 2.0 * params.aniso * e0, out=sm0)
    np.add(coef_p * e1 + coef_det * a0, 2.0 * params.aniso * e1, out=sm1)
    if not admissible:
        derivs[:4] *= ok
    if derivatives >= 2:
        _frame_jacobian(derivs[5:].reshape((5, 5) + det_safe.shape), a0, a1,
                        e0, e1, frob2, det_safe, coef_p, coef_det, sm0, sm1,
                        gam, two_g2, None if admissible else ok, params)
    del e0, e1, coef_p, coef_det, frob2, det_safe

    p0 -= gam * sm0                             # S s - gam S m
    p1 -= gam * sm1
    np.negative(a0 * sm0 + a1 * sm1, out=d_gam)
    d_gam += params.beta * params.r * two_g2 ** (params.r / 2.0 - 1.0) * gam
    return elastic, hardening, penalty, derivs


def _frame_jacobian(jac, a0, a1, e0, e1, frob2, det, coef_p, coef_det, sm0,
                    sm1, gam, two_g2, ok, params):
    """Write into ``jac`` (5, 5, ...) the Jacobian of the frame rows in
    v = (a0, a1, n0, n1, gamma), n = grad y m; ``ok`` masks the penalty
    points, or is None when there are none.

    In u = (a, e) the Hessian of W is K = coef_p I + c2 u u^T + f'' g g^T +
    f' Q + 2 aniso on the e diagonal: c2 = C p (p - 2) |Fe|^(p - 4), g =
    d det/du = (-e1, e0, a1, -a0), Q = d^2 det/du^2 (+1 at (a1, e0), -1 at
    (a0, e1)), and f' = -coef_det, f'' = 2 D + 2 C / det^2 the slope and
    curvature of W along det Fe.  As de = dn - gamma da - a dgamma:
    H_an = K_ae - gamma K_ee, H_aa = K_aa - gamma (K_ea + K_ae - gamma K_ee),
    H_nn = K_ee, H_agamma = -H_an a - M, H_ngamma = -K_ee a and
    H_gammagamma = a . K_ee a plus the hardening curvature.  Every product
    and sum is formed so that ``jac`` is exactly symmetric.
    """
    # c2 u u^T + f'' g g^T as one contraction over the two terms, each
    # vector scaled by the root of its coefficient (both are positive), so
    # that K is exactly symmetric
    root_c2 = (np.sqrt(params.C * params.p * (params.p - 2.0))
               * frob2 ** (params.p / 4.0 - 1.0))
    root_d2 = np.sqrt(2.0 * params.D + 2.0 * params.C / (det * det))
    scaled = np.empty((2, 4) + e0.shape)        # (term, entry, ...)
    for i, (u_i, g_i) in enumerate(((a0, -e1), (a1, e0), (e0, a1), (e1, -a0))):
        np.multiply(u_i, root_c2, out=scaled[0, i])
        np.multiply(g_i, root_d2, out=scaled[1, i])
    K = np.einsum("ai...,aj...->ij...", scaled, scaled)     # (4, 4, ...)
    del scaled
    a = np.empty((2,) + e0.shape)
    a[0], a[1] = a0, a1
    diag = K.reshape((16,) + K.shape[2:])[::5]  # a view of K's diagonal
    diag += coef_p
    diag[2:] += 2.0 * params.aniso
    K[1, 2] -= coef_det
    K[2, 1] -= coef_det
    K[0, 3] += coef_det
    K[3, 0] += coef_det
    if ok is not None:
        K *= ok
    k_aa, k_ae, k_ea, k_ee = K[:2, :2], K[:2, 2:], K[2:, :2], K[2:, 2:]
    h_an = k_ae - gam * k_ee
    h_aa = jac[:2, :2]
    np.add(k_ea, k_ae, out=h_aa)
    h_aa -= gam * k_ee
    h_aa *= gam
    np.subtract(k_aa, h_aa, out=h_aa)
    jac[:2, 2:4] = h_an
    jac[2:4, :2] = h_an.swapaxes(0, 1)
    jac[2:4, 2:4] = k_ee
    k_ee_a = (k_ee * a).sum(axis=1)
    np.subtract(-(h_an * a).sum(axis=1), (sm0, sm1), out=jac[:2, 4])
    np.negative(k_ee_a, out=jac[2:4, 4])
    jac[4, :4] = jac[:4, 4]
    jac[4, 4] = (a * k_ee_a).sum(axis=0)
    jac[4, 4] += (params.beta * params.r * two_g2 ** (params.r / 2.0 - 2.0)
                  * (2.0 + (params.r - 1.0) * gam * gam))


def _assemble(mesh: Mesh2D, q, params: MaterialParams, slip: SlipSystem,
              gam_prev=None, need_grad=False):
    """Quadrature assembly over a mesh from the (3, n) nodal values q, rows
    a1, a2, b: (breakdown, dissipation, grads), grads None or the (3, n)
    nodal gradients ga1, ga2, gb of I + D^delta.  ``gam_prev`` is the
    previous slip at the quadrature points, (3, nt) as ``_field_at_points``
    gives it, or None for no dissipation.  Each call forms every kernel
    input afresh from the gathered corners."""
    v = np.take(q, mesh.corners, axis=1)        # (field, corner, element)
    breakdown, diss, loc = _integrate(
        _gradient_rows(v, mesh.grads), _at_points(v[2]), mesh.grads,
        mesh.element_area, params, slip, gam_prev, need_grad,
        per_element=False)
    if loc is not None:
        loc = np.bincount(mesh.slots, weights=loc.ravel(),
                          minlength=3 * mesh.n_nodes).reshape(3, -1)
    return breakdown, diss, loc


def _patch_oracle(mesh: Mesh2D, q, params: MaterialParams, slip: SlipSystem,
                  gam_prev=None):
    """Coordinate oracle of the gradient check around the (3, n) nodal
    values q, rows a1, a2, b; ``gam_prev`` as for ``_assemble``.

    ``oracle(t)`` returns, for every entry i of the nodal vector [a1, a2,
    b] (length 3n), I + D^delta at q + t e_i over the elements of i's node
    patch only: the full value minus the integral over the other elements,
    which i does not enter, so its central differences are those of the
    full assembly.  The corner values, gradient rows and point slip at q
    are formed once; each call makes one kernel pass over the whole mesh
    per field and corner c, 9 in all, with corner c of that field moved by
    t in every element, and recomputes only that field's rows, and the
    slip only when b moves.  Each element's integral then sits at its
    (field, element, corner) slot, and the gradient's own ``slots``
    scatter sums it, in element order, into the entry at that corner.
    """
    v = np.take(q, mesh.corners, axis=1)        # (field, corner, element)
    base_rows = _gradient_rows(v, mesh.grads)
    base_gam = _at_points(v[2])

    def oracle(t):
        out = np.empty((3, mesh.n_triangles, 3))    # (field, element, corner)
        for field, corner in np.ndindex(3, 3):
            at_q = v[field, corner].copy()
            v[field, corner] += t
            rows = base_rows.copy()
            rows[field] = _p1_gradient(v[field], mesh.grads)
            gam = _at_points(v[2]) if field == 2 else base_gam
            v[field, corner] = at_q
            bd, diss, _ = _integrate(rows, gam, mesh.grads, mesh.element_area,
                                     params, slip, gam_prev, need_grad=False,
                                     per_element=True)
            out[field, :, corner] = bd.total + diss
        return np.bincount(mesh.slots, weights=out.ravel(),
                           minlength=3 * mesh.n_nodes)

    return oracle


def _integrate(rows, gam, grads, area, params, slip, gam_prev, need_grad,
               per_element):
    """The kernel of ``_assemble`` and ``_patch_oracle``: the gradient rows
    ((y00, y01), (y10, y11), (g0, g1)) of a1, a2 and b, the (3, k) slip at
    the points and the elements' geometry in, none of them written, so
    passes may share them; element vectors out, unscattered.  With
    ``per_element`` the breakdown fields and the dissipation are (k,)
    arrays of element integrals instead of totals."""
    W = _WEIGHTS
    (y00, y01), (y10, y11), (g0, g1) = rows     # grad_y and grad gamma, (k,)

    with np.errstate(over="ignore", invalid="ignore"):
        elastic, hardening, penalty, derivs = material_law(
            y00, y01, y10, y11, gam, params, slip, derivatives=need_grad)
        # the densities integrated, copied through (point, element) views
        # into one buffer for one batched BLAS matvec
        pointwise = [elastic, hardening] + ([] if penalty is None else [penalty])
        dens = np.empty((len(pointwise) + (gam_prev is not None), len(area), 3))
        for d, v in zip(dens, pointwise):
            np.multiply(v, 1.0, out=d.T)            # a copy, faster than d.T[...] = v
        del pointwise
        diff = root = None
        if gam_prev is not None:
            diff = gam - gam_prev
            root = np.sqrt(params.delta ** 2 + diff * diff, out=dens[-1].T)
        means = dens @ W
        del dens

        integral = ((lambda v: area * v) if per_element
                    else (lambda v: float(area.dot(v))))
        elastic = integral(means[0])
        hardening = integral(means[1])
        no_penalty = np.zeros_like(area) if per_element else 0.0
        penalty = no_penalty if penalty is None else integral(means[2])
        slip_grad = params.eps_grad * integral(g0 * g0 + g1 * g1)
        breakdown = EnergyBreakdown(
            elastic=elastic, hardening=hardening, slip_gradient=slip_grad,
            penalty=penalty, total=elastic + hardening + slip_grad + penalty)
        diss = 0.0 if root is None else params.sigma * integral(means[-1])

        if not need_grad:
            return breakdown, diss, None

        # the frame rows averaged over the quadrature points, then
        # dW/d(grad_y) = P s^T + M m^T; the slip derivative gains the
        # dissipation slope
        dq = derivs[:4].swapaxes(0, 1)          # (point, row, element)
        p0, p1, sm0, sm1 = dq[0] * W[0] + dq[1] * W[1] + dq[2] * W[2]
        (s0, s1), (m0, m1) = slip.s.tolist(), slip.m.tolist()
        t00, t01 = p0 * s0 + sm0 * m0, p0 * s1 + sm0 * m1
        t10, t11 = p1 * s0 + sm1 * m0, p1 * s1 + sm1 * m1
        dW_dg = derivs[4]
        if diff is not None:
            dW_dg += params.sigma * diff / root
        del diff, root

        # element vectors of a1, a2 and b as (block, element, corner), the
        # order of ``slots``, written through (corner, element) views
        loc = np.empty((3, len(area), 3))
        gx, gy = grads
        np.multiply(area, t00 * gx + t01 * gy, out=loc[0].T)
        np.multiply(area, t10 * gx + t11 * gy, out=loc[1].T)
        np.add(area * _to_corners(dW_dg * W[:, None]),
               area * (2.0 * params.eps_grad * (g0 * gx + g1 * gy)), out=loc[2].T)
    return breakdown, diss, loc


def _element_hessians(mesh: Mesh2D, q, params: MaterialParams,
                      slip: SlipSystem, part: slice):
    """(9, 9, k) Hessians of the stored energy (no dissipation) of the
    elements ``part``, a slice, at the (3, n) nodal values q, local DOF
    3 f + c for corner c of field f, the order of ``slots``.  A displacement
    DOF (i, c) of field i (a1, a2) moves the frame variables a_i and n_i by
    the frame gradients G = (gs, gm), its hat gradient along s and along m;
    a slip DOF moves gamma at the points by the rule's barycentric values,
    whose transpose is ``_to_corners``; the slip gradient adds
    2 eps_grad grad phi_c . grad phi_d of the slice's elements.  The rule's
    weights are equal, so every entry is formed as a sum over the three
    points and weighted once, together with the area."""
    grads, area = mesh.grads[:, :, part], mesh.element_area[part]
    v = np.take(q, mesh.corners[:, part], axis=1)   # (field, corner, element)
    (y00, y01), (y10, y11) = _gradient_rows(v[:2], grads)
    with np.errstate(over="ignore", invalid="ignore"):
        jac = material_law(y00, y01, y10, y11, _at_points(v[2]), params, slip,
                           derivatives=2)[3][5:].reshape(5, 5, 3, -1)
    dd = jac[:4, :4].sum(axis=2)                # frame rows (u, i) x (w, j)
    db = _to_corners(jac[:4, 4].swapaxes(0, 1))     # (corner, frame row, e)
    bb = np.einsum("qcd,qe->cde", _BARY_PAIRS, jac[4, 4])
    del jac
    (s0, s1), (m0, m1) = slip.s.tolist(), slip.m.tolist()
    G = np.array((grads[0] * s0 + grads[1] * s1, grads[0] * m0 + grads[1] * m1))
    out = np.empty((3, 3, 3, 3, len(area)))     # (field, corner, field, corner)
    out[:2, :, :2] = np.einsum("uiwje,uce,wde->icjde",
                               dd.reshape(2, 2, 2, 2, -1), G, G)
    out[:2, :, 2] = np.einsum("uce,duie->icde", G, db.reshape(3, 2, 2, -1))
    out[2, :, :2] = out[:2, :, 2].transpose(2, 0, 1, 3)
    # the slip gradient's element constant, summed over the three points
    hat_dots = np.einsum("ice,ide->cde", grads, grads)
    np.add(bb, (6.0 * params.eps_grad) * hat_dots, out=out[2, :, 2])
    out *= area * _WEIGHTS[0]
    return out.reshape(9, 9, -1)


def hessian_rows(mesh: Mesh2D, dofmap: DofMap, q, params: MaterialParams,
                 slip: SlipSystem):
    """The Hessian of the stored energy (no dissipation) over the free DOFs
    at the (3, n) nodal values q, in ``dofmap.row_blocks`` layout, one node
    row at a time: yields (D_j, B_j) for j = 0, 1, ..., the diagonal block
    of row j and its coupling H[row j, row j - 1] (None for j = 0).  Fixed
    entries carry the identity, so the matrix is positive definite exactly
    when the Hessian over the free DOFs is.  A yielded block is valid until
    the next one is asked for.

    The element matrices are formed in ceil(n_tri / ``_HESSIAN_CHUNK``)
    chunks of whole bands, each an element slice (``DofMap.row_blocks``),
    so a mesh of up to that many elements (10x18: 360) takes one pass; each
    chunk's are scattered by one ``bincount`` straight into its blocks, the
    bands' stretches laid end to end; the upper couplings and the fixed
    entries land in bins that are dropped, and the fixed diagonal gets its
    ones in one indexed add.  Only one chunk's blocks are held at a time,
    0.8 MB at 20x36 (3 chunks).  A first certificate's traced memory, the
    row layout and bins it builds included, peaks at 0.78 MB at 10x18,
    1.74 MB at 20x36 and 2.90 MB at 34x61 (an (f, g) assembly at 20x36:
    0.81 MB)."""
    lay = dofmap.row_blocks
    m = lay.size
    stretch = 2 * m * m + 1
    chunks = -(-mesh.n_triangles // _HESSIAN_CHUNK)
    per_chunk = -(-(lay.count - 1) // chunks)  # bands, as even as they go
    diag = coupling = None              # from the chunk before: its last row
    for first in range(0, lay.count - 1, per_chunk):
        last = min(first + per_chunk, lay.count - 1)
        part = slice(lay.start[first], lay.start[last])
        hess = _element_hessians(mesh, q, params, slip, part)
        at = np.add(lay.pattern[lay.kind[part]].T,
                    (lay.band[part] - first) * stretch, order="C")
        flat = np.bincount(at.ravel(), weights=hess.ravel(),
                           minlength=(last - first) * stretch + m * m)
        del hess, at
        # row ``last``'s diagonal block is completed by the next chunk, if any
        row = lay.fixed_row - first
        done = (row >= 0) & (row < last - first + (last == lay.count - 1))
        flat[row[done] * stretch + lay.fixed_at[done]] += 1.0
        if diag is not None:
            flat[:m * m] += diag.ravel()
        for j in range(last - first):
            yield flat[j * stretch:][:m * m].reshape(m, m), coupling
            coupling = flat[j * stretch + m * m:][:m * m].reshape(m, m)
        diag, coupling = flat[-m * m:].reshape(m, m).copy(), coupling.copy()
        del flat
    yield diag, coupling


def _certified(mesh, dofmap, params, slip, q) -> bool:
    """Whether the stored energy's Hessian over the free DOFs at the (3, n)
    nodal values q is positive definite, by block Cholesky on its row blocks
    (``hessian_rows``); the first block that fails ends it.

    With S the Schur complement of the rows before row j (S = D_0 for
    j = 1), the Cholesky factor of [[S, B_j^T], [B_j, D_j]] is
    [[L, 0], [Z, L_j]], and D_j - Z Z^T is the next Schur complement: the
    factor exists exactly when S and that complement are both positive
    definite, so the pairs test every row of a mesh with at least two rows
    (every structured mesh).  The step's functional adds to this
    Hessian the dissipation's, which is positive semidefinite, so a
    certified stationary point is a strict local minimizer of the step.

    Every pair is factored in one (2m, 2m) buffer, m the size of the first
    block, whose top-left block takes each Schur complement in place.
    ``np.linalg.cholesky`` reads only the lower triangle, so the buffer's
    B_j^T block is never written."""
    rows = hessian_rows(mesh, dofmap, q, params, slip)
    diag = next(rows)[0]
    m = len(diag)
    pair = np.zeros((2 * m, 2 * m))
    pair[:m, :m] = diag
    try:
        for diag, coupling in rows:
            pair[m:, :m], pair[m:, m:] = coupling, diag
            del diag, coupling          # a chunk's blocks go before the next's
            z = np.linalg.cholesky(pair)[m:, :m]
            np.subtract(pair[m:, m:], z @ z.T, out=pair[:m, :m])
    except np.linalg.LinAlgError:
        return False
    return True


def curvature_scale(mesh: Mesh2D, dofmap: DofMap,
                    params: MaterialParams) -> np.ndarray:
    """Per-DOF scale h of the L-BFGS initial Hessian over the free DOFs.

    Displacement DOFs get 1.  Slip DOF i gets

        h_i = max(1, (sigma/delta) m_i / (k m_i + 2 eps_grad l_i)),

    the dissipation curvature at zero slip increment over the stored-energy
    curvature at Fe = I, gamma = 0, so only slip DOFs whose dissipation
    curvature dominates are scaled.  m_i is the midpoint-rule lumped mass,
    l_i the diagonal of the P1 Laplacian and k = d^2 W / d gamma^2 at the
    reference state, C p 2^{(p-2)/2} + 2 aniso + beta r 2^{(r-2)/2} (exact
    because s is orthogonal to m).
    """
    area = mesh.element_area
    # m and l per (block, element, corner), written through (corner, element)
    # views and summed in element order by blocks 0 and 1 of ``slots``
    loc = np.empty((2, len(area), 3))
    np.multiply(area, _to_corners(0.5 * _WEIGHTS[:, None]), out=loc[0].T)
    np.multiply(area, (mesh.grads ** 2).sum(axis=0), out=loc[1].T)
    mass, lap = np.bincount(mesh.slots[:loc.size], weights=loc.ravel(),
                            minlength=2 * mesh.n_nodes).reshape(2, -1)
    k = (params.C * params.p * 2.0 ** ((params.p - 2.0) / 2.0)
         + 2.0 * params.aniso
         + params.beta * params.r * 2.0 ** ((params.r - 2.0) / 2.0))
    h_b = np.maximum(1.0, (params.sigma / params.delta) * mass
                     / (k * mass + 2.0 * params.eps_grad * lap))
    h = np.ones((3, mesh.n_nodes))
    h[2] = h_b
    return dofmap.pack(h)


def total_energy(state, mesh: Mesh2D, params: MaterialParams,
                 slip: SlipSystem) -> EnergyBreakdown:
    """Quadrature-assembled stored energy of a state (dissipation excluded).

    A run does not call it: the benchmark's energy-estimate check reads the
    lifted states' energies through it (``perfbench/worker.py``)."""
    _check_lengths(mesh, *state.q)
    breakdown, _, _ = _assemble(mesh, state.q, params, slip)
    return breakdown


def dissipation_increment(gamma_prev, gamma, mesh: Mesh2D,
                          params: MaterialParams) -> float:
    """Smoothed dissipation sigma * int sqrt(delta^2 + (g1-g2)^2) dx  [N mm].

    Always at least sigma * delta * |Omega| and symmetric in its arguments.
    """
    gamma_prev = np.asarray(gamma_prev, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    _check_lengths(mesh, gamma_prev, gamma)
    diff = _field_at_points(mesh, gamma - gamma_prev)
    root = np.empty((mesh.n_triangles, 3))      # (nt, 3), as _assemble sums it
    np.sqrt(params.delta ** 2 + diff * diff, out=root.T)
    return params.sigma * float(mesh.element_area @ (root @ _WEIGHTS))


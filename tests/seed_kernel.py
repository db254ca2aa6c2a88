"""Frozen reference copy of the original einsum/matmul assembly kernel.

``kinkband.energy._assemble`` computes the same quantities from 2x2
component arrays; tests/test_kernel.py requires the two to agree exactly
(``==``), so any change to the reduction order of the live kernel shows up
there.  Do not edit this file to follow the live kernel.
"""

import numpy as np

from kinkband.energy import EnergyBreakdown

_QP = np.array([[0.5, 0.5, 0.0],
                [0.0, 0.5, 0.5],
                [0.5, 0.0, 0.5]])
_QW = np.full(3, 1.0 / 3.0)


def seed_assemble(mesh, a1, a2, b, params, slip, b_prev=None, need_grad=False):
    """Vectorized quadrature assembly of energy (and dissipation / gradients).

    Returns (breakdown, dissipation, grads) where grads is None or a tuple
    of full nodal gradient arrays (ga1, ga2, gb) of I + D^delta.
    """
    tri = mesh.triangles
    area = mesh.element_area
    bg = mesh.basis_gradients                       # (nt, 3, 2)
    s, m = slip.s, slip.m

    ny = np.empty((len(tri), 2, 2))
    ny[:, 0, :] = np.einsum("ei,eij->ej", a1[tri], bg)
    ny[:, 1, :] = np.einsum("ei,eij->ej", a2[tri], bg)
    gam = b[tri] @ _QP.T                            # (nt, nq) slip at quad points
    grad_gam = np.einsum("ei,eij->ej", b[tri], bg)  # (nt, 2), element-constant

    u = ny @ s                                      # grad_y . s  (nt, 2)
    # Fe[e,q] = grad_y[e] - gam[e,q] * outer(u[e], m)
    Fe = ny[:, None, :, :] - gam[:, :, None, None] * (u[:, None, :, None] * m)
    det = Fe[..., 0, 0] * Fe[..., 1, 1] - Fe[..., 0, 1] * Fe[..., 1, 0]
    ok = det > params.det_floor
    det_safe = np.where(ok, det, 1.0)

    with np.errstate(over="ignore", invalid="ignore"):
        frob2 = np.einsum("eqij,eqij->eq", Fe, Fe)
        fem = Fe @ m                                # (nt, nq, 2)
        fem2 = np.einsum("eqi,eqi->eq", fem, fem)
        w_smooth = (params.C * (frob2 ** (params.p / 2.0)
                                - 2.0 ** (params.p / 2.0)
                                - 2.0 * np.log(det_safe))
                    + params.D * (det - 1.0) ** 2
                    + params.aniso * fem2)
        el_q = np.where(ok, w_smooth, 0.0)
        pen_q = np.where(ok, 0.0, params.det_penalty)
        hard_q = params.beta * (2.0 + gam * gam) ** (params.r / 2.0)

    elastic = float(area @ (el_q @ _QW))
    penalty = float(area @ (pen_q @ _QW))
    hardening = float(area @ (hard_q @ _QW))
    slip_grad = params.eps_grad * float(area @ np.einsum("ej,ej->e", grad_gam, grad_gam))
    breakdown = EnergyBreakdown(
        elastic=elastic, hardening=hardening, slip_gradient=slip_grad,
        penalty=penalty, total=elastic + hardening + slip_grad + penalty)

    diss = 0.0
    diff = None
    root = None
    if b_prev is not None:
        gam_prev = b_prev[tri] @ _QP.T
        diff = gam - gam_prev
        root = np.sqrt(params.delta ** 2 + diff * diff)
        diss = params.sigma * float(area @ (root @ _QW))

    if not need_grad:
        return breakdown, diss, None

    # dW/dFe on the smooth branch; zero at penalty points.
    cof = np.empty_like(Fe)
    cof[..., 0, 0] = Fe[..., 1, 1]
    cof[..., 0, 1] = -Fe[..., 1, 0]
    cof[..., 1, 0] = -Fe[..., 0, 1]
    cof[..., 1, 1] = Fe[..., 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        coef_p = params.C * params.p * frob2 ** (params.p / 2.0 - 1.0)
        coef_det = 2.0 * params.D * (det - 1.0) - 2.0 * params.C / det_safe
        S = (coef_p[..., None, None] * Fe
             + coef_det[..., None, None] * cof
             + 2.0 * params.aniso * fem[..., :, None] * m)
    S *= ok[..., None, None]

    # Chain rule to grad_y: dW/d(grad_y) = S P^T = S - gam * outer(S m, s).
    Sm = S @ m                                      # (nt, nq, 2)
    T = S - gam[..., None, None] * (Sm[..., :, None] * s)
    Tbar = np.einsum("q,eqij->eij", _QW, T)         # (nt, 2, 2)
    loc_a1 = area[:, None] * np.einsum("ej,eij->ei", Tbar[:, 0, :], bg)
    loc_a2 = area[:, None] * np.einsum("ej,eij->ei", Tbar[:, 1, :], bg)

    # Slip derivative: dW/dgamma = -u . (S m), plus hardening and dissipation.
    dW_dg = -np.einsum("ei,eqi->eq", u, Sm)
    dW_dg += params.beta * params.r * (2.0 + gam * gam) ** (params.r / 2.0 - 1.0) * gam
    if diff is not None:
        dW_dg += params.sigma * diff / root
    loc_b = area[:, None] * ((dW_dg * _QW) @ _QP)
    loc_b += area[:, None] * (2.0 * params.eps_grad
                              * np.einsum("ej,eij->ei", grad_gam, bg))

    n = mesh.n_nodes
    flat = tri.ravel()
    ga1 = np.bincount(flat, weights=loc_a1.ravel(), minlength=n)
    ga2 = np.bincount(flat, weights=loc_a2.ravel(), minlength=n)
    gb = np.bincount(flat, weights=loc_b.ravel(), minlength=n)
    return breakdown, diss, (ga1, ga2, gb)


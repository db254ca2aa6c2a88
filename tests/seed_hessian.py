"""Frozen reference copy of the stored energy's Hessian and the stability
certificate as first written: entry-by-entry frame Jacobian and element
matrices, one scatter per band into a 2m x 2m band matrix, and a fresh
buffer for every row pair of the block Cholesky.

``kinkband.energy.hessian_rows`` and ``kinkband.evolution._certified``
compute the same matrix and verdict another way; tests/test_hessian.py
requires the row blocks to agree to rounding and the verdicts to be equal.
The material law is copied too, so that this file depends only on the
program's data types.  Do not edit this file to follow the live code.
"""

import numpy as np

_WEIGHTS = np.full(3, 1.0 / 3.0)
HESSIAN_CHUNK = 500


def _p1_gradient(vt, grads):
    """Element gradient (d/dx1, d/dx2) of a P1 field from its (3, nt) corner
    values and (2, 3, nt) hat gradients, two (nt,) arrays in corner order."""
    gx, gy = grads
    return (vt[0] * gx[0] + vt[1] * gx[1] + vt[2] * gx[2],
            vt[0] * gy[0] + vt[1] * gy[1] + vt[2] * gy[2])


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


def seed_material_law(y00, y01, y10, y11, gam, params, slip,
                      derivatives=False):
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
    penalty points, as in the first derivatives.
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
    elastic = ((params.C * (frob2 ** (params.p / 2.0) - 2.0 ** (params.p / 2.0)
                            - 2.0 * np.log(det_safe))
                + params.D * det_m1 ** 2)
               + params.aniso * fe2)
    del fe2
    two_g2 = 2.0 + gam * gam
    hardening = params.beta * two_g2 ** (params.r / 2.0)
    penalty = None
    if not admissible:
        elastic[~ok] = 0.0
        penalty = np.where(ok, 0.0, params.det_penalty)
    if not derivatives:
        return elastic, hardening, penalty, None

    # S = coef_p Fe + c cof Fe + 2 aniso e (x) m on the smooth branch, with
    # c = 2 D (det - 1) - 2 C / det, cof Fe s = (-e1, e0) and cof Fe m =
    # (a1, -a0): coef_det = -c takes their signs.  Arrays are deleted after
    # their last read, for a smaller peak
    coef_p = params.C * params.p * frob2 ** (params.p / 2.0 - 1.0)
    coef_det = -2.0 * params.D * det_m1 + 2.0 * params.C / det_safe
    del det, det_m1
    derivs = np.empty((5 if derivatives < 2 else 30,) + elastic.shape)
    p0, p1, sm0, sm1, d_gam = derivs[:5]        # the rows averaged in one pass
    np.add(coef_p * a0, coef_det * e1, out=p0)              # S s
    np.subtract(coef_p * a1, coef_det * e0, out=p1)
    np.add(coef_p * e0 - coef_det * a1, 2.0 * params.aniso * e0, out=sm0)
    np.add(coef_p * e1 + coef_det * a0, 2.0 * params.aniso * e1, out=sm1)
    if not admissible:
        derivs[:4] *= ok
    if derivatives >= 2:
        seed_frame_jacobian(derivs[5:].reshape((5, 5) + elastic.shape), a0, a1,
                        e0, e1, frob2, det_safe, coef_p, coef_det, sm0, sm1,
                        gam, two_g2, None if admissible else ok, params)
    del e0, e1, coef_p, coef_det, frob2, det_safe

    p0 -= gam * sm0                             # S s - gam S m
    p1 -= gam * sm1
    np.negative(a0 * sm0 + a1 * sm1, out=d_gam)
    d_gam += params.beta * params.r * two_g2 ** (params.r / 2.0 - 1.0) * gam
    return elastic, hardening, penalty, derivs


def seed_frame_jacobian(jac, a0, a1, e0, e1, frob2, det, coef_p, coef_det,
                        sm0, sm1, gam, two_g2, ok, params):
    """Write into ``jac`` (5, 5, ...) the Jacobian of the frame rows in
    v = (a0, a1, n0, n1, gamma), n = grad y m; ``ok`` masks the penalty
    points, or is None when there are none.

    In u = (a, e) the Hessian of W is K = coef_p I + c2 u u^T + f'' g g^T +
    f' Q + 2 aniso on the e diagonal: c2 = C p (p - 2) |Fe|^(p - 4), g =
    d det/du = (-e1, e0, a1, -a0), Q = d^2 det/du^2 (+1 at (a1, e0), -1 at
    (a0, e1)), and f' = -coef_det, f'' = 2 D + 2 C / det^2 the slope and
    curvature of W along det Fe.  As de = dn - gamma da - a dgamma:
    H_an = K_ae - gamma K_ee, H_aa = K_aa - gamma K_ea - gamma H_an,
    H_nn = K_ee, H_agamma = -H_an a - M, H_ngamma = -K_ee a and
    H_gammagamma = a . K_ee a plus the hardening curvature.
    """
    c2 = params.C * params.p * (params.p - 2.0) * frob2 ** (params.p / 2 - 2.0)
    d2 = 2.0 * params.D + 2.0 * params.C / (det * det)
    u = (a0, a1, e0, e1)
    g = (-e1, e0, a1, -a0)
    K = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            kij = c2 * u[i] * u[j] + d2 * g[i] * g[j]
            if i == j:
                kij += coef_p if i < 2 else coef_p + 2.0 * params.aniso
            elif (i, j) == (1, 2):
                kij -= coef_det
            elif (i, j) == (0, 3):
                kij += coef_det
            if ok is not None:
                kij *= ok
            K[i][j] = K[j][i] = kij
    a, m = (a0, a1), (sm0, sm1)
    h_an = [[K[i][2 + j] - gam * K[2 + i][2 + j] for j in range(2)]
            for i in range(2)]
    for i in range(2):
        for j in range(i, 2):
            jac[i, j] = jac[j, i] = K[i][j] - gam * K[2 + i][j] - gam * h_an[i][j]
            jac[2 + i, 2 + j] = jac[2 + j, 2 + i] = K[2 + i][2 + j]
        for j in range(2):
            jac[i, 2 + j] = jac[2 + j, i] = h_an[i][j]
        jac[i, 4] = jac[4, i] = -(h_an[i][0] * a0 + h_an[i][1] * a1) - m[i]
        jac[2 + i, 4] = jac[4, 2 + i] = -(K[2 + i][2] * a0 + K[2 + i][3] * a1)
    jac[4, 4] = sum(a[i] * K[2 + i][2 + j] * a[j]
                    for i in range(2) for j in range(2))
    jac[4, 4] += (params.beta * params.r * two_g2 ** (params.r / 2.0 - 2.0)
                  * (2.0 + (params.r - 1.0) * gam * gam))


def seed_element_hessians(mesh, q, params, slip, elems):
    """(9, 9, k) Hessians of the stored energy (no dissipation) of the
    elements ``elems`` at the (3, n) nodal values q, local DOF 3 f + c for
    corner c of field f, the order of ``slots``.  A displacement DOF of
    field i (a1, a2) moves a_i by its hat gradient along s and n_i along m;
    a slip DOF moves gamma at the points by the rule's barycentric values,
    whose transpose is ``_to_corners``; the slip gradient adds
    2 eps_grad grad phi_c . grad phi_d."""
    v = q[:, mesh.corners[:, elems]]            # (field, corner, element)
    grads, area, W = mesh.grads[:, :, elems], mesh.element_area[elems], _WEIGHTS
    (y00, y01), (y10, y11) = (_p1_gradient(vf, grads) for vf in v[:2])
    with np.errstate(over="ignore", invalid="ignore"):
        jac = seed_material_law(y00, y01, y10, y11, _at_points(v[2]), params,
                                slip, derivatives=2)[3][5:].reshape(5, 5, 3, -1)
    dd = jac[:4, :4, 0] * W[0] + jac[:4, :4, 1] * W[1] + jac[:4, :4, 2] * W[2]
    db = _to_corners(jac[:4, 4].swapaxes(0, 1) * W[:, None, None])  # (d, v, e)
    bary = _at_points(np.eye(3))                # (point, corner)
    bb = np.einsum("qc,qd,qe->cde", bary, bary, jac[4, 4] * W[:, None])
    del jac
    (s0, s1), (m0, m1) = slip.s.tolist(), slip.m.tolist()
    gs, gm = grads[0] * s0 + grads[1] * s1, grads[0] * m0 + grads[1] * m1
    outer = [[gs[:, None] * gs, gs[:, None] * gm],
             [gm[:, None] * gs, gm[:, None] * gm]]  # (c, d, e) by (s|m, s|m)
    out = np.empty((3, 3, 3, 3, len(area)))     # (field, corner, field, corner)
    for i in range(2):
        for j in range(2):
            out[i, :, j] = sum(dd[2 * u + i, 2 * w + j] * outer[u][w]
                               for u in range(2) for w in range(2))
        out[i, :, 2] = gs[:, None] * db[:, i] + gm[:, None] * db[:, 2 + i]
        out[2, :, i] = out[i, :, 2].swapaxes(0, 1)
    out[2, :, 2] = bb + 2.0 * params.eps_grad * np.einsum("ice,ide->cde",
                                                           grads, grads)
    out *= area
    return out.reshape(9, 9, -1)


def seed_hessian_rows(mesh, dofmap, q, params, slip):
    """The Hessian of the stored energy (no dissipation) over the free DOFs
    at the (3, n) nodal values q, in ``dofmap.row_blocks`` layout, one node
    row at a time: yields (D_j, B_j) for j = 0, 1, ..., the diagonal block
    of row j and its coupling H[row j, row j - 1] (None for j = 0).  Fixed
    entries carry the identity, so the matrix is positive definite exactly
    when the Hessian over the free DOFs is.

    The element matrices are scattered band by band, a band being the
    elements between two node rows, so each element must span at most two
    adjacent rows.  They are formed for about ``HESSIAN_CHUNK`` elements
    at a time, whole bands, and only two rows' blocks are held at once, so
    the peak of memory stays near that of one gradient assembly."""
    lay = dofmap.row_blocks
    m = lay.size
    band = lay.row[mesh.corners].min(axis=0)    # the lower node row
    order = np.argsort(band, kind="stable")
    starts = np.searchsorted(band[order], np.arange(lay.count))
    per_chunk = max(1, HESSIAN_CHUNK * (lay.count - 1) // len(order))  # bands
    fixed = np.zeros((lay.count, m))
    fixed[lay.row[~lay.free], lay.pos[~lay.free]] = 1.0
    below, coupling = np.zeros((m, m)), None
    for c0 in range(0, lay.count - 1, per_chunk):
        c1 = min(c0 + per_chunk, lay.count - 1)
        chunk = order[starts[c0]:starts[c1]]
        hess = seed_element_hessians(mesh, q, params, slip, chunk)
        entry = mesh.slots.reshape(3, -1, 3)[:, chunk].transpose(0, 2, 1)
        entry = entry.reshape(9, -1)            # local DOF 3 f + c, element
        free = lay.free[entry]
        hess *= free[:, None] & free[None]
        local = (lay.row[entry] - band[chunk]) * m + lay.pos[entry]
        for j in range(c0, c1):
            part = slice(starts[j] - starts[c0], starts[j + 1] - starts[c0])
            idx = local[:, None, part] * (2 * m) + local[None, :, part]
            band_h = np.bincount(idx.ravel(), weights=hess[:, :, part].ravel(),
                                 minlength=4 * m * m).reshape(2, m, 2, m)
            diag = below + band_h[0, :, 0]
            diag.flat[::m + 1] += fixed[j]
            yield diag, coupling
            below, coupling = band_h[1, :, 1], band_h[1, :, 0]
        del hess, entry, free, local             # before the next chunk's
    below.flat[::m + 1] += fixed[-1]
    yield below, coupling


def seed_certified(mesh, dofmap, params, slip, q) -> bool:
    """Whether the stored energy's Hessian over the free DOFs at the (3, n)
    nodal values q is positive definite, by block Cholesky on its row blocks
    (``energy.hessian_rows``); the first block that fails ends it.

    With S the Schur complement of the rows before row j (S = D_0 for
    j = 1), the Cholesky factor of [[S, B_j^T], [B_j, D_j]] is
    [[L, 0], [Z, L_j]], and D_j - Z Z^T is the next Schur complement: the
    factor exists exactly when S and that complement are both positive
    definite, so the pairs test every row of a mesh with at least two rows
    (every structured mesh).  The step's functional adds to this
    Hessian the dissipation's, which is positive semidefinite, so a
    certified stationary point is a strict local minimizer of the step."""
    schur = None
    try:
        for diag, coupling in seed_hessian_rows(mesh, dofmap, q, params, slip):
            if schur is not None:
                m = len(diag)
                pair = np.empty((2 * m, 2 * m))
                pair[:m, :m], pair[:m, m:] = schur, coupling.T
                pair[m:, :m], pair[m:, m:] = coupling, diag
                z = np.linalg.cholesky(pair)[m:, :m]
                diag = diag - z @ z.T
            schur = diag
    except np.linalg.LinAlgError:
        return False
    return True

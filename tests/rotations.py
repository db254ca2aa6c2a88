"""Random planar rotations, the material law at stacked 2x2 gradients, for
the pointwise density and frame-indifference tests, the continuum symbol
of the stored energy's second variation with its onset in the specimen's
box, the dense Hessian over the free DOFs with the Koiter coefficients of
the homogeneous state's onset on 10x18, and the aligned slip system most
tests run on."""

from typing import NamedTuple

import numpy as np

from kinkband import SimulationConfig
from kinkband.energy import hessian_rows, material_law
from kinkband.evolution import (LoadProgram, apply_boundary_conditions,
                                build_problem, initial_state, lift_state)
from kinkband.mesh import build_dofmap, build_structured_mesh


def aligned_slip():
    """The default config's slip system: vertical glide on vertical layer
    planes, s = (0, 1) and m = (1, 0)."""
    return build_problem(SimulationConfig())[3]


def random_rotation(rng):
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def law_at(F, params, slip, gam=None, derivatives=False):
    """``material_law`` at the gradients F, shape (..., 2, 2), and slips gam
    of shape F.shape[:-2] (zero by default).  With ``derivatives`` the frame
    rows P, M are mapped to the rows d00, d01, d10, d11 of dW/d(grad y),
    d_ij = P_i s_j + M_i m_j, followed by d_gamma."""
    F = np.asarray(F, dtype=float)
    gam = np.zeros(F.shape[:-2]) if gam is None else np.asarray(gam, dtype=float)
    elastic, hardening, penalty, derivs = material_law(
        F[..., 0, 0], F[..., 0, 1], F[..., 1, 0], F[..., 1, 1], gam, params,
        slip, derivatives=derivatives)
    if derivs is not None:
        p0, p1, sm0, sm1, d_gam = derivs
        (s0, s1), (m0, m1) = slip.s, slip.m
        derivs = np.array([p0 * s0 + sm0 * m0, p0 * s1 + sm0 * m1,
                           p1 * s0 + sm1 * m0, p1 * s1 + sm1 * m1, d_gam])
    return elastic, hardening, penalty, derivs


def continuum_symbol(params, slip, strain, k, c):
    """The 3x3 symbol, shape k.shape[:-1] + (3, 3), of the second variation
    of the stored energy plus a dissipation curvature ``c`` about the
    homogeneous state Fe = grad y = diag(1, 1 - strain), gamma = 0, for the
    plane waves (U, G) exp(i k . x) in the displacement U and the slip G:
    B^H K5 B + (c + 2 eps_grad |k|^2) e3 e3^T.  K5 is the Jacobian of the
    frame rows of ``material_law(derivatives=2)``, mapped from the frame
    variables (a, n, gamma), a = grad y s and n = grad y m, to (Y00, Y01,
    Y10, Y11, gamma), Y = grad y; B takes (U, G) to that wave's
    (i U (x) k, G)."""
    one = np.ones(1)
    frame = material_law(one, 0.0 * one, 0.0 * one, (1.0 - strain) * one,
                         0.0 * one, params, slip,
                         derivatives=2)[3][5:].reshape(5, 5)
    (s0, s1), (m0, m1) = slip.s, slip.m
    to_frame = np.array([[s0, s1, 0.0, 0.0, 0.0], [0.0, 0.0, s0, s1, 0.0],
                         [m0, m1, 0.0, 0.0, 0.0], [0.0, 0.0, m0, m1, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 1.0]])
    k5 = to_frame.T @ frame @ to_frame
    k = np.asarray(k, dtype=float)
    B = np.zeros(k.shape[:-1] + (5, 3), dtype=complex)
    B[..., 0:2, 0] = 1j * k                     # Y0j = i U0 kj
    B[..., 2:4, 1] = 1j * k                     # Y1j = i U1 kj
    B[..., 4, 2] = 1.0
    symbol = B.conj().swapaxes(-1, -2) @ k5 @ B
    symbol[..., 2, 2] += c + 2.0 * params.eps_grad * (k * k).sum(axis=-1)
    return symbol


def box_onset(params, slip, c, Lx=42.0, k2=np.linspace(0.0, 3.0, 3001),
              bisections=30):
    """The continuum estimate of the onset in the box: the least strain at
    which the symbol has a nonpositive eigenvalue for the lowest lateral
    wavenumber k1 = pi / Lx and some k2 of the grid, bisected on (0, 0.5);
    returns that strain and the vertical wavelength 2 pi / k2 of its mode
    [mm]."""
    k = np.stack([np.full_like(k2, np.pi / Lx), k2], axis=-1)

    def lowest(strain):
        return np.linalg.eigvalsh(continuum_symbol(params, slip, strain, k,
                                                   c))[:, 0]

    stable, unstable = 0.0, 0.5
    assert lowest(stable).min() > 0.0 and lowest(unstable).min() <= 0.0
    for _ in range(bisections):
        strain = 0.5 * (stable + unstable)
        if lowest(strain).min() > 0.0:
            stable = strain
        else:
            unstable = strain
    return unstable, 2.0 * np.pi / k2[np.argmin(lowest(unstable))]


def dense_hessian(mesh, dofmap, q, params, slip):
    """The rows of ``hessian_rows`` as one dense matrix over the free DOFs,
    in the packed order; also the full block matrix."""
    lay = dofmap.row_blocks
    m = lay.size
    full = np.zeros((lay.count * m, lay.count * m))
    for j, (diag, coupling) in enumerate(hessian_rows(mesh, dofmap, q, params,
                                                      slip)):
        rows = slice(j * m, (j + 1) * m)
        full[rows, rows] = diag
        if coupling is not None:
            before = slice((j - 1) * m, j * m)
            full[rows, before] = coupling
            full[before, rows] = coupling.T
    at = lay.row[dofmap.free] * m + lay.pos[dofmap.free]
    return full[np.ix_(at, at)], full


def homogeneous_state(mesh, dofmap, program, t):
    """The (3, n) nodal values of the homogeneous lift of the initial state
    to t, with the fixed entries of the boundary data at t, as a step
    builds it."""
    lifted = lift_state(initial_state(mesh), mesh, program, 0.0, t)
    return apply_boundary_conditions(lifted, mesh, dofmap, program, t).q


class Koiter(NamedTuple):
    t_c: float      # s, where the homogeneous state loses stability (c = 0)
    lam: float      # N mm / s, d(phi^T H phi)/dt at t_c
    a: float        # N mm, E'''[phi^3] / 6
    b: float        # N mm, E''''[phi^4] / 24 - r_perp^T H_perp^-1 r_perp / 8


def koiter_onset(params, slip, h=1e-3, dt=1e-2):
    """The Koiter coefficients (Koiter 1945) of the stored energy at the
    onset of the homogeneous state of the 42 x 75 mm specimen on the 10x18
    mesh, under the default load program.  Near the onset t_c the energy
    along q_h(t) + xi phi + xi^2 w, with the second-order field w orthogonal
    to phi minimized out, is

        E(q_h(t)) + lam (t - t_c) xi^2 / 2 + a xi^3 + b xi^4 .

    t_c is where the lowest eigenvalue of the dense Hessian over the free
    DOFs crosses zero, found by secant from 40 and 50 s; phi is its
    eigenvector there, scaled so that its slip entry of largest magnitude
    is +1 (the sign of a follows that choice).  E''' and E'''' along phi
    are central differences of the Hessian in the step ``h`` along phi,
    r = E'''[phi, phi, .], the inverse on the complement of phi is summed
    over the other eigenpairs, and lam is a central difference of
    phi^T H phi in the time step ``dt``.  Dense, over the 549 free DOFs:
    about 0.3 s."""
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    dofmap = build_dofmap(mesh)
    program = LoadProgram(speed=0.18, Ly=75.0)

    def hessian(q):
        return dense_hessian(mesh, dofmap, q, params, slip)[0]

    def lowest(t):
        return np.linalg.eigvalsh(hessian(homogeneous_state(mesh, dofmap,
                                                            program, t)))[0]

    t0, t1, secants = 40.0, 50.0, 0
    f0, f1 = lowest(t0), lowest(t1)
    while abs(t1 - t0) > 1e-10:
        secants += 1
        assert secants <= 20, "the secant for t_c does not converge"
        t0, f0, t1 = t1, f1, t1 - f1 * (t1 - t0) / (f1 - f0)
        f1 = lowest(t1)
    q = homogeneous_state(mesh, dofmap, program, t1)
    H = hessian(q)
    values, vectors = np.linalg.eigh(H)
    phi = vectors[:, 0]
    slip_entries = phi[dofmap.free >= 2 * mesh.n_nodes]
    phi = phi / slip_entries[np.argmax(np.abs(slip_entries))]
    x = dofmap.pack(q)
    ahead, behind = (hessian(dofmap.unpack(x + e * phi, q)) for e in (h, -h))
    r = (ahead - behind) @ phi / (2.0 * h)
    quartic = phi @ (ahead - 2.0 * H + behind) @ phi / (h * h)
    b = quartic / 24.0 - ((vectors[:, 1:].T @ r) ** 2 / values[1:]).sum() / 8.0
    later, earlier = (
        phi @ hessian(homogeneous_state(mesh, dofmap, program, t1 + e)) @ phi
        for e in (dt, -dt))
    return Koiter(t_c=float(t1), lam=float((later - earlier) / (2.0 * dt)),
                  a=float(phi @ r / 6.0), b=float(b))

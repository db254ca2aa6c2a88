"""Random planar rotations, the material law at stacked 2x2 gradients, for
the pointwise density and frame-indifference tests, the continuum symbol
of the stored energy's second variation with its onset in the specimen's
box, and the aligned slip system most tests run on."""

import numpy as np

from kinkband import SimulationConfig
from kinkband.energy import material_law
from kinkband.evolution import build_problem


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

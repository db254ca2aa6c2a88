"""Random planar rotations, the material law at stacked 2x2 gradients, for
the pointwise density and frame-indifference tests, and the aligned slip
system most tests run on."""

import numpy as np

from kinkband import SimulationConfig
from kinkband.energy import material_law
from kinkband.kinematics import SlipSystem


def aligned_slip():
    """The default config's slip system: vertical glide on vertical layer
    planes, s = (s1, s2) = (0, 1) and m = (1, 0)."""
    return SlipSystem(s=(SimulationConfig.s1, SimulationConfig.s2))


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

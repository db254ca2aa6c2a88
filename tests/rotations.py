"""Random planar rotations, and the material law at stacked 2x2 gradients,
for the pointwise density and frame-indifference tests."""

import numpy as np

from kinkband import material_law


def random_rotation(rng):
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def law_at(F, params, slip, gam=None, derivatives=False):
    """``material_law`` at the gradients F, shape (..., 2, 2), and slips gam
    of shape F.shape[:-2] (zero by default)."""
    F = np.asarray(F, dtype=float)
    gam = np.zeros(F.shape[:-2]) if gam is None else np.asarray(gam, dtype=float)
    return material_law(F[..., 0, 0], F[..., 0, 1], F[..., 1, 0], F[..., 1, 1],
                        gam, params, slip, derivatives=derivatives)

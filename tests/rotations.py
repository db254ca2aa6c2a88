"""Random planar rotations for the frame-indifference tests."""

import numpy as np


def random_rotation(rng):
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])

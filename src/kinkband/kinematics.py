"""The slip system of the multiplicative elastic/plastic split.

The plastic distortion is rank-one: Fp(gamma) = I + gamma * s (x) m with s
the unit glide direction and m the slip-plane normal, s turned clockwise,
so det [s m] = -1, det Fp = 1 and its inverse is I - gamma * s (x) m.  The
opposite normal is the same model with gamma negated, so m is not an input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-9


@dataclass
class SlipSystem:
    """Unit glide direction s; the slip-plane normal m is s turned clockwise."""

    s: np.ndarray
    m: np.ndarray = field(init=False)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        # a NaN norm fails the comparison
        if self.s.shape != (2,) or not abs(np.linalg.norm(self.s) - 1) <= _UNIT_TOL:
            raise ValueError(f"glide direction must be a unit 2-vector, got {self.s}")
        # 0.0 - s0 keeps the default m at +0.0, not -0.0
        self.m = np.array([self.s[1], 0.0 - self.s[0]])

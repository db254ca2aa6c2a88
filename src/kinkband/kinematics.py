"""Multiplicative elastic/plastic split for a single slip system.

The plastic distortion is rank-one: Fp(gamma) = I + gamma * s (x) m with
orthogonal unit vectors s (glide direction) and m (slip-plane normal), so
det Fp = 1 and its inverse is I - gamma * s (x) m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-9


@dataclass
class SlipSystem:
    """Glide direction s and slip-plane normal m, orthogonal unit vectors."""

    s: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        if abs(np.linalg.norm(self.s) - 1.0) > _ORTHO_TOL:
            raise ValueError(f"glide direction must be a unit vector, got {self.s}")
        if abs(np.linalg.norm(self.m) - 1.0) > _ORTHO_TOL:
            raise ValueError(f"slip-plane normal must be a unit vector, got {self.m}")
        if abs(float(self.s @ self.m)) > _ORTHO_TOL:
            raise ValueError(f"s and m must be orthogonal, got s.m = {self.s @ self.m}")

    @classmethod
    def default(cls) -> "SlipSystem":
        """Vertical glide on vertical layer planes: s = (0,1), m = (1,0)."""
        return cls(s=np.array([0.0, 1.0]), m=np.array([1.0, 0.0]))


def plastic_distortion(gamma: float, slip: SlipSystem) -> np.ndarray:
    """Fp = I + gamma * s (x) m; unimodular for every gamma."""
    return np.eye(2) + gamma * np.outer(slip.s, slip.m)


def inverse_plastic(gamma: float, slip: SlipSystem) -> np.ndarray:
    """P = Fp^-1 = I - gamma * s (x) m (s (x) m is nilpotent)."""
    return np.eye(2) - gamma * np.outer(slip.s, slip.m)


def elastic_strain(grad_y: np.ndarray, gamma: float, slip: SlipSystem) -> np.ndarray:
    """Fe = grad_y (I - gamma * s (x) m); det Fe = det grad_y."""
    return np.asarray(grad_y) @ inverse_plastic(gamma, slip)


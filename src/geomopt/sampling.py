"""Seeded random draws shared by the verification suite and the tests."""
from __future__ import annotations

import numpy as np

from .tensors import Metric4, MINKOWSKI

__all__ = [
    "random_lorentzian_metric",
    "random_antisymmetric4",
    "random_symmetric_connection",
    "random_spd3",
]

FRAME_SCALE = 0.3  # spread of the frame L = I + N(0, FRAME_SCALE) in random_lorentzian_metric
MIN_G00 = 0.05  # smallest accepted g_00 of a random metric
MIN_FRAME_DET = 0.15  # smallest accepted |det L| of a random metric's frame
ANTISYMMETRIC_SCALE = 1.0  # spread of random_antisymmetric4's entries before antisymmetrizing
CONNECTION_SCALE = 1.0  # spread of random_symmetric_connection's entries
SPD_SCALE = 0.5  # spread of the factor A in random_spd3's A A^T + I


def random_lorentzian_metric(rng: np.random.Generator) -> Metric4:
    """Well-conditioned random metric of signature (+,-,-,-) with g_00 > 0.

    Built as L eta L^T for a frame L near the identity, which fixes the
    signature by congruence; draws are rejected until the frame determinant
    and g_00 clear the floors.
    """
    eta = MINKOWSKI.matrix
    while True:
        frame = np.eye(4) + rng.normal(0.0, FRAME_SCALE, size=(4, 4))
        if abs(np.linalg.det(frame)) < MIN_FRAME_DET:
            continue
        g = frame @ eta @ frame.T
        if g[0, 0] < MIN_G00:
            continue
        return Metric4(0.5 * (g + g.T))


def random_antisymmetric4(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(0.0, ANTISYMMETRIC_SCALE, size=(4, 4))
    return a - a.T


def random_symmetric_connection(rng: np.random.Generator) -> np.ndarray:
    """Random Gamma^d_{ab} symmetric in the lower index pair."""
    gamma = rng.normal(0.0, CONNECTION_SCALE, size=(4, 4, 4))
    return 0.5 * (gamma + gamma.transpose(0, 2, 1))


def random_spd3(rng: np.random.Generator) -> np.ndarray:
    """Random symmetric positive-definite 3x3 matrix."""
    a = rng.normal(0.0, SPD_SCALE, size=(3, 3))
    return a @ a.T + np.eye(3)

"""Seeded random draws shared by the verification suite and the tests.

The draws are made in blocks.  A block of standard normals, scaled as
``0.0 + scale * z``, holds bit for bit the numbers that one ``rng.normal``
call per draw would give, in the same order, so a block sampler returns
the same arrays and leaves the generator in the same state as the
per-draw definition.
"""
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

FRAME_NORMALS = 16  # standard normals of one frame
FIELD_NORMALS = FRAME_NORMALS + 6  # one accepted frame, then E and B
# Frames tested per step of the field walk.  About 88 % of frames pass, so a
# window of 16 passes whole one time in eight; a longer one tests more frames
# that a rejection makes void than it saves in calls.
FIELD_WINDOW = 16


def random_lorentzian_metric(rng: np.random.Generator) -> Metric4:
    """Well-conditioned random metric of signature (+,-,-,-) with g_00 > 0.

    Built as L eta L^T for a frame L near the identity, which fixes the
    signature by congruence; draws are rejected until the frame determinant
    and g_00 clear the floors.
    """
    return Metric4(_lorentzian_matrices(rng, 1)[0])


def _frame_metrics(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exactly symmetric L eta L^T of each frame L = I + FRAME_SCALE z,
    from standard normals z (N, 16), and whether that frame is accepted."""
    frames = np.eye(4) + (0.0 + FRAME_SCALE * z.reshape(-1, 4, 4))
    g = frames @ MINKOWSKI.matrix @ frames.transpose(0, 2, 1)
    accepted = (np.abs(np.linalg.det(frames)) >= MIN_FRAME_DET) & (g[:, 0, 0] >= MIN_G00)
    return 0.5 * (g + g.transpose(0, 2, 1)), accepted


def _lorentzian_matrices(rng: np.random.Generator, count: int) -> np.ndarray:
    """The matrices (count, 4, 4) of ``count`` calls of :func:`random_lorentzian_metric`.

    Each pass draws one frame per metric still missing and keeps the
    accepted ones.  Every missing metric takes at least one more frame, so
    no pass draws a frame that the calls one by one would not draw.
    """
    kept = []
    while count:
        g, accepted = _frame_metrics(rng.standard_normal((count, FRAME_NORMALS)))
        kept.append(g[accepted])
        count -= int(accepted.sum())
    return np.concatenate(kept)


def _lorentzian_fields(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Metrics (count, 4, 4), E and B (count, 3): per draw, a random metric,
    then ``rng.normal(size=3)`` twice.

    One block of standard normals is walked in windows that assume every
    frame is accepted; a rejected frame ends its window, and the next frame
    starts right after it.  When the block runs short it is extended.  At
    the end the generator is rewound and exactly the normals used are drawn
    again, so its state is that of the draws one by one.
    """
    start = rng.bit_generator.state
    z = rng.standard_normal(FIELD_NORMALS * count)
    pos, parts, left = 0, [], count
    while left:
        n = min(left, FIELD_WINDOW, (z.size - pos) // FIELD_NORMALS)
        if n == 0:
            z = np.concatenate([z, rng.standard_normal(FIELD_NORMALS * left)])
            continue
        block = z[pos : pos + FIELD_NORMALS * n].reshape(n, FIELD_NORMALS)
        g, accepted = _frame_metrics(block[:, :FRAME_NORMALS])
        k = n if accepted.all() else int(accepted.argmin())
        parts.append((g[:k], block[:k, FRAME_NORMALS:-3], block[:k, -3:]))
        left -= k
        pos += FIELD_NORMALS * k + (FRAME_NORMALS if k < n else 0)
    rng.bit_generator.state = start
    rng.standard_normal(pos)
    return [np.concatenate(p) for p in zip(*parts)]


def _antisymmetric4(z: np.ndarray) -> np.ndarray:
    """random_antisymmetric4 of each block of standard normals z (..., 4, 4)."""
    a = 0.0 + ANTISYMMETRIC_SCALE * z
    return a - a.swapaxes(-1, -2)


def _symmetric_connection(z: np.ndarray) -> np.ndarray:
    """random_symmetric_connection of each block of standard normals z (..., 4, 4, 4)."""
    gamma = 0.0 + CONNECTION_SCALE * z
    return 0.5 * (gamma + gamma.swapaxes(-1, -2))


def random_antisymmetric4(rng: np.random.Generator) -> np.ndarray:
    return _antisymmetric4(rng.standard_normal((4, 4)))


def random_symmetric_connection(rng: np.random.Generator) -> np.ndarray:
    """Random Gamma^d_{ab} symmetric in the lower index pair."""
    return _symmetric_connection(rng.standard_normal((4, 4, 4)))


def random_spd3(rng: np.random.Generator) -> np.ndarray:
    """Random symmetric positive-definite 3x3 matrix."""
    a = rng.normal(0.0, SPD_SCALE, size=(3, 3))
    return a @ a.T + np.eye(3)

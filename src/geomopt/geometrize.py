"""Maps between space-time metrics and effective material tensors.

The forward map turns a Lorentzian metric into an impedance-matched medium:

    eps^{ij} = mu^{ij} = -(sqrt(-g) / sqrt(-gamma)) g^{ij} / g_00,
    w_i = g_{i0} / g_00,

where g^{ij} is the spatial block of the full 4x4 inverse metric and gamma
is the metric of the background coordinate system (Minkowski in Cartesian
mode, so sqrt(-gamma) = 1).  The inverse map lifts an isotropic refractive
index n to the metric diag(1, -n^2, -n^2, -n^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .constitutive import MaterialTensors
from .errors import NonLorentzian, NonPositiveIndex, SingularMetric, UnitIndexSingularity, ZeroG00
from .tensors import (
    FieldTensor,
    Metric4,
    MINKOWSKI,
    TensorKind,
    Variance,
    _max_abs,
    _singular,
    metric_inverse,
    sqrt_minus,
    sqrt_minus_det,
)

__all__ = [
    "GeometrizationResult",
    "MetricField",
    "plebanski_cartesian",
    "plebanski_curvilinear",
    "plebanski_stack",
    "geometrized_constitutive",
    "fourdim_constitutive",
    "isotropic_metric_from_index",
    "index_profile_field",
    "leonhardt_velocity",
    "metric_identity_residual",
    "coordinate_field",
]

UNIT_INDEX_TOL = 1e-9  # smallest |n^2 - 1| in leonhardt_velocity


@dataclass(frozen=True)
class GeometrizationResult:
    """Material tensors plus the geometric scalars they came from.

    ``negative_g00`` flags metrics with g_00 < 0, where the returned eps may
    lose positive definiteness.
    """

    material: MaterialTensors
    sqrt_minus_g: float
    sqrt_minus_gamma: float
    g00: float
    negative_g00: bool


def _zero_g00(m: np.ndarray) -> np.ndarray:
    """Where |g_00| < 1e-12 max|g|, for one metric or a stack."""
    return np.abs(m[..., 0, 0]) < 1e-12 * _max_abs(m)


def _check_g00(g: Metric4) -> float:
    if _zero_g00(g.matrix):
        raise ZeroG00("geometrization needs g_00 != 0")
    return float(g.matrix[0, 0])


def plebanski_stack(g: np.ndarray, sqrt_minus_gamma: np.ndarray):
    """The Plebanski map over stacked metrics g (N, 4, 4) and sqrt(-gamma) (N,).

    Returns eps = mu (N, 3, 3), w (N, 3), det g (N,) and a flag per point:
    ``ok`` or the error the scalar map raises, first match in the order
    NonLorentzian (NaN sqrt(-gamma) or det g >= 0), ZeroG00, SingularMetric.
    eps and w are NaN at flagged points.
    """
    det = np.linalg.det(g)
    s = sqrt_minus(det)
    flags = np.full(len(det), "ok", dtype=object)
    # Checks in reverse raise order: an error the scalar map raises first overwrites.
    flags[_singular(g, det)] = SingularMetric.__name__
    flags[_zero_g00(g)] = ZeroG00.__name__
    flags[np.isnan(sqrt_minus_gamma) | np.isnan(s)] = NonLorentzian.__name__
    ok = flags == "ok"
    g = g[ok]
    inv = np.linalg.inv(g)[:, 1:, 1:]
    eps = np.full((len(ok), 3, 3), np.nan)
    w = np.full((len(ok), 3), np.nan)
    factor = -s[ok] / (sqrt_minus_gamma[ok] * g[:, 0, 0])
    eps[ok] = factor[:, None, None] * (0.5 * (inv + inv.transpose(0, 2, 1))) + 0.0  # -0.0 -> +0.0
    w[ok] = g[:, 1:, 0] / g[:, :1, 0] + 0.0
    return eps, w, det, flags


# The exception the scalar map raises for each kernel flag, and its message.
_FAILURES = {
    "NonLorentzian": (NonLorentzian, "metric determinant must be negative, got {det}"),
    "ZeroG00": (ZeroG00, "geometrization needs g_00 != 0"),
    "SingularMetric": (SingularMetric, "metric determinant {det} below tolerance"),
}


def _plebanski(g: Metric4, sqrt_minus_gamma: float) -> GeometrizationResult:
    eps, w, det, flags = plebanski_stack(g.matrix[None], np.array([sqrt_minus_gamma]))
    if flags[0] != "ok":
        error, message = _FAILURES[flags[0]]
        raise error(message.format(det=float(det[0])))
    g00 = float(g.matrix[0, 0])
    material = MaterialTensors(eps=eps[0], mu=eps[0], w=w[0])
    s = float(sqrt_minus(det[0]))
    return GeometrizationResult(material, s, sqrt_minus_gamma, g00, g00 < 0.0)


def plebanski_cartesian(g: Metric4) -> GeometrizationResult:
    """Material tensors of the effective medium for metric g, Cartesian frame."""
    return _plebanski(g, 1.0)


def plebanski_curvilinear(g: Metric4, gamma: Metric4) -> GeometrizationResult:
    """Material tensors for metric g seen from the coordinate metric gamma.

    With gamma = Minkowski this reproduces :func:`plebanski_cartesian`
    bit for bit.
    """
    return _plebanski(g, sqrt_minus_det(gamma))


def geometrized_constitutive(
    res: GeometrizationResult | MaterialTensors, e, h
) -> tuple[np.ndarray, np.ndarray]:
    """D^i = eps^{ij} E_j + (w x H)^i and B^i = mu^{ij} H_j - (w x E)^i."""
    material = res.material if isinstance(res, GeometrizationResult) else res
    e = np.asarray(e, dtype=float)
    h = np.asarray(h, dtype=float)
    d = material.eps @ e + np.cross(material.w, h)
    b = material.mu @ h - np.cross(material.w, e)
    return d, b


def fourdim_constitutive(g: Metric4, gamma: Metric4, f: FieldTensor) -> FieldTensor:
    """G^{ab} = (sqrt(-g)/sqrt(-gamma)) g^{ac} g^{bd} F_{cd}."""
    if f.variance is not Variance.COVARIANT or f.kind is not TensorKind.F:
        raise ValueError("fourdim_constitutive needs a covariant field-strength tensor")
    factor = sqrt_minus_det(g) / sqrt_minus_det(gamma)
    ginv = metric_inverse(g).matrix
    out = factor * (ginv @ f.matrix @ ginv.T)
    out = 0.5 * (out - out.T)
    return FieldTensor(out, Variance.CONTRAVARIANT, TensorKind.G)


def _positive_index(n: float) -> None:
    """Raise NonPositiveIndex unless the refractive index n is finite and positive."""
    if not (np.isfinite(n) and n > 0.0):
        raise NonPositiveIndex(f"refractive index must be positive, got {n}")


def isotropic_metric_from_index(n: float) -> Metric4:
    """Metric diag(1, -n^2, -n^2, -n^2) whose effective medium is eps = mu = n I."""
    _positive_index(n)
    n2 = float(n) * float(n)
    return Metric4(np.diag([1.0, -n2, -n2, -n2]))


@dataclass(frozen=True)
class MetricField:
    """Static metric over space: a position (x, y, z) -> Metric4 evaluator.

    ``inverse_evaluate`` is an optional fast path returning the 4x4 inverse
    matrix directly; when absent the inverse is computed numerically.
    ``interface``, when given, is negative on one side of the one surface
    where the metric's gradient jumps; the ray tracer splits steps there.
    Evaluators must be pure functions of the point.
    """

    evaluate: Callable[[np.ndarray], Metric4]
    inverse_evaluate: Callable[[np.ndarray], np.ndarray] | None = None
    interface: Callable[[np.ndarray], float] | None = None

    def metric_at(self, point) -> Metric4:
        return self.evaluate(np.asarray(point, dtype=float))

    def inverse_at(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if self.inverse_evaluate is not None:
            return self.inverse_evaluate(p)
        return metric_inverse(self.evaluate(p)).matrix

    @classmethod
    def constant(cls, g: Metric4) -> "MetricField":
        # Inverted on first use, so a singular constant metric fails only where inverted.
        inverse = cache(lambda: metric_inverse(g).matrix)
        return cls(evaluate=lambda p, _g=g: _g, inverse_evaluate=lambda p: inverse())


def index_profile_field(
    profile: Callable[[np.ndarray], float],
    interface: Callable[[np.ndarray], float] | None = None,
) -> MetricField:
    """Pointwise lift of an isotropic index profile n(x, y, z) to a MetricField."""

    def evaluate(p: np.ndarray) -> Metric4:
        return isotropic_metric_from_index(profile(p))

    def inverse_evaluate(p: np.ndarray) -> np.ndarray:
        n = profile(p)
        _positive_index(n)
        s = -1.0 / (n * n) if n * n > 0.0 else -math.inf
        if s == -math.inf:
            raise NonPositiveIndex(f"refractive index {n} is too small: 1/n^2 overflows")
        out = np.zeros((4, 4))
        out[0, 0] = 1.0
        out[1, 1] = out[2, 2] = out[3, 3] = s
        return out

    return MetricField(evaluate=evaluate, inverse_evaluate=inverse_evaluate, interface=interface)


def leonhardt_velocity(g: Metric4, n: float, *, c: float = 1.0) -> np.ndarray:
    """Moving-frame reading of the coupling term:

        u_i = (g_{i0} / g_00) * c * sqrt(|det g_{ij}|) / (n^2 - 1).

    The spatial determinant is taken in absolute value (it is negative in
    this signature).  Raises UnitIndexSingularity when n^2 is within
    UNIT_INDEX_TOL of 1.
    """
    _positive_index(n)
    denom = n * n - 1.0
    if abs(denom) <= UNIT_INDEX_TOL:
        raise UnitIndexSingularity(f"n = {n} is too close to 1")
    g00 = _check_g00(g)
    spatial_det = float(np.linalg.det(g.spatial))
    return (g.matrix[1:, 0] / g00) * (c * math.sqrt(abs(spatial_det)) / denom)


def metric_identity_residual(g: Metric4) -> float:
    """Max-abs residual of (g_{ik} - g_{0i} g_{0k} / g_00) g^{kj} = delta_i^j."""
    g00 = _check_g00(g)
    ginv = metric_inverse(g).matrix
    g0 = g.matrix[1:, 0]
    reduced = g.spatial - np.outer(g0, g0) / g00
    return float(np.abs(reduced @ ginv[1:, 1:] - np.eye(3)).max())


def _spherical_metric(p: np.ndarray) -> Metric4:
    r, theta = p[0], p[1]
    return Metric4(np.diag([1.0, -1.0, -(r * r), -((r * math.sin(theta)) ** 2)]))


def _cylindrical_metric(p: np.ndarray) -> Metric4:
    rho = p[0]
    return Metric4(np.diag([1.0, -1.0, -(rho * rho), -1.0]))


def coordinate_field(system: str) -> MetricField:
    """Coordinate metric gamma for a named system.

    ``cartesian`` is flat Minkowski; ``spherical`` interprets positions as
    (r, theta, phi); ``cylindrical`` as (rho, phi, z).
    """
    if system == "cartesian":
        return MetricField.constant(MINKOWSKI)
    if system == "spherical":
        return MetricField(evaluate=_spherical_metric)
    if system == "cylindrical":
        return MetricField(evaluate=_cylindrical_metric)
    raise ValueError(f"unknown coordinate system {system!r}")

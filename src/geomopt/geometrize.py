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
from typing import Callable

import numpy as np

from .constitutive import MaterialTensors
from .errors import NonFiniteMetric, NonLorentzian, NonPositiveIndex, SingularMetric
from .errors import UnitIndexSingularity, ZeroG00
from .tensors import (
    FieldTensor,
    Metric4,
    MINKOWSKI,
    TensorKind,
    Variance,
    _antisym,
    _congruent,
    _inverse,
    _matvec,
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
    return _geometrized(material.eps, material.mu, material.w, e, h)


def _geometrized(eps, mu, w, e, h) -> tuple[np.ndarray, np.ndarray]:
    """(D, B) of :func:`geometrized_constitutive` for one medium and field pair or stacks."""
    return _matvec(eps, e) + np.cross(w, h), _matvec(mu, h) - np.cross(w, e)


def fourdim_constitutive(g: Metric4, gamma: Metric4, f: FieldTensor) -> FieldTensor:
    """G^{ab} = (sqrt(-g)/sqrt(-gamma)) g^{ac} g^{bd} F_{cd}."""
    if f.variance is not Variance.COVARIANT or f.kind is not TensorKind.F:
        raise ValueError("fourdim_constitutive needs a covariant field-strength tensor")
    factor = sqrt_minus_det(g) / sqrt_minus_det(gamma)
    out = _fourdim(factor, metric_inverse(g).matrix, f.matrix)
    return FieldTensor(out, Variance.CONTRAVARIANT, TensorKind.G)


def _fourdim(factor, ginv: np.ndarray, f: np.ndarray) -> np.ndarray:
    """G^{ab} of :func:`fourdim_constitutive` for one (factor, g^{-1}, F) or a stack."""
    return _antisym(np.asarray(factor)[..., None, None] * _congruent(ginv, f))


def _checked(values: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """``values``, unless a point is flagged: then the first flagged point's error is raised."""
    for flag in flags:
        if flag != "ok":
            raise flag
    return values


_DIAGONAL = np.eye(4, dtype=bool)


def _coordinate_metric(p: np.ndarray, b) -> np.ndarray:
    """Metrics diag(1, -1, -r^2, -b), r = p[:, 0], of the spherical and cylindrical systems."""
    d = np.stack(np.broadcast_arrays(1.0, -1.0, -(p[:, 0] * p[:, 0]), -b), axis=-1)
    return np.where(_DIAGONAL, d[:, None, :], 0.0)


def _inverting(metrics: Callable[[np.ndarray], np.ndarray]) -> "MetricField":
    """MetricField of the metrics (N, 4, 4) at points (N, 3), inverted numerically:
    flagged NonFiniteMetric, else SingularMetric where |det g| is below tolerance."""

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = metrics(points)
        flags = np.full((2, len(g)), "ok", dtype=object)
        finite = np.isfinite(g + g).all(axis=(1, 2))  # as in Metric4's 0.5 (g + g^T)
        flags[:, ~finite] = NonFiniteMetric("metric entries must be finite")
        ok = np.flatnonzero(finite)
        det = np.linalg.det(g[ok])
        singular = _singular(g[ok], det)
        message = _FAILURES["SingularMetric"][1]
        flags[1, ok[singular]] = [SingularMetric(message.format(det=float(x))) for x in det[singular]]
        values = np.full((2,) + g.shape, math.nan)
        values[0, ok] = g[ok]
        values[1, ok[~singular]] = _inverse(g[ok[~singular]])
        return values, flags

    return MetricField(evaluate=evaluate)


def _index_lift(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metrics diag(1, -n^2, -n^2, -n^2) and their inverses for the indices n (N,),
    stacked and flagged as ``MetricField.evaluate`` returns them.  An inverse is
    flagged only for its index: not positive, or so small that 1/n^2 overflows."""
    n = np.asarray(n, dtype=float)
    n2 = n * n
    s = -1.0 / n2
    d = np.ones((2, len(n), 4))
    d[0, :, 1:], d[1, :, 1:] = -n2[:, None], s[:, None]
    values = np.where(_DIAGONAL, d[..., None, :], 0.0)
    flags = np.full((2, len(n)), "ok", dtype=object)
    if not ((n > 0.0).all() and np.isfinite(d + d).all()):  # a cheap test passes most stacks
        bad = ~(np.isfinite(n) & (n > 0.0))
        flags[0, ~bad & ~np.isfinite(n2 + n2)] = NonFiniteMetric("metric entries must be finite")
        small = ~bad & (s == -math.inf)
        flags[1, small] = [
            NonPositiveIndex(f"refractive index {x} is too small: 1/n^2 overflows") for x in n[small]
        ]
        flags[:, bad] = [NonPositiveIndex(f"refractive index must be positive, got {x}") for x in n[bad]]
        values[flags != "ok"] = math.nan
    return values, flags


@dataclass(frozen=True)
class MetricField:
    """Static metric over space, evaluated on stacked points.

    ``evaluate`` maps points (N, 3) to metrics and inverses, stacked (2, N, 4, 4),
    and their flags (2, N): "ok", or the GeomOptError that the one-point view
    :meth:`metric_at` or :meth:`inverse_at` raises there.  Flagged entries are
    NaN; overflow is a flagged point, not a warning.  ``interface``, when given,
    is negative on one side of the one surface where the metric's gradient
    jumps; the ray tracer splits steps there.  Evaluators must be pure.
    """

    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    interface: Callable[[np.ndarray], float] | None = None

    def metrics(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Metrics (N, 4, 4) at the points (N, 3), and their flags (N,)."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values, flags = self.evaluate(np.asarray(points, dtype=float))
        return values[0], flags[0]

    def inverses(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Inverse metrics (N, 4, 4) at the points (N, 3), and their flags (N,)."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values, flags = self.evaluate(np.asarray(points, dtype=float))
        return values[1], flags[1]

    def metric_at(self, point) -> Metric4:
        return Metric4(_checked(*self.metrics([point]))[0])

    def inverse_at(self, point) -> np.ndarray:
        return _checked(*self.inverses([point]))[0]

    @classmethod
    def constant(cls, g: Metric4) -> "MetricField":
        # Flagged, not raised: a singular constant metric fails only where inverted.
        return _inverting(lambda points: np.broadcast_to(g.matrix, (len(points), 4, 4)))


def isotropic_metric_from_index(n: float) -> Metric4:
    """Metric diag(1, -n^2, -n^2, -n^2) whose effective medium is eps = mu = n I."""
    return index_profile_field(lambda p: np.full(len(p), float(n))).metric_at(np.zeros(3))


def index_profile_field(
    profile: Callable[[np.ndarray], np.ndarray],
    interface: Callable[[np.ndarray], float] | None = None,
) -> MetricField:
    """Pointwise lift of an isotropic index profile, points (N, 3) to indices (N,)."""
    return MetricField(evaluate=lambda points: _index_lift(profile(points)), interface=interface)


def leonhardt_velocity(g: Metric4, n: float, *, c: float = 1.0) -> np.ndarray:
    """Moving-frame reading of the coupling term:

        u_i = (g_{i0} / g_00) * c * sqrt(|det g_{ij}|) / (n^2 - 1).

    The spatial determinant is taken in absolute value (it is negative in
    this signature).  Raises UnitIndexSingularity when n^2 is within
    UNIT_INDEX_TOL of 1.

    The reading is first order in u/c.  On Gordon's metric of a medium with
    eps = mu = n moving at u, its relative error grows as (u/c)^2: at n = 1.7
    it is 3.2e-8 at u/c = 1e-4, 3.2e-4 at 1e-2 and 3.3e-2 at 0.1, and at
    u/c = 0.5 it returns 1.99 c.
    """
    isotropic_metric_from_index(n)  # raises for an index it cannot lift
    denom = n * n - 1.0
    if abs(denom) <= UNIT_INDEX_TOL:
        raise UnitIndexSingularity(f"n = {n} is too close to 1")
    g00 = _check_g00(g)
    spatial_det = float(np.linalg.det(g.spatial))
    return (g.matrix[1:, 0] / g00) * (c * math.sqrt(abs(spatial_det)) / denom)


def metric_identity_residual(g: Metric4) -> float:
    """Max-abs residual of (g_{ik} - g_{0i} g_{0k} / g_00) g^{kj} = delta_i^j."""
    _check_g00(g)
    return float(_metric_identity(g.matrix, metric_inverse(g).matrix))


def _metric_identity(m: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """:func:`metric_identity_residual` of one metric or each in a stack, given g^{-1}."""
    g0 = m[..., 1:, 0]
    reduced = m[..., 1:, 1:] - g0[..., :, None] * g0[..., None, :] / m[..., :1, :1]
    return np.abs(reduced @ ginv[..., 1:, 1:] - np.eye(3)).max(axis=(-2, -1))


def coordinate_field(system: str) -> MetricField:
    """Coordinate metric gamma for a named system.

    ``cartesian`` is flat Minkowski; ``spherical`` interprets positions as
    (r, theta, phi); ``cylindrical`` as (rho, phi, z).
    """
    if system == "cartesian":
        return MetricField.constant(MINKOWSKI)
    if system == "spherical":  # float_power squares (r sin theta) as a scalar ** 2 does; a * a differs
        return _inverting(lambda p: _coordinate_metric(p, np.float_power(p[:, 0] * np.sin(p[:, 1]), 2.0)))
    if system == "cylindrical":
        return _inverting(lambda p: _coordinate_metric(p, 1.0))
    raise ValueError(f"unknown coordinate system {system!r}")

"""Null-geodesic ray tracing through static effective metrics.

Rays are integrated in Hamiltonian form with H = (1/2) g^{ab} k_a k_b:

    dx^a / dlam = g^{ab} k_b,      dk_a / dlam = -(1/2) d_a g^{bc} k_b k_c,

using a classical fixed-step fourth-order scheme.  Metric gradients come
from central differences of the field's inverse metric, evaluated in one
stacked call at the ray's point and its six stencil points, so any
user-supplied static metric works without analytic derivatives.  Because
metrics here are time-independent, dk_0 vanishes identically and the
frequency k_0 is conserved bit for bit.

The catalog provides the classic gradient-index validation media, each
lifted to a metric via diag(1, -n^2, -n^2, -n^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteRay, NonNullLaunch
from .geometrize import MetricField, _checked, index_profile_field, isotropic_metric_from_index

__all__ = [
    "RayState",
    "RayTrajectory",
    "MediumCatalogEntry",
    "hamiltonian",
    "project_to_null",
    "launch_state",
    "trace_ray",
    "maxwell_fisheye",
    "luneburg_lens",
    "homogeneous_medium",
    "catalog",
    "catalog_entry",
]

GRAD_DELTA = 1e-6  # central-difference step of the metric gradient
NULL_TOL = 1e-9  # launch |H|, relative to the quadratic scale
NULL_DRIFT_MAX = 1e-6  # largest max |H| along a ray that counts as null (acceptance bound)


@dataclass(frozen=True)
class RayState:
    """Four-position, wave covector and affine parameter of a ray sample."""

    x: np.ndarray
    k: np.ndarray
    lam: float = 0.0

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if x.shape != (4,) or k.shape != (4,):
            raise ValueError("ray state needs 4-component position and covector")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class RayTrajectory:
    """Sampled ray: affine parameters, positions, covectors and null drift."""

    lam: np.ndarray          # (n,)
    x: np.ndarray            # (n, 4)
    k: np.ndarray            # (n, 4)
    hamiltonians: np.ndarray  # (n,)
    exited_domain: bool = False

    def __len__(self) -> int:
        return self.lam.shape[0]

    def state(self, i: int) -> RayState:
        return RayState(x=self.x[i], k=self.k[i], lam=float(self.lam[i]))

    @property
    def max_null_drift(self) -> float:
        return float(np.abs(self.hamiltonians).max())


def hamiltonian(g_inv, k) -> float:
    """H = (1/2) g^{ab} k_a k_b; zero on null rays."""
    m = getattr(g_inv, "matrix", g_inv)
    k = np.asarray(k, dtype=float)
    return 0.5 * float(k @ m @ k)


def project_to_null(g_inv, k) -> np.ndarray:
    """Rescale the spatial part of k so that H(k) = 0, keeping k_0 fixed."""
    m = np.asarray(getattr(g_inv, "matrix", g_inv), dtype=float)
    k = np.asarray(k, dtype=float).copy()
    ks = k[1:]
    a = float(ks @ m[1:, 1:] @ ks)
    b = 2.0 * float(k[0] * (m[0, 1:] @ ks))
    c = float(m[0, 0] * k[0] * k[0])
    if a == 0.0:
        raise NonNullLaunch("cannot project a covector with no spatial part")
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NonNullLaunch("no real null projection for this covector")
    root = math.sqrt(disc)
    candidates = [(-b + root) / (2.0 * a), (-b - root) / (2.0 * a)]
    positive = [s for s in candidates if s > 0.0]
    if not positive:
        raise NonNullLaunch("null projection flips the propagation direction")
    s = min(positive, key=lambda v: abs(v - 1.0))
    k[1:] = s * ks
    return k


def launch_state(field: MetricField, origin, direction, *, frequency: float = 1.0) -> RayState:
    """Launch at spatial ``origin`` moving along ``direction``.

    The covector starts as (frequency, -frequency * unit direction) and is
    rescaled onto the null shell of the local metric.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    k = np.concatenate(([frequency], -frequency * direction / norm))
    k = project_to_null(field.inverse_at(origin), k)
    return RayState(x=np.concatenate(([0.0], origin)), k=k)


def _in_bounds(p: np.ndarray, bounds) -> bool:
    return all(lo <= v <= hi for v, (lo, hi) in zip(p, bounds))


@np.errstate(over="ignore", invalid="ignore")  # overflow ends the ray as NonFiniteRay
def trace_ray(
    field: MetricField,
    x0,
    k0,
    step: float,
    n_steps: int,
    *,
    bounds: Sequence[tuple[float, float]] | None = None,
) -> RayTrajectory:
    """Integrate a null ray for ``n_steps`` fixed RK4 steps of size ``step``.

    ``bounds``, when given, is one (lo, hi) pair per spatial axis; a step
    that takes the ray from inside the box to outside ends the trajectory
    there with the exit flag set.  A ray launched outside the box runs on
    until it has entered the box and left it again.  A step whose position
    or covector is not finite raises NonFiniteRay.
    Launch covectors must satisfy |H| <= NULL_TOL (relative to the quadratic
    scale); :func:`launch_state` projects a launch onto the null shell.

    Smooth media get plain fixed steps.  A medium whose gradient jumps
    across a surface declares it as ``field.interface``, negative inside.
    A step whose ends lie on different sides is split where it meets the
    surface: bisection on theta in ``rk4(x, k, theta * step)``, down to
    adjacent doubles, finds the crossing, and the two parts are integrated
    separately, so the affine sample grid is unchanged.  Those parts, and a
    step whose start or end stencil touches the surface, are taken with
    their end point's side: along an axis whose difference stencil straddles
    the surface, the gradient is a one-sided difference on that side.  The
    metric is continuous across the surface; only its gradient jumps.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    x = np.asarray(x0, dtype=float).copy()
    k = np.asarray(k0, dtype=float).copy()
    if x.shape != (4,) or k.shape != (4,):
        raise ValueError("x0 and k0 must have 4 components")

    ginv = field.inverse_at(x[1:])
    h0 = hamiltonian(ginv, k)
    scale = max(0.5 * float(np.abs(ginv).max() * (k @ k)), 1.0)
    if abs(h0) > NULL_TOL * scale:
        raise NonNullLaunch(
            f"launch covector has |H| = {abs(h0)}, above tolerance; "
            "launch it with launch_state to project onto the null shell"
        )

    def inside(p: np.ndarray) -> bool:
        return field.interface(p) < 0.0

    # p itself, then its difference stencil in evaluation order: +x, -x, +y, -y, +z, -z.
    stencil = GRAD_DELTA * np.array(
        [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
    )

    def where(p: np.ndarray) -> tuple[bool, bool]:
        """p's side of the surface, and whether p's difference stencil reaches across it."""
        here = inside(p)
        return here, any(inside(q) != here for q in p + stencil[1:])

    def rhs(xc: np.ndarray, kc: np.ndarray, side: bool | None):
        """dx/dlam, dk/dlam and H; with ``side`` given, straddling stencils go one-sided.

        The inverse metric comes from one stacked call at p and its six
        stencil points; the first flagged point, in that order, raises."""
        points = xc[1:] + stencil
        one_sided = []
        for i in range(3) if side is not None else ():
            plus, minus = points[2 * i + 1], points[2 * i + 2]
            if inside(plus) != inside(minus):
                # Second order, one-sided towards the stencil point on ``side``.
                e = stencil[2 * i + 1] if inside(plus) == side else stencil[2 * i + 2]
                points[2 * i + 1], points[2 * i + 2] = points[0] + e, points[0] + 2.0 * e
                one_sided.append((i, e[i]))
        gi = _checked(*field.inverses(points))
        q = (kc[None, None] @ gi @ kc[:, None])[:, 0, 0]  # each row, bit for bit kc @ M @ kc
        dk = np.zeros(4)
        dk[1:] = -(q[1::2] - q[2::2]) / (4.0 * GRAD_DELTA)
        for i, width in one_sided:
            dk[i + 1] = -(4.0 * q[2 * i + 1] - 3.0 * q[0] - q[2 * i + 2]) / (4.0 * width)
        return gi[0] @ kc, dk, 0.5 * q[0]

    def rk4(xc, kc, width, side):
        """The state one step of ``width`` on, and H at the start of the step."""
        dx1, dk1, h = rhs(xc, kc, side)
        dx2, dk2, _ = rhs(xc + 0.5 * width * dx1, kc + 0.5 * width * dk1, side)
        dx3, dk3, _ = rhs(xc + 0.5 * width * dx2, kc + 0.5 * width * dk2, side)
        dx4, dk4, _ = rhs(xc + width * dx3, kc + width * dk3, side)
        xn = xc + (width / 6.0) * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
        kn = kc + (width / 6.0) * (dk1 + 2.0 * dk2 + 2.0 * dk3 + dk4)
        return xn, kn, h

    lam = np.empty(n_steps + 1)
    xs = np.empty((n_steps + 1, 4))
    ks = np.empty((n_steps + 1, 4))
    hs = np.empty(n_steps + 1)
    lam[0], xs[0], ks[0], hs[0] = 0.0, x, k, h0

    side, near = (None, False) if field.interface is None else where(x[1:])
    exited = False
    in_box = bounds is not None and _in_bounds(x[1:], bounds)
    count = 0
    for istep in range(n_steps):
        # H at each sample comes from the first stage of the step that leaves it.
        x_new, k_new, hs[count] = rk4(x, k, step, side if near else None)
        if side is not None:
            end_side, end_near = where(x_new[1:])
            if end_side != side:
                lo, hi, x_lo, k_lo = 0.0, 1.0, x, k
                while lo < (mid := 0.5 * (lo + hi)) < hi:
                    xm, km, _ = rk4(x, k, mid * step, side)
                    if inside(xm[1:]) == side:
                        lo, x_lo, k_lo = mid, xm, km
                    else:
                        hi = mid
                x_new, k_new, _ = rk4(x_lo, k_lo, (1.0 - lo) * step, end_side)
                end_side, end_near = where(x_new[1:])
            elif end_near and not near:
                x_new, k_new, _ = rk4(x, k, step, side)
            side, near = end_side, end_near
        if not (np.isfinite(x_new).all() and np.isfinite(k_new).all()):
            raise NonFiniteRay(f"ray position or covector is not finite after step {istep + 1}")
        x, k = x_new, k_new
        count = istep + 1
        lam[count] = count * step
        xs[count] = x
        ks[count] = k
        if bounds is not None:
            was_in_box, in_box = in_box, _in_bounds(x[1:], bounds)
            if was_in_box and not in_box:
                exited = True
                break
    hs[count] = hamiltonian(field.inverse_at(x[1:]), k)

    end = count + 1
    return RayTrajectory(
        lam=lam[:end], x=xs[:end], k=ks[:end], hamiltonians=hs[:end],
        exited_domain=exited,
    )


@dataclass(frozen=True)
class MediumCatalogEntry:
    """Named isotropic index profile: points (N, 3) to indices n (N,)."""

    name: str
    index: Callable[[np.ndarray], np.ndarray]
    interface: Callable[[np.ndarray], float] | None = None  # where the gradient jumps

    def index_at(self, point) -> float:
        """n at one point; past about 1e154, where |p|^2 overflows to inf, with no warning."""
        with np.errstate(over="ignore"):
            return float(self.index(np.asarray(point, dtype=float)[None])[0])

    def metric_field(self) -> MetricField:
        return index_profile_field(self.index, interface=self.interface)


def _r2(p: np.ndarray) -> np.ndarray:
    """|p|^2 of each point (N, 3), bit for bit the one-point p @ p."""
    return (p[:, None, :] @ p[:, :, None])[:, 0, 0]


def maxwell_fisheye() -> MediumCatalogEntry:
    """n(r) = 2 / (1 + r^2); every ray is a closed circle."""
    return MediumCatalogEntry(name="maxwell_fisheye", index=lambda p: 2.0 / (1.0 + _r2(p)))


def luneburg_lens() -> MediumCatalogEntry:
    """n(r) = sqrt(2 - r^2) inside the unit ball, 1 outside; focuses parallel
    rays onto the opposite rim point."""

    def index(p: np.ndarray) -> np.ndarray:
        r2 = _r2(p)
        return np.sqrt(np.where(r2 <= 1.0, 2.0 - r2, 1.0))

    def interface(p: np.ndarray) -> float:
        # np.vdot is p @ p bit for bit, but leaves overflow (inf) unreported.
        return float(np.vdot(p, p)) - 1.0

    return MediumCatalogEntry(name="luneburg", index=index, interface=interface)


def homogeneous_medium(n: float = 1.0) -> MediumCatalogEntry:
    """Constant index n; rays are straight lines at speed c/n."""
    isotropic_metric_from_index(n)  # raises for an index it cannot lift
    return MediumCatalogEntry(name="homogeneous", index=lambda p: np.full(len(p), float(n)))


def catalog() -> list[MediumCatalogEntry]:
    """The built-in validation media."""
    return [maxwell_fisheye(), luneburg_lens(), homogeneous_medium(1.0)]


_ALIASES = {
    "maxwell_fisheye": "maxwell_fisheye",
    "fisheye": "maxwell_fisheye",
    "luneburg": "luneburg",
    "homogeneous": "homogeneous",
}


def catalog_entry(name: str, **params) -> MediumCatalogEntry:
    """Look up a catalog medium by name; only ``homogeneous`` takes a
    parameter, ``n``.  Any other parameter raises TypeError."""
    key = _ALIASES.get(name)
    if key is None:
        raise KeyError(f"unknown catalog medium {name!r}")
    unknown = sorted(set(params) - ({"n"} if key == "homogeneous" else set()))
    if unknown:
        raise TypeError(f"{name} takes no parameter {', '.join(unknown)}")
    if key == "maxwell_fisheye":
        return maxwell_fisheye()
    if key == "luneburg":
        return luneburg_lens()
    return homogeneous_medium(float(params.get("n", 1.0)))

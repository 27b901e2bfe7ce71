"""Constitutive relations in three- and four-dimensional form.

Covers the stationary anisotropic relations D = eps E, B = mu H, their
four-dimensional packaging as a rank-4 tensor acting on field tensors, the
factored diagonal form for isotropic media, and the moving-media relations
(isotropic closed form and the anisotropic coupled solve).

In the flat Cartesian frames used here, 3-index juggling is Euclidean, so
mixed components eps^i_j coincide numerically with eps^{ij}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MisalignedVelocity,
    NonPositiveMedium,
    SingularMu,
    SingularSystem,
    SuperluminalVelocity,
)
from .tensors import FieldTensor, TensorKind, Variance, _frozen, levi_civita3

__all__ = [
    "MaterialTensors",
    "LambdaTensor",
    "IsotropicMedium",
    "MediumVelocity",
    "apply_constitutive_3d",
    "lambda_from_eps_mu",
    "apply_lambda",
    "isotropic_lambda_factored",
    "minkowski_moving_3d",
    "tamm_moving_anisotropic_3d",
]

SINGULAR_MU_TOL = 1e-12  # |det mu| floor, relative to max|mu|^3
ALIGN_TOL = 1e-9  # largest off-axis velocity component, relative to |u|max


def _check_3x3(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    return m


@dataclass(frozen=True)
class MaterialTensors:
    """Permittivity eps^{ij}, permeability mu^{ij}, magneto-electric coupling w_i."""

    eps: np.ndarray
    mu: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", _frozen(_check_3x3(self.eps, "eps")))
        object.__setattr__(self, "mu", _frozen(_check_3x3(self.mu, "mu")))
        w = np.zeros(3) if self.w is None else np.asarray(self.w, dtype=float)
        if w.shape != (3,) or not np.all(np.isfinite(w)):
            raise ValueError("w must be 3 finite components")
        object.__setattr__(self, "w", _frozen(w))


@dataclass(frozen=True)
class LambdaTensor:
    """Rank-4 constitutive tensor lam^{ab}_{cd}, antisymmetric in each index pair."""

    tensor: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.tensor, dtype=float)
        if t.shape != (4, 4, 4, 4):
            raise ValueError(f"lambda tensor must be 4x4x4x4, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("lambda tensor must be finite")
        scale = float(np.abs(t).max())
        if scale > 0.0:
            upper = np.abs(t + t.transpose(1, 0, 2, 3)).max()
            lower = np.abs(t + t.transpose(0, 1, 3, 2)).max()
            if max(upper, lower) > 1e-12 * scale:
                raise ValueError("lambda tensor must be antisymmetric in each index pair")
        object.__setattr__(self, "tensor", _frozen(t))


@dataclass(frozen=True)
class IsotropicMedium:
    """Scalar permittivity and permeability, both strictly positive."""

    eps: float
    mu: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise NonPositiveMedium(f"eps must be positive, got {self.eps}")
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise NonPositiveMedium(f"mu must be positive, got {self.mu}")


@dataclass(frozen=True)
class MediumVelocity:
    """Three-velocity of the medium with |u| strictly below c."""

    u: np.ndarray
    c: float = 1.0

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        if u.shape != (3,) or not np.all(np.isfinite(u)):
            raise ValueError("u must be 3 finite components")
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be positive, got {self.c}")
        speed = float(np.linalg.norm(u))
        if speed >= self.c:
            raise SuperluminalVelocity(f"|u| = {speed} must be below c = {self.c}")
        object.__setattr__(self, "u", _frozen(u))

    @property
    def beta(self) -> np.ndarray:
        """u / c."""
        return self.u / self.c


def apply_constitutive_3d(m: MaterialTensors, e, h) -> tuple[np.ndarray, np.ndarray]:
    """Stationary relations D^i = eps^{ij} E_j and B^i = mu^{ij} H_j.

    Requires w = 0; media with magneto-electric coupling go through
    :func:`geomopt.geometrize.geometrized_constitutive`.
    """
    if np.any(m.w != 0.0):
        raise ValueError("apply_constitutive_3d requires w = 0")
    e = np.asarray(e, dtype=float)
    h = np.asarray(h, dtype=float)
    return m.eps @ e, m.mu @ h


def lambda_from_eps_mu(eps, mu=None, *, mu_inv=None) -> LambdaTensor:
    """Constitutive tensor with blocks lam^{0i}_{0j} = eps^i_j / 2 and
    lam^{ij}_{mn} = eps^{ijk} eps_{lmn} (mu^{-1})^l_k / 2, zero mixed blocks,
    completed by pair antisymmetry.

    Pass either ``mu`` (inverted here, SingularMu on failure) or ``mu_inv``.
    """
    eps = _check_3x3(eps, "eps")
    if (mu is None) == (mu_inv is None):
        raise ValueError("pass exactly one of mu or mu_inv")
    if mu_inv is None:
        mu = _check_3x3(mu, "mu")
        det = float(np.linalg.det(mu))
        scale = max(float(np.abs(mu).max()), np.finfo(float).tiny)
        if abs(det) < SINGULAR_MU_TOL * scale**3:
            raise SingularMu(f"mu determinant {det} below tolerance")
        mu_inv = np.linalg.inv(mu)
    else:
        mu_inv = _check_3x3(mu_inv, "mu_inv")

    lam = np.zeros((4, 4, 4, 4))
    half_eps = 0.5 * eps
    lam[0, 1:, 0, 1:] = half_eps
    lam[1:, 0, 0, 1:] = -half_eps
    lam[0, 1:, 1:, 0] = -half_eps
    lam[1:, 0, 1:, 0] = half_eps
    sym3 = levi_civita3()
    lam[1:, 1:, 1:, 1:] = 0.5 * np.einsum("ijk,lmn,lk->ijmn", sym3, sym3, mu_inv)
    return LambdaTensor(lam)


def apply_lambda(lam: LambdaTensor, f: FieldTensor) -> FieldTensor:
    """G^{ab} = lam^{ab}_{cd} F^{cd}, the four-dimensional constitutive map."""
    if f.variance is not Variance.CONTRAVARIANT or f.kind is not TensorKind.F:
        raise ValueError("apply_lambda needs a contravariant field-strength tensor")
    g = np.einsum("abcd,cd->ab", lam.tensor, f.matrix)
    return FieldTensor(g, Variance.CONTRAVARIANT, TensorKind.G)


def isotropic_lambda_factored(m: IsotropicMedium) -> tuple[np.ndarray, np.ndarray]:
    """Factored diagonal pair for an isotropic medium at rest.

    Returns (lam_{ab}, lam^{ab}) with
    lam_{ab} = diag(1/(eps sqrt(mu)), -sqrt(mu), -sqrt(mu), -sqrt(mu)) and the
    reciprocal diagonal for lam^{ab}; their product is the identity.
    """
    root_mu = np.sqrt(m.mu)
    lower = np.diag([1.0 / (m.eps * root_mu), -root_mu, -root_mu, -root_mu])
    upper = np.diag([m.eps * root_mu, -1.0 / root_mu, -1.0 / root_mu, -1.0 / root_mu])
    return lower, upper


def minkowski_moving_3d(
    m: IsotropicMedium, v: MediumVelocity, e, h
) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic moving-medium relations in the simplified closed form

        D = eps E + (eps mu - 1) (u/c) x H
        B = mu H  - (eps mu - 1) (u/c) x E

    Exact at u = 0 and whenever eps mu = 1; otherwise first order in u/c.
    """
    e = np.asarray(e, dtype=float)
    h = np.asarray(h, dtype=float)
    beta = v.beta
    coupling = m.eps * m.mu - 1.0
    d = m.eps * e + coupling * np.cross(beta, h)
    b = m.mu * h - coupling * np.cross(beta, e)
    return d, b


def _cross_matrix(w: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def _require_diagonal(m: np.ndarray, name: str) -> None:
    off = m - np.diag(np.diag(m))
    scale = max(float(np.abs(m).max()), 1.0)
    if float(np.abs(off).max()) > 1e-12 * scale:
        raise ValueError(f"{name} must be diagonal")


def _require_axis_aligned(u: np.ndarray) -> None:
    mags = np.abs(u)
    peak = float(mags.max())
    if peak == 0.0:
        return
    rest = np.sort(mags)[:2]
    if float(rest.max()) > ALIGN_TOL * peak:
        raise MisalignedVelocity(
            f"velocity {u.tolist()} is not parallel to a coordinate axis"
        )


def tamm_moving_anisotropic_3d(
    eps, mu, v: MediumVelocity, e, h
) -> tuple[np.ndarray, np.ndarray]:
    """Moving-medium relations for diagonal eps^i_l, mu^i_l with the velocity
    along a principal axis:

        D = eps (E + (u/c) x B) - (u/c) x H
        B = mu  (H - (u/c) x D) + (u/c) x E

    The pair is implicit in (D, B); it is solved exactly as one 6x6 linear
    system, so the returned values satisfy both defining equations to
    rounding.
    """
    eps = _check_3x3(eps, "eps")
    mu = _check_3x3(mu, "mu")
    _require_diagonal(eps, "eps")
    _require_diagonal(mu, "mu")
    _require_axis_aligned(v.u)
    e = np.asarray(e, dtype=float)
    h = np.asarray(h, dtype=float)

    cross = _cross_matrix(v.beta)
    system = np.zeros((6, 6))
    system[:3, :3] = np.eye(3)
    system[:3, 3:] = -(eps @ cross)
    system[3:, :3] = mu @ cross
    system[3:, 3:] = np.eye(3)
    rhs = np.concatenate([eps @ e - cross @ h, mu @ h + cross @ e])
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return solution[:3], solution[3:]

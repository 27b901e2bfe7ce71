"""Numerical verification of the derivation steps behind the geometrization.

Three families of checks live here:

* algebraic identities evaluated on random draws (cyclic covariant sums with
  Christoffel cancellation, metric identities, dual involutions);
* grid residuals for the divergence-form field equations and the cyclic
  derivative identity, with measured convergence order;
* the moving-media four-dimensional projections used as an identity checker
  on given (F, G) pairs.

``default_check_suite`` bundles the seeded invariant checks behind the
command-line ``verify`` mode; each check reports a residual, a threshold and
a pass flag.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constitutive import (
    IsotropicMedium,
    _apply_lambda,
    _lambda,
    _minkowski_moving,
    _mu_inverse,
    _tamm_moving,
)
from .errors import AsymmetricConnection, GridTooSmall, UnnormalizedVelocity
from .geometrize import (
    _fourdim,
    _geometrized,
    _metric_identity,
    coordinate_field,
    isotropic_metric_from_index,
    plebanski_cartesian,
    plebanski_stack,
)
from .sampling import (
    _antisymmetric4,
    _lorentzian_fields,
    _lorentzian_matrices,
    _symmetric_connection,
    random_antisymmetric4,
    random_spd3,
)
from .tensors import (
    FieldTensor,
    Metric4,
    MINKOWSKI,
    TensorKind,
    Variance,
    _alternating,
    _antisym,
    _congruent,
    _f_dual,
    _g_dual,
    _inverse,
    _matvec,
    _packed,
    _unpacked,
    levi_civita3,
    sqrt_minus,
    sqrt_minus_det,
)

__all__ = [
    "FieldGrid",
    "cyclic_partial_sum",
    "cyclic_covariant_sum",
    "bianchi_residual_grid",
    "divergence_residual",
    "minkowski_projection_residual",
    "reconstruct_E_from_DH",
    "reconstruct_H_from_EB",
    "CheckResult",
    "default_check_suite",
    "format_check",
    "suite_ok",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729
CONNECTION_SYMMETRY_TOL = 1e-12  # lower-index asymmetry, relative to max|Gamma|
VELOCITY_NORM_TOL = 1e-9  # |g(u, u) - c^2|, relative to max(c^2, 1)
INNER_STEP_DIVISOR = 64.0  # bianchi_residual_grid: inner step = min spacing / this


def _cyclic(x: np.ndarray) -> np.ndarray:
    return (
        x
        + np.einsum("...bca->...abc", x)
        + np.einsum("...cab->...abc", x)
    )


def cyclic_partial_sum(df: np.ndarray) -> np.ndarray:
    """Cyclic sum d_a F_{bc} + d_b F_{ca} + d_c F_{ab} from partials df[a, b, c]."""
    df = np.asarray(df, dtype=float)
    if df.shape[-3:] != (4, 4, 4):
        raise ValueError(f"partials must end in shape (4, 4, 4), got {df.shape}")
    return _cyclic(df)


def cyclic_covariant_sum(
    df: np.ndarray,
    f: FieldTensor | np.ndarray,
    gamma: np.ndarray,
    *,
    validate: bool = True,
) -> np.ndarray:
    """Covariant cyclic sum expanded with the six connection terms.

    For antisymmetric F and a connection symmetric in its lower indices the
    connection terms cancel and the result equals
    :func:`cyclic_partial_sum`.  ``validate=False`` skips the symmetry check
    (used by negative controls that break the cancellation on purpose).
    """
    fm = f.matrix if isinstance(f, FieldTensor) else np.asarray(f, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (4, 4, 4):
        raise ValueError(f"connection must have shape (4, 4, 4), got {gamma.shape}")
    if validate:
        scale = max(float(np.abs(gamma).max()), np.finfo(float).tiny)
        asymmetry = float(np.abs(gamma - gamma.transpose(0, 2, 1)).max())
        if asymmetry > CONNECTION_SYMMETRY_TOL * scale:
            raise AsymmetricConnection("connection is not symmetric in its lower indices")
    return cyclic_partial_sum(df) - _connection_terms(gamma, fm)


def _connection_terms(gamma: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The six connection terms of :func:`cyclic_covariant_sum`, one (Gamma, F) or a stack."""
    return (
        np.einsum("...dab,...dc->...abc", gamma, f)
        + np.einsum("...dac,...bd->...abc", gamma, f)
        + np.einsum("...dbc,...da->...abc", gamma, f)
        + np.einsum("...dba,...cd->...abc", gamma, f)
        + np.einsum("...dca,...db->...abc", gamma, f)
        + np.einsum("...dcb,...ad->...abc", gamma, f)
    )


def _mesh(origin, shape, spacing) -> tuple[np.ndarray, np.ndarray]:
    origin = np.asarray(origin, dtype=float)
    shape = tuple(int(n) for n in shape)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (4,)).copy()
    if origin.shape != (4,) or len(shape) != 4:
        raise ValueError("origin and shape must cover the four grid axes")
    if np.any(spacing <= 0.0):
        raise ValueError("grid spacing must be positive")
    if min(shape) < 1:
        raise ValueError(f"grid shape must be positive, got {shape}")
    axes = [origin[a] + spacing[a] * np.arange(shape[a]) for a in range(4)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return points, spacing


def bianchi_residual_grid(
    potential: Callable[[np.ndarray], np.ndarray], origin, shape, spacing
) -> float:
    """Interior max-abs residual of the cyclic derivative identity for
    F_{ab} = d_a A_b - d_b A_a built from an analytic potential.

    ``potential`` maps points of shape (..., 4) to components (..., 4).  F is
    differenced at the fine scale min spacing / INNER_STEP_DIVISOR and the
    cyclic sum at the grid spacing, so the returned residual measures the
    O(h^2) truncation of the outer stencil; matching inner and outer scales
    would cancel identically and verify nothing.
    """
    if min(int(n) for n in shape) < 3:
        raise GridTooSmall(f"need at least 3 points per axis, got {tuple(shape)}")
    points, spacing = _mesh(origin, shape, spacing)
    delta = float(spacing.min()) / INNER_STEP_DIVISOR
    if delta <= 0.0:
        raise ValueError("delta must be positive")

    da = np.empty(points.shape[:4] + (4, 4))
    for a in range(4):
        plus = points.copy()
        plus[..., a] += delta
        minus = points.copy()
        minus[..., a] -= delta
        da[..., a, :] = (potential(plus) - potential(minus)) / (2.0 * delta)
    f = da - da.swapaxes(-1, -2)

    df = []
    for c in range(4):
        sl_p = [slice(1, -1)] * 4
        sl_m = [slice(1, -1)] * 4
        sl_p[c] = slice(2, None)
        sl_m[c] = slice(0, -2)
        df.append((f[tuple(sl_p)] - f[tuple(sl_m)]) / (2.0 * spacing[c]))
    stacked = np.stack(df, axis=-3)
    return float(np.abs(_cyclic(stacked)).max())


@dataclass(frozen=True)
class FieldGrid:
    """Uniform 4d grid of induction-tensor samples G^{ab}.

    ``values`` has shape (n0, n1, n2, n3, 4, 4) and ``spacing`` one positive
    step per axis.
    """

    values: np.ndarray
    spacing: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 6 or v.shape[-2:] != (4, 4):
            raise ValueError(f"values must have shape (n0,n1,n2,n3,4,4), got {v.shape}")
        spacing = tuple(float(s) for s in np.broadcast_to(self.spacing, (4,)))
        if any(s <= 0.0 for s in spacing):
            raise ValueError("grid spacing must be positive")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "spacing", spacing)

    @classmethod
    def from_function(cls, fn, origin, shape, spacing) -> "FieldGrid":
        points, sp = _mesh(origin, shape, spacing)
        return cls(values=fn(points), spacing=tuple(sp))


def divergence_residual(
    grid: FieldGrid,
    *,
    sqrt_minus_gamma: float | np.ndarray = 1.0,
    current: np.ndarray | None = None,
    c: float = 1.0,
) -> float:
    """Interior max-abs residual of
    (1/sqrt(-gamma)) d_a (sqrt(-gamma) G^{ab}) - (4 pi / c) j^b.

    ``sqrt_minus_gamma`` is a scalar or per-point array; ``current`` holds
    j^b samples with shape (n0, n1, n2, n3, 4), default zero.  An axis with a
    single sample is treated as static (its derivative term is zero);
    differentiated axes need at least 3 points for the central stencil.
    """
    v = grid.values
    dims = v.shape[:4]
    static = [n == 1 for n in dims]
    if any(1 < n < 3 for n in dims):
        raise GridTooSmall(f"need at least 3 points per differentiated axis, got {dims}")
    weight = np.broadcast_to(np.asarray(sqrt_minus_gamma, dtype=float), dims)
    weighted = v * weight[..., None, None]

    inner = tuple(slice(None) if static[a] else slice(1, -1) for a in range(4))
    inner_shape = tuple(1 if static[a] else dims[a] - 2 for a in range(4))
    div = np.zeros(inner_shape + (4,))
    for a in range(4):
        if static[a]:
            continue
        sl_p = list(inner)
        sl_m = list(inner)
        sl_p[a] = slice(2, None)
        sl_m[a] = slice(0, -2)
        div += (weighted[tuple(sl_p)][..., a, :] - weighted[tuple(sl_m)][..., a, :]) / (
            2.0 * grid.spacing[a]
        )
    residual = div / weight[inner][..., None]
    if current is not None:
        current = np.asarray(current, dtype=float)
        if current.shape != dims + (4,):
            raise ValueError(f"current must have shape {dims + (4,)}, got {current.shape}")
        residual = residual - (4.0 * math.pi / c) * current[inner]
    return float(np.abs(residual).max())


def minkowski_projection_residual(
    f: FieldTensor,
    g_tensor: FieldTensor,
    medium: IsotropicMedium,
    u4,
    g: Metric4,
    *,
    c: float = 1.0,
) -> tuple[float, float]:
    """Residual norms of the moving-media projections

        G^{ab} u_b = eps F^{ab} u_b      and      *F^{ab} u_b = mu *G^{ab} u_b

    for a four-velocity normalized to g(u, u) = c^2.
    """
    u4 = np.asarray(u4, dtype=float)
    if u4.shape != (4,):
        raise ValueError("u4 must have 4 components")
    u_low = g.matrix @ u4
    norm = float(u4 @ u_low)
    if abs(norm - c * c) > VELOCITY_NORM_TOL * max(c * c, 1.0):
        raise UnnormalizedVelocity(f"g(u, u) = {norm}, expected {c * c}")
    r1, r2 = _projection_residuals(
        f.matrix, g_tensor.matrix, medium.eps, medium.mu, u_low, g.matrix, sqrt_minus_det(g)
    )
    return float(r1), float(r2)



def _projection_residuals(f, g_up, eps, mu, u_low, m, s) -> tuple:
    """The two residuals of :func:`minkowski_projection_residual` from matrices
    F_ab, G^ab, g_ab, eps, mu, u_a and sqrt(-g): one of each or stacks."""
    ginv = _inverse(m)
    f_up = _antisym(_congruent(ginv, f))
    r1 = _amax(_matvec(g_up, u_low) - np.asarray(eps)[..., None] * _matvec(f_up, u_low), 1)
    sg_up = _congruent(ginv, _g_dual(g_up, s))
    r2 = _amax(_matvec(_f_dual(f, s), u_low) - np.asarray(mu)[..., None] * _matvec(sg_up, u_low), 1)
    return r1, r2


def _reconstruct(m: np.ndarray, s, v, w, sign: float) -> np.ndarray:
    """[ (g_{0j} g_{i0} - g_00 g_{ij}) v^j + sign g_{0j} g_{ik} eps^{jkl} w_l ] / sqrt(-g)

    for one metric matrix, sqrt(-g) and vector pair, or stacks of them.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    g0 = m[..., 1:, 0]
    coeff = g0[..., :, None] * g0[..., None, :] - m[..., :1, :1] * m[..., 1:, 1:]
    mixed = np.einsum("...j,...ik,jkl,...l->...i", g0, m[..., 1:, 1:], levi_civita3(), w)
    return (_matvec(coeff, v) + sign * mixed) / np.asarray(s)[..., None]


def reconstruct_E_from_DH(g: Metric4, d, h) -> np.ndarray:
    """Field intensity E_i recovered from inductions through the covariant
    metric components (the inverse reading of the medium map):

        E_i = [ (g_{0j} g_{i0} - g_00 g_{ij}) D^j
                - g_{0j} g_{ik} eps^{jkl} H_l ] / sqrt(-g)
    """
    return _reconstruct(g.matrix, sqrt_minus_det(g), d, h, -1.0)


def reconstruct_H_from_EB(g: Metric4, e, b) -> np.ndarray:
    """Field intensity H_i recovered from (E, B) through the dual route:

        H_i = [ (g_{0j} g_{i0} - g_00 g_{ij}) B^j
                + g_{0j} g_{ik} eps^{jkl} E_l ] / sqrt(-g)
    """
    return _reconstruct(g.matrix, sqrt_minus_det(g), b, e, 1.0)


# ---------------------------------------------------------------------------
# default invariant suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    expected_fail: bool = False

    @property
    def ok(self) -> bool:
        """True when the check behaved as intended (controls must fail)."""
        return (not self.passed) if self.expected_fail else self.passed


def format_check(r: CheckResult) -> str:
    verdict = "PASS" if r.passed else "FAIL"
    line = f"{r.name} residual={r.residual:.17g} threshold={r.threshold:.17g} {verdict}"
    if r.expected_fail:
        line += " EXPECTED-FAIL"
    return line


def suite_ok(results: Sequence[CheckResult]) -> bool:
    return all(r.ok for r in results)


def _result(name, residual, threshold, *, expected_fail=False) -> CheckResult:
    return CheckResult(
        name=name,
        residual=float(residual),
        threshold=float(threshold),
        passed=float(residual) <= float(threshold),
        expected_fail=expected_fail,
    )


def _check_vacuum_identity() -> CheckResult:
    res = plebanski_cartesian(MINKOWSKI)
    worst = max(
        float(np.abs(res.material.eps - np.eye(3)).max()),
        float(np.abs(res.material.mu - np.eye(3)).max()),
        float(np.abs(res.material.w).max()),
    )
    return _result("vacuum_identity", worst, 1e-15)


def _stacked(draws: int, draw: Callable[[int], tuple]) -> list[np.ndarray]:
    """Call ``draw(i)`` for i = 0 .. draws - 1, in order, and stack each of its outputs.

    The batched checks draw exactly as a per-draw loop would, then evaluate
    their identity once on the stacks.
    """
    return [np.array(parts) for parts in zip(*(draw(i) for i in range(draws)))]


def _amax(x: np.ndarray, ndim: int) -> np.ndarray:
    """max|x| over the last ``ndim`` axes: one value per draw."""
    return np.abs(x).max(axis=tuple(range(-ndim, 0)))


def _check_impedance_matching(rng, draws) -> CheckResult:
    # mu^{-1} by an independent route: unit B with E = 0 through the
    # four-dimensional map gives H = mu^{-1} B; then mu^{-1} eps = I, measured
    # relative to the rounding scale |mu^{-1}| |eps| of the product.
    g = _lorentzian_matrices(rng, draws)
    eps = plebanski_stack(g, np.ones(draws))[0]
    f = _packed(TensorKind.F, np.zeros((3, 3)), np.eye(3))
    s = sqrt_minus(np.linalg.det(g))
    _, h = _unpacked(TensorKind.G, _fourdim(s[:, None], _inverse(g)[:, None], f))
    mu_inv = h.transpose(0, 2, 1)
    scale = np.maximum(_amax(mu_inv, 2) * _amax(eps, 2), 1.0)
    worst = _amax(mu_inv @ eps - np.eye(3), 2) / scale
    return _result("impedance_matching", worst.max(), 1e-12)


def _check_oracle_equivalence(rng, draws) -> CheckResult:
    g, e, b = _lorentzian_fields(rng, draws)
    s = sqrt_minus(np.linalg.det(g))
    f = _packed(TensorKind.F, e, b)
    d, h = _unpacked(TensorKind.G, _fourdim(s / sqrt_minus_det(MINKOWSKI), _inverse(g), f))
    scale = np.maximum(np.maximum(1.0, _amax(e, 1)), _amax(h, 1))
    worst = np.maximum(
        _amax(_reconstruct(g, s, d, h, -1.0) - e, 1) / scale,
        _amax(_reconstruct(g, s, b, e, 1.0) - h, 1) / scale,
    )
    return _result("oracle_equivalence_4d3d", worst.max(), 1e-10)


def _cancellation_residuals(rng, draws, symmetric: bool) -> np.ndarray:
    # Per draw: random_antisymmetric4, then rng.normal(size=(4, 4, 4)) for the
    # partials, then the connection; 16 + 64 + 64 normals in that order.
    z = rng.standard_normal((draws, 144))
    f = _antisymmetric4(z[:, :16].reshape(draws, 4, 4))
    df = 0.0 + z[:, 16:80].reshape(draws, 4, 4, 4)
    df = 0.5 * (df - df.transpose(0, 1, 3, 2))
    gamma = z[:, 80:].reshape(draws, 4, 4, 4)
    gamma = _symmetric_connection(gamma) if symmetric else 0.0 + gamma
    partial = _cyclic(df)
    lhs = partial - _connection_terms(gamma, f)
    scale = np.maximum(np.maximum(_amax(gamma, 3) * _amax(f, 2), _amax(df, 3)), 1.0)
    return _amax(lhs - partial, 3) / scale


def _check_christoffel_cancellation(rng, draws) -> CheckResult:
    worst = _cancellation_residuals(rng, draws, symmetric=True).max()
    return _result("christoffel_cancellation", worst, 1e-12)


def _check_christoffel_control(rng, draws) -> CheckResult:
    best = _cancellation_residuals(rng, draws, symmetric=False).min()
    return _result("christoffel_asymmetry_control", best, 1e-12, expected_fail=True)


def _check_metric_identity(rng, draws) -> CheckResult:
    g = _lorentzian_matrices(rng, draws)
    return _result("metric_identity", _metric_identity(g, _inverse(g)).max(), 1e-10)


def _check_double_dual(rng, draws) -> CheckResult:
    g, e, b = _lorentzian_fields(rng, draws)
    s = sqrt_minus(np.linalg.det(g))
    f = _packed(TensorKind.F, e, b)
    once = _antisym(_congruent(g, _f_dual(f, s)))
    twice = _antisym(_congruent(g, _f_dual(once, s)))
    worst = _amax(twice + f, 2) / np.maximum(_amax(f, 2), 1.0)
    return _result("double_dual", worst.max(), 1e-10)


def _check_alternating_contraction(rng, draws) -> CheckResult:
    s = sqrt_minus(np.linalg.det(_lorentzian_matrices(rng, draws)))
    up = _alternating(s, Variance.CONTRAVARIANT)
    low = _alternating(s, Variance.COVARIANT)
    worst = np.abs(np.einsum("...abcd,...abcd->...", up, low) + 24.0) / 24.0
    return _result("alternating_contraction", worst.max(), 1e-10)


def _check_lambda_equivalence(rng, draws) -> CheckResult:
    def draw(i):
        if i % 2:
            eps = np.diag(rng.uniform(0.5, 3.0, size=3))
            mu = np.diag(rng.uniform(0.5, 3.0, size=3))
        else:
            eps = random_spd3(rng)
            mu = random_spd3(rng)
        return eps, mu, random_antisymmetric4(rng)

    eps, mu, f = _stacked(draws, draw)
    mu_inv = _mu_inverse(mu)
    got = _apply_lambda(_lambda(eps, mu_inv), f)
    sym3 = levi_civita3()
    top = _matvec(eps, f[:, 0, 1:])
    expected = np.zeros((draws, 4, 4))
    expected[:, 0, 1:] = top
    expected[:, 1:, 0] = -top
    expected[:, 1:, 1:] = 0.5 * np.einsum(
        "ijk,lmn,...lk,...mn->...ij", sym3, sym3, mu_inv, f[:, 1:, 1:]
    )
    worst = _amax(got - expected, 2) / np.maximum(_amax(expected, 2), 1.0)
    return _result("lambda_3d_equivalence", worst.max(), 1e-10)



def _check_inverse_roundtrip() -> CheckResult:
    worst = 0.0
    for n in (0.5, 1.0, 1.5, 2.0, 4.0):
        eps = plebanski_cartesian(isotropic_metric_from_index(n)).material.eps
        worst = max(worst, float(np.abs(eps - n * np.eye(3)).max()))
    return _result("inverse_roundtrip", worst, 1e-12)


def _check_curvilinear_reduction(rng, draws) -> CheckResult:
    g = _lorentzian_matrices(rng, draws)
    cart_eps, cart_w, _, _ = plebanski_stack(g, np.ones(draws))
    curv_eps, curv_w, _, _ = plebanski_stack(g, np.full(draws, sqrt_minus_det(MINKOWSKI)))
    worst = np.maximum(_amax(cart_eps - curv_eps, 2), _amax(cart_w - curv_w, 1))
    return _result("curvilinear_reduction", worst.max(), 0.0)


def _check_spherical_identity(rng, draws) -> CheckResult:
    def draw(_):
        point = [rng.uniform(0.5, 3.0), rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2.0 * math.pi)]
        return point, rng.normal(size=3), rng.normal(size=3)

    points, e, h = _stacked(draws, draw)
    gamma = coordinate_field("spherical").metrics(points)[0]
    eps, w, _, _ = plebanski_stack(gamma, sqrt_minus(np.linalg.det(gamma)))
    d, b = _geometrized(eps, eps, w, e, h)
    hinv = -_inverse(gamma)[:, 1:, 1:]
    worst = np.maximum(_amax(d - _matvec(hinv, e), 1), _amax(b - _matvec(hinv, h), 1))
    return _result("spherical_vacuum_identity", worst.max(), 1e-12)



def _check_moving_reductions(rng, draws, c) -> CheckResult:
    def draw(_):
        e = rng.normal(size=3)
        h = rng.normal(size=3)
        eps = rng.uniform(0.3, 4.0)
        mu = rng.uniform(0.3, 4.0)
        # impedance-matched pair with an exact dyadic product eps * mu = 1
        matched = rng.choice([0.25, 0.5, 2.0, 4.0, 8.0])
        return e, h, eps, mu, matched, rng.uniform(-0.3, 0.3, size=3) * c

    e, h, eps, mu, matched, u = _stacked(draws, draw)
    d, b = _minkowski_moving(eps, mu, np.zeros(3), e, h)
    worst = np.maximum(_amax(d - eps[:, None] * e, 1), _amax(b - mu[:, None] * h, 1))
    d, b = _minkowski_moving(matched, 1.0 / matched, u / c, e, h)
    worst = np.maximum(worst, _amax(d - matched[:, None] * e, 1))
    worst = np.maximum(worst, _amax(b - h / matched[:, None], 1))
    return _result("moving_media_reductions", worst.max(), 1e-14)


def _check_tamm_isotropic(rng, draws, c) -> CheckResult:
    def draw(_):
        eps = rng.uniform(0.5, 3.0)
        mu = rng.uniform(0.5, 3.0)
        axis = rng.integers(0, 3)
        u = np.zeros(3)
        u[axis] = rng.uniform(1e-7, 3e-7) * rng.choice([-1.0, 1.0]) * c
        return eps, mu, u, rng.normal(size=3), rng.normal(size=3)

    eps, mu, u, e, h = _stacked(draws, draw)
    beta = u / c
    d_ref, b_ref = _minkowski_moving(eps, mu, beta, e, h)
    eye = np.eye(3)
    d_got, b_got = _tamm_moving(eps[:, None, None] * eye, mu[:, None, None] * eye, beta, e, h)
    scale = np.maximum(np.maximum(1.0, _amax(d_ref, 1)), _amax(b_ref, 1))
    worst = np.maximum(_amax(d_got - d_ref, 1) / scale, _amax(b_got - b_ref, 1) / scale)
    return _result("tamm_isotropic_agreement", worst.max(), 1e-10)


def sine_wave_potential(points: np.ndarray) -> np.ndarray:
    """Manufactured potential A = (0, sin(t - z), 0, 0) on points (..., 4)."""
    out = np.zeros(points.shape)
    out[..., 1] = np.sin(points[..., 0] - points[..., 3])
    return out


def transverse_wave_inductions(points: np.ndarray) -> np.ndarray:
    """Vacuum plane wave packed as induction samples: D_y = H_z = cos(t - x)."""
    phase = np.cos(points[..., 0] - points[..., 1])
    out = np.zeros(points.shape[:-1] + (4, 4))
    out[..., 0, 2] = -phase
    out[..., 2, 0] = phase
    out[..., 1, 2] = -phase
    out[..., 2, 1] = phase
    return out


def _grid_order(residual: Callable[[int, int, float], float], h: float) -> float:
    """Measured convergence order log2(coarse / fine) of a grid residual.

    ``residual(nt, nx, hx)`` samples nt times at hx / 2 and nx points along
    the wave at hx; both grids span 0.8, the coarse at hx = h, the fine at h / 2.
    """
    n = round(0.8 / h)
    coarse = residual(2 * n + 1, n + 1, h)
    fine = residual(4 * n + 1, 2 * n + 1, h / 2.0)
    return math.log2(coarse / fine)


def _bianchi_residual(nt: int, nx: int, hx: float) -> float:
    return bianchi_residual_grid(
        sine_wave_potential, np.zeros(4), (nt, 3, 3, nx), (hx / 2.0, hx, hx, hx)
    )


def _divergence_residual(nt: int, nx: int, hx: float) -> float:
    grid = FieldGrid.from_function(
        transverse_wave_inductions, np.zeros(4), (nt, nx, 3, 3), (hx / 2.0, hx, hx, hx)
    )
    return divergence_residual(grid)


def _check_bianchi_order() -> CheckResult:
    order = _grid_order(_bianchi_residual, 0.02)
    return _result("bianchi_grid_order", 2.0 - order, 0.1)


def _check_divergence_order() -> CheckResult:
    order = _grid_order(_divergence_residual, 0.02)
    return _result("divergence_grid_order", 2.0 - order, 0.1)


def _check_projection_rest(rng, draws, c) -> CheckResult:
    def draw(_):
        return rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.normal(size=3), rng.normal(size=3)

    eps, mu, e, h = _stacked(draws, draw)
    f = _packed(TensorKind.F, e, mu[:, None] * h)
    g_up = _packed(TensorKind.G, eps[:, None] * e, h)
    g = MINKOWSKI.matrix
    u_low = g @ np.array([c, 0, 0, 0], dtype=float)
    r1, r2 = _projection_residuals(f, g_up, eps, mu, u_low, g, sqrt_minus_det(MINKOWSKI))
    return _result("minkowski_projection_rest", np.maximum(r1 / c, r2 / c).max(), 1e-12)


def default_check_suite(seed: int = DEFAULT_SEED, *, c: float = 1.0) -> list[CheckResult]:
    """Run the seeded invariant suite; identical seeds give identical residuals.

    ``c`` rescales the moving-media checks (velocities drawn as fractions of
    c, four-velocities normalized to c^2), exercising the u/c structure of
    the formulas at any unit choice.
    """
    rng = np.random.default_rng(seed)
    return [
        _check_vacuum_identity(),
        _check_impedance_matching(rng, 1000),
        _check_oracle_equivalence(rng, 1000),
        _check_christoffel_cancellation(rng, 1000),
        _check_christoffel_control(rng, 50),
        _check_metric_identity(rng, 1000),
        _check_double_dual(rng, 1000),
        _check_alternating_contraction(rng, 1000),
        _check_lambda_equivalence(rng, 1000),
        _check_inverse_roundtrip(),
        _check_curvilinear_reduction(rng, 200),
        _check_spherical_identity(rng, 100),
        _check_moving_reductions(rng, 100, c),
        _check_tamm_isotropic(rng, 100, c),
        _check_bianchi_order(),
        _check_divergence_order(),
        _check_projection_rest(rng, 50, c),
    ]

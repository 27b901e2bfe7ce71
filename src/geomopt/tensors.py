"""Dense small-tensor algebra: metrics, field tensors, duals.

Conventions used throughout the package:

* metric signature (+, -, -, -); index 0 is time, indices 1..3 are space;
* the Levi-Civita symbol is a pure symbol with values in {-1, 0, +1};
  all density factors sqrt(-g) appear explicitly in formulas;
* covariant field tensors of kind ``F`` pack the field intensities (E, B),
  contravariant tensors of kind ``G`` pack the inductions (D, H):

      F_{0i} = E_i,   F_{12} = -B^3,  F_{13} = B^2,  F_{23} = -B^1
      G^{0i} = -D^i,  G^{12} = -H_3,  G^{13} = H_2,  G^{23} = -H_1

All matrices are stored dense row-major; every operation is a pure function
on immutable values, safe to call concurrently.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteMetric, NonLorentzian, SingularMetric, VarianceMismatch

__all__ = [
    "Variance",
    "TensorKind",
    "Metric4",
    "FieldTensor",
    "MINKOWSKI",
    "levi_civita3",
    "levi_civita4",
    "sqrt_minus_det",
    "metric_inverse",
    "build_F_lower",
    "build_G_upper",
    "extract_EB",
    "extract_DH",
    "raise_field_tensor",
    "lower_field_tensor",
    "alternating_tensor",
    "dual_F",
    "dual_G",
]


SINGULAR_METRIC_TOL = 1e-12  # |det g| floor, relative to max|g|^4


class Variance(enum.Enum):
    COVARIANT = "covariant"
    CONTRAVARIANT = "contravariant"


class TensorKind(enum.Enum):
    F = "F"            # field strength, packs (E, B)
    G = "G"            # induction, packs (D, H)
    F_DUAL = "Fdual"
    G_DUAL = "Gdual"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _as_vec3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class Metric4:
    """Symmetric 4x4 metric g_{ab}.

    Input must be symmetric to 1e-12 relative; the stored matrix is the
    exactly symmetric average (a no-op for exactly symmetric input).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"metric must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NonFiniteMetric("metric entries must be finite")
        scale = max(float(np.abs(m).max()), 1.0)
        if float(np.abs(m - m.T).max()) > 1e-12 * scale:
            raise ValueError("metric must be symmetric")
        object.__setattr__(self, "matrix", _frozen(0.5 * (m + m.T)))

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def spatial(self) -> np.ndarray:
        """Spatial block g_{ij} of the covariant metric (not of the inverse)."""
        return self.matrix[1:, 1:]


@dataclass(frozen=True)
class FieldTensor:
    """Antisymmetric 4x4 tensor with variance and kind tags."""

    matrix: np.ndarray
    variance: Variance
    kind: TensorKind

    def __post_init__(self) -> None:
        t = np.asarray(self.matrix, dtype=float)
        if t.shape != (4, 4):
            raise ValueError(f"field tensor must be 4x4, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("field tensor entries must be finite")
        scale = float(np.abs(t).max())
        if scale > 0.0 and float(np.abs(t + t.T).max()) > 1e-12 * scale:
            raise ValueError("field tensor must be antisymmetric")
        object.__setattr__(self, "matrix", _frozen(t))
        if not isinstance(self.variance, Variance):
            raise ValueError("variance must be a Variance member")
        if not isinstance(self.kind, TensorKind):
            raise ValueError("kind must be a TensorKind member")


MINKOWSKI = Metric4(np.diag([1.0, -1.0, -1.0, -1.0]))


@lru_cache(maxsize=None)
def levi_civita3() -> np.ndarray:
    """Rank-3 Levi-Civita symbol with value +1 at (0, 1, 2)."""
    sym = np.zeros((3, 3, 3))
    sym[0, 1, 2] = sym[1, 2, 0] = sym[2, 0, 1] = 1.0
    sym[0, 2, 1] = sym[2, 1, 0] = sym[1, 0, 2] = -1.0
    return _frozen(sym)


@lru_cache(maxsize=None)
def levi_civita4() -> np.ndarray:
    """Rank-4 Levi-Civita symbol with value +1 at (0, 1, 2, 3)."""
    sym = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        inversions = sum(
            1 for a, b in itertools.combinations(range(4), 2) if perm[a] > perm[b]
        )
        sym[perm] = -1.0 if inversions % 2 else 1.0
    return _frozen(sym)


def sqrt_minus(det) -> np.ndarray:
    """sqrt(-det) of one metric determinant or a stack; NaN where det >= 0 (not Lorentzian)."""
    return np.sqrt(np.where(det < 0.0, -det, np.nan))


def sqrt_minus_det(g: Metric4) -> float:
    """sqrt(-det g) for a Lorentzian metric; raises NonLorentzian if det g >= 0."""
    det = np.linalg.det(g.matrix)
    s = float(sqrt_minus(det))
    if math.isnan(s):
        raise NonLorentzian(f"metric determinant must be negative, got {det}")
    return s


def _max_abs(m: np.ndarray) -> np.ndarray:
    """max|g| of one metric or of each in a stack, floored at the smallest normal float."""
    return np.abs(m).max(axis=(-2, -1), initial=np.finfo(float).tiny)


def _singular(m: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Where |det g| < SINGULAR_METRIC_TOL * max|g|^4, for one metric or a stack."""
    return np.abs(det) < SINGULAR_METRIC_TOL * _max_abs(m) ** 4


def metric_inverse(g: Metric4) -> Metric4:
    """Inverse metric g^{ab}, exactly symmetric, with g . g^{-1} = I.

    Raises SingularMetric when |det g| < SINGULAR_METRIC_TOL * max|g|^4.
    """
    m = g.matrix
    det = float(np.linalg.det(m))
    if _singular(m, det):
        raise SingularMetric(f"metric determinant {det} below tolerance")
    inv = np.linalg.inv(m)
    return Metric4(0.5 * (inv + inv.T))


# Each kind's variance and the sign of its time row: F_{0i} = E_i, G^{0i} = -D^i.
_PACKING = {
    TensorKind.F: (Variance.COVARIANT, 1.0),
    TensorKind.G: (Variance.CONTRAVARIANT, -1.0),
}


def _pack(kind: TensorKind, time: np.ndarray, space: np.ndarray) -> FieldTensor:
    """Field tensor of ``kind`` from its time-row vector and its spatial vector."""
    variance, sign = _PACKING[kind]
    t = np.zeros((4, 4))
    t[0, 1:] = sign * time
    t[1:, 0] = -sign * time
    t[1, 2], t[1, 3], t[2, 3] = -space[2], space[1], -space[0]
    t[2, 1], t[3, 1], t[3, 2] = space[2], -space[1], space[0]
    return FieldTensor(t, variance, kind)


def build_F_lower(e, b) -> FieldTensor:
    """Covariant field-strength tensor from intensities E_i and induction B^i."""
    return _pack(TensorKind.F, _as_vec3(e, "E"), _as_vec3(b, "B"))


def build_G_upper(d, h) -> FieldTensor:
    """Contravariant induction tensor from inductions D^i and intensities H_i."""
    return _pack(TensorKind.G, _as_vec3(d, "D"), _as_vec3(h, "H"))


def _require_tags(t: FieldTensor, variance: Variance, kinds, op: str) -> None:
    if t.variance is not variance or t.kind not in kinds:
        wanted = "/".join(k.value for k in kinds)
        raise VarianceMismatch(
            f"{op} needs a {variance.value} tensor of kind {wanted}, "
            f"got {t.variance.value} {t.kind.value}"
        )


def _unpack(t: FieldTensor, kind: TensorKind, op: str) -> tuple[np.ndarray, np.ndarray]:
    """The time-row and spatial vectors that :func:`_pack` packed into ``t``."""
    variance, sign = _PACKING[kind]
    _require_tags(t, variance, (kind,), op)
    m = t.matrix
    return sign * m[0, 1:], np.array([-m[2, 3], m[1, 3], -m[1, 2]])


def extract_EB(f: FieldTensor) -> tuple[np.ndarray, np.ndarray]:
    """Read (E_i, B^i) back out of a covariant F tensor. Exact component copies."""
    return _unpack(f, TensorKind.F, "extract_EB")


def extract_DH(g: FieldTensor) -> tuple[np.ndarray, np.ndarray]:
    """Read (D^i, H_i) back out of a contravariant G tensor. Exact component copies."""
    return _unpack(g, TensorKind.G, "extract_DH")


def _antisym(t: np.ndarray) -> np.ndarray:
    return 0.5 * (t - t.T)


def raise_field_tensor(t: FieldTensor, g: Metric4) -> FieldTensor:
    """T^{ab} = g^{ac} g^{bd} T_{cd}; kind is preserved, variance flips."""
    if t.variance is not Variance.COVARIANT:
        raise VarianceMismatch("raise_field_tensor needs a covariant tensor")
    ginv = metric_inverse(g).matrix
    out = _antisym(ginv @ t.matrix @ ginv.T)
    return FieldTensor(out, Variance.CONTRAVARIANT, t.kind)


def lower_field_tensor(t: FieldTensor, g: Metric4) -> FieldTensor:
    """T_{ab} = g_{ac} g_{bd} T^{cd}; kind is preserved, variance flips."""
    if t.variance is not Variance.CONTRAVARIANT:
        raise VarianceMismatch("lower_field_tensor needs a contravariant tensor")
    m = g.matrix
    out = _antisym(m @ t.matrix @ m.T)
    return FieldTensor(out, Variance.COVARIANT, t.kind)


def alternating_tensor(g: Metric4, variance: Variance) -> np.ndarray:
    """Density-weighted alternating tensor.

    Covariant components are sqrt(-g) * symbol, contravariant components are
    -symbol / sqrt(-g), with symbol value +1 at index order (0, 1, 2, 3).
    """
    s = sqrt_minus_det(g)
    sym = levi_civita4()
    if variance is Variance.COVARIANT:
        return s * sym
    if variance is Variance.CONTRAVARIANT:
        return (-1.0 / s) * sym
    raise ValueError("variance must be a Variance member")


def dual_F(f: FieldTensor, g: Metric4) -> FieldTensor:
    """Dual conjugate of a covariant field-strength tensor.

    Components satisfy *F^{0i} = -B^i / sqrt(-g) and
    *F^{jk} = eps^{jkl} E_l / sqrt(-g): the electric and magnetic slots swap,
    mirrored by :func:`dual_G` with the reciprocal density weight so that
    applying the G-dual after the F-dual returns -F exactly.
    """
    _require_tags(f, Variance.COVARIANT, (TensorKind.F, TensorKind.F_DUAL), "dual_F")
    s = sqrt_minus_det(g)
    out = np.einsum("abcd,cd->ab", levi_civita4(), f.matrix) / (2.0 * s)
    kind = TensorKind.F_DUAL if f.kind is TensorKind.F else TensorKind.F
    return FieldTensor(out, Variance.CONTRAVARIANT, kind)


def dual_G(t: FieldTensor, g: Metric4) -> FieldTensor:
    """Dual conjugate of a contravariant induction tensor.

    Components satisfy *G_{0i} = sqrt(-g) H_i and
    *G_{jk} = sqrt(-g) eps_{jkl} D^l; see :func:`dual_F` for the pairing.
    """
    _require_tags(t, Variance.CONTRAVARIANT, (TensorKind.G, TensorKind.G_DUAL), "dual_G")
    s = sqrt_minus_det(g)
    out = (-0.5 * s) * np.einsum("abcd,cd->ab", levi_civita4(), t.matrix)
    kind = TensorKind.G_DUAL if t.kind is TensorKind.G else TensorKind.G
    return FieldTensor(out, Variance.COVARIANT, kind)

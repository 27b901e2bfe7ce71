"""Exception hierarchy for the geomopt package.

Every domain error derives from :class:`GeomOptError` so callers can catch
the package's failures with a single except clause.  The subclasses mirror
the failure modes of the individual operations (singular metrics, wrong
signature, invalid media, bad launch conditions, malformed configs).
"""

__all__ = [
    "GeomOptError",
    "SingularMetric",
    "NonFiniteMetric",
    "NonLorentzian",
    "ZeroG00",
    "VarianceMismatch",
    "SingularMu",
    "NonPositiveMedium",
    "SuperluminalVelocity",
    "MisalignedVelocity",
    "SingularSystem",
    "NonPositiveIndex",
    "UnitIndexSingularity",
    "AsymmetricConnection",
    "GridTooSmall",
    "UnnormalizedVelocity",
    "NonNullLaunch",
    "ConfigError",
]


class GeomOptError(ValueError):
    """Base class for all geomopt domain errors."""


class SingularMetric(GeomOptError):
    """Metric determinant is below the invertibility tolerance."""


class NonFiniteMetric(GeomOptError):
    """A metric entry is infinite or NaN, for instance where a coordinate metric overflows."""


class NonLorentzian(GeomOptError):
    """Metric determinant is not negative, so the (+,-,-,-) machinery does not apply."""


class ZeroG00(GeomOptError):
    """The time-time metric component vanishes where a formula divides by it."""


class VarianceMismatch(GeomOptError):
    """A field tensor's variance or kind tag disagrees with the requested operation."""


class SingularMu(GeomOptError):
    """Permeability tensor cannot be inverted."""


class NonPositiveMedium(GeomOptError):
    """Scalar permittivity or permeability is not strictly positive."""


class SuperluminalVelocity(GeomOptError):
    """Medium speed is not strictly below the speed of light."""


class MisalignedVelocity(GeomOptError):
    """Medium velocity is not parallel to a coordinate axis within tolerance."""


class SingularSystem(GeomOptError):
    """The coupled induction system has no unique solution."""


class NonPositiveIndex(GeomOptError):
    """Refractive index must be strictly positive."""


class UnitIndexSingularity(GeomOptError):
    """Frame-velocity formula degenerates as the refractive index approaches one."""


class AsymmetricConnection(GeomOptError):
    """Connection coefficients are not symmetric in their lower indices."""


class GridTooSmall(GeomOptError):
    """Grid has too few points for interior central differences."""


class UnnormalizedVelocity(GeomOptError):
    """Four-velocity does not satisfy g(u, u) = c^2 within tolerance."""


class NonNullLaunch(GeomOptError):
    """Initial wave covector is not null within tolerance."""


class ConfigError(GeomOptError):
    """Scene configuration is missing keys or holds invalid values."""

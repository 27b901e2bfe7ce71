"""geomopt: effective-geometry toolkit for transformation optics.

Converts space-time metrics into effective material tensors (permittivity,
permeability, magneto-electric coupling) and back, applies the three- and
four-dimensional constitutive relations, verifies the underlying identities
numerically, and validates effective geometries by tracing light rays
through them.
"""

from .constitutive import (
    IsotropicMedium,
    LambdaTensor,
    MaterialTensors,
    MediumVelocity,
    apply_constitutive_3d,
    apply_lambda,
    isotropic_lambda_factored,
    lambda_from_eps_mu,
    minkowski_moving_3d,
    tamm_moving_anisotropic_3d,
)
from .errors import (
    AsymmetricConnection,
    ConfigError,
    GeomOptError,
    GridTooSmall,
    MisalignedVelocity,
    NonFiniteMetric,
    NonLorentzian,
    NonFiniteRay,
    NonNullLaunch,
    NonPositiveIndex,
    NonPositiveMedium,
    SingularMetric,
    SingularMu,
    SingularSystem,
    SuperluminalVelocity,
    UnitIndexSingularity,
    UnnormalizedVelocity,
    VarianceMismatch,
    ZeroG00,
)
from .geometrize import (
    GeometrizationResult,
    MetricField,
    coordinate_field,
    fourdim_constitutive,
    geometrized_constitutive,
    index_profile_field,
    isotropic_metric_from_index,
    leonhardt_velocity,
    metric_identity_residual,
    plebanski_cartesian,
    plebanski_curvilinear,
    plebanski_stack,
)
from .raytrace import (
    MediumCatalogEntry,
    RayState,
    RayTrajectory,
    catalog,
    catalog_entry,
    hamiltonian,
    homogeneous_medium,
    launch_state,
    luneburg_lens,
    maxwell_fisheye,
    project_to_null,
    trace_ray,
)
from .tensors import (
    FieldTensor,
    Metric4,
    MINKOWSKI,
    TensorKind,
    Variance,
    alternating_tensor,
    build_F_lower,
    build_G_upper,
    dual_F,
    dual_G,
    extract_DH,
    extract_EB,
    levi_civita3,
    levi_civita4,
    lower_field_tensor,
    metric_inverse,
    raise_field_tensor,
    sqrt_minus_det,
)
from .verify import (
    CheckResult,
    FieldGrid,
    bianchi_residual_grid,
    cyclic_covariant_sum,
    cyclic_partial_sum,
    default_check_suite,
    divergence_residual,
    minkowski_projection_residual,
    reconstruct_E_from_DH,
    reconstruct_H_from_EB,
)

__version__ = "0.1.0"

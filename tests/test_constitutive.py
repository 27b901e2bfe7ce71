import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomopt import (
    MINKOWSKI,
    FieldTensor,
    IsotropicMedium,
    MaterialTensors,
    MediumVelocity,
    MisalignedVelocity,
    NonPositiveMedium,
    SingularMu,
    SingularSystem,
    SuperluminalVelocity,
    TensorKind,
    Variance,
    apply_constitutive_3d,
    apply_lambda,
    build_F_lower,
    extract_DH,
    isotropic_lambda_factored,
    lambda_from_eps_mu,
    levi_civita3,
    minkowski_moving_3d,
    raise_field_tensor,
    tamm_moving_anisotropic_3d,
)
from geomopt import constitutive
from geomopt.sampling import random_antisymmetric4, random_spd3


class TestApplyConstitutive3d:
    def test_vacuum(self):
        m = MaterialTensors(np.eye(3), np.eye(3))
        d, b = apply_constitutive_3d(m, [1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
        assert_allclose(d, [1.0, 2.0, 3.0])
        assert_allclose(b, [0.0, 0.0, 1.0])

    def test_scaled_diagonal(self):
        m = MaterialTensors(2.0 * np.eye(3), np.eye(3))
        d, b = apply_constitutive_3d(m, [1.0, 0.0, 0.0], np.zeros(3))
        assert_allclose(d, [2.0, 0.0, 0.0])
        assert_allclose(b, np.zeros(3))

    def test_anisotropic_diagonal(self):
        m = MaterialTensors(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        d, _ = apply_constitutive_3d(m, [1.0, 1.0, 1.0], np.zeros(3))
        assert_allclose(d, [1.0, 2.0, 3.0])

    def test_rejects_coupling(self):
        m = MaterialTensors(np.eye(3), np.eye(3), w=[0.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="w = 0"):
            apply_constitutive_3d(m, np.zeros(3), np.zeros(3))


def lambda_spatial_by_summation(mu_inv: np.ndarray) -> np.ndarray:
    """Brute-force sum over the symbol indices for the spatial lambda block."""
    sym = levi_civita3()
    out = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for m in range(3):
                for n in range(3):
                    acc = 0.0
                    for k in range(3):
                        for l in range(3):
                            acc += sym[i, j, k] * sym[l, m, n] * mu_inv[l, k]
                    out[i, j, m, n] = 0.5 * acc
    return out


class TestLambdaTensor:
    def test_vacuum_structure(self):
        lam = lambda_from_eps_mu(np.eye(3), np.eye(3)).tensor
        assert lam[0, 1, 0, 1] == pytest.approx(0.5)
        assert lam[0, 2, 0, 2] == pytest.approx(0.5)
        spatial = lambda_spatial_by_summation(np.eye(3))
        delta = np.eye(3)
        expected = 0.5 * (
            np.einsum("im,jn->ijmn", delta, delta)
            - np.einsum("in,jm->ijmn", delta, delta)
        )
        assert_allclose(spatial, expected, atol=0)
        assert_allclose(lam[1:, 1:, 1:, 1:], expected, atol=0)

    def test_zero_eps_leaves_spatial_block(self):
        lam = lambda_from_eps_mu(np.zeros((3, 3)), mu_inv=np.eye(3)).tensor
        assert np.all(lam[0, :, :, :] * 0 == 0)
        assert np.abs(lam[0]).max() == 0.0
        assert np.abs(lam[:, 0]).max() == 0.0
        assert np.abs(lam[1:, 1:, 1:, 1:]).max() > 0.0

    def test_mixed_blocks_vanish(self, rng):
        lam = lambda_from_eps_mu(random_spd3(rng), random_spd3(rng)).tensor
        assert np.abs(lam[0, 1:, 1:, 1:]).max() == 0.0
        assert np.abs(lam[1:, 1:, 0, 1:]).max() == 0.0

    def test_pair_antisymmetry(self, rng):
        for _ in range(50):
            lam = lambda_from_eps_mu(random_spd3(rng), random_spd3(rng)).tensor
            assert np.abs(lam + lam.transpose(1, 0, 2, 3)).max() < 1e-14
            assert np.abs(lam + lam.transpose(0, 1, 3, 2)).max() < 1e-14

    def test_spatial_block_matches_brute_force(self, rng):
        mu = random_spd3(rng)
        mu_inv = np.linalg.inv(mu)
        lam = lambda_from_eps_mu(np.eye(3), mu).tensor
        assert_allclose(lam[1:, 1:, 1:, 1:], lambda_spatial_by_summation(mu_inv), atol=1e-14)

    def test_mu_inv_and_mu_agree(self, rng):
        mu = random_spd3(rng)
        a = lambda_from_eps_mu(np.eye(3), mu).tensor
        b = lambda_from_eps_mu(np.eye(3), mu_inv=np.linalg.inv(mu)).tensor
        assert_allclose(a, b, atol=1e-13)

    def test_requires_exactly_one_mu(self):
        with pytest.raises(ValueError, match="exactly one"):
            lambda_from_eps_mu(np.eye(3))
        with pytest.raises(ValueError, match="exactly one"):
            lambda_from_eps_mu(np.eye(3), np.eye(3), mu_inv=np.eye(3))

    def test_singular_mu(self):
        with pytest.raises(SingularMu):
            lambda_from_eps_mu(np.eye(3), np.diag([1.0, 1.0, 0.0]))


class TestApplyLambda:
    def test_vacuum_identity(self, rng):
        lam = lambda_from_eps_mu(np.eye(3), np.eye(3))
        f = FieldTensor(random_antisymmetric4(rng), Variance.CONTRAVARIANT, TensorKind.F)
        g = apply_lambda(lam, f)
        assert_allclose(g.matrix, f.matrix, atol=1e-15)
        assert g.kind is TensorKind.G

    def test_permittivity_block(self):
        lam = lambda_from_eps_mu(np.diag([2.0, 1.0, 1.0]), np.eye(3))
        f = raise_field_tensor(build_F_lower([1.0, 0, 0], [0, 0, 0]), MINKOWSKI)
        d, h = extract_DH(apply_lambda(lam, f))
        assert_allclose(d, [2.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(h, np.zeros(3), atol=1e-15)

    def test_permeability_block(self):
        lam = lambda_from_eps_mu(np.eye(3), np.diag([4.0, 4.0, 4.0]))
        f = raise_field_tensor(build_F_lower([0, 0, 0], [0.0, 0.0, 1.0]), MINKOWSKI)
        _, h = extract_DH(apply_lambda(lam, f))
        assert_allclose(h, [0.0, 0.0, 0.25], atol=1e-15)

    def test_matches_component_formulas(self, rng):
        sym = levi_civita3()
        for i in range(200):
            if i % 2:
                eps = np.diag(rng.uniform(0.5, 3.0, size=3))
                mu = np.diag(rng.uniform(0.5, 3.0, size=3))
            else:
                eps = random_spd3(rng)
                mu = random_spd3(rng)
            f = FieldTensor(
                random_antisymmetric4(rng), Variance.CONTRAVARIANT, TensorKind.F
            )
            got = apply_lambda(lambda_from_eps_mu(eps, mu), f).matrix
            mu_inv = np.linalg.inv(mu)
            top = eps @ f.matrix[0, 1:]
            spatial = 0.5 * np.einsum(
                "ijk,lmn,lk,mn->ij", sym, sym, mu_inv, f.matrix[1:, 1:]
            )
            expected = np.zeros((4, 4))
            expected[0, 1:] = top
            expected[1:, 0] = -top
            expected[1:, 1:] = spatial
            scale = max(np.abs(expected).max(), 1.0)
            assert np.abs(got - expected).max() < 1e-10 * scale

    def test_variance_enforced(self):
        lam = lambda_from_eps_mu(np.eye(3), np.eye(3))
        f_cov = build_F_lower([1.0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            apply_lambda(lam, f_cov)

    def test_matches_geometrized_fourdim_map(self, rng):
        # for a static diagonal-in-time metric (no magneto-electric coupling)
        # the rank-4 constitutive tensor built from the geometrized eps, mu
        # reproduces the four-dimensional map G = sqrt(-g) g g F
        from geomopt import Metric4, fourdim_constitutive, plebanski_cartesian
        from geomopt.sampling import random_spd3

        for _ in range(50):
            m = np.zeros((4, 4))
            m[0, 0] = rng.uniform(0.3, 2.0)
            m[1:, 1:] = -random_spd3(rng)
            g = Metric4(m)
            material = plebanski_cartesian(g).material
            lam = lambda_from_eps_mu(material.eps, material.mu)
            f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
            via_lambda = apply_lambda(lam, raise_field_tensor(f, MINKOWSKI)).matrix
            via_metric = fourdim_constitutive(g, MINKOWSKI, f).matrix
            scale = max(np.abs(via_metric).max(), 1.0)
            assert np.abs(via_lambda - via_metric).max() < 1e-12 * scale


class TestIsotropicFactored:
    def test_vacuum_is_flat_metric(self):
        lower, upper = isotropic_lambda_factored(IsotropicMedium(1.0, 1.0))
        assert_allclose(lower, np.diag([1.0, -1.0, -1.0, -1.0]))
        assert_allclose(upper, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_hand_values(self):
        lower, upper = isotropic_lambda_factored(IsotropicMedium(2.0, 4.0))
        assert_allclose(lower, np.diag([0.25, -2.0, -2.0, -2.0]))
        assert_allclose(upper, np.diag([4.0, -0.5, -0.5, -0.5]))

    def test_product_is_identity(self, rng):
        for _ in range(50):
            medium = IsotropicMedium(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            lower, upper = isotropic_lambda_factored(medium)
            assert_allclose(lower @ upper, np.eye(4), atol=1e-12)

    def test_factored_vacuum_map_is_identity(self, rng):
        lower, _ = isotropic_lambda_factored(IsotropicMedium(1.0, 1.0))
        f_up = random_antisymmetric4(rng)
        g_low = np.einsum("ac,bd,cd->ab", lower, lower, f_up)
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        assert_allclose(g_low, eta @ f_up @ eta.T, atol=1e-14)

    def test_positivity_enforced(self):
        with pytest.raises(NonPositiveMedium):
            IsotropicMedium(0.0, 1.0)
        with pytest.raises(NonPositiveMedium):
            IsotropicMedium(1.0, -2.0)

    def test_factored_form_reproduces_block_lambda(self, rng):
        # G^{ab} = lam^{ac} lam^{bd} F_{cd} with the factored diagonals agrees
        # with the block-structured rank-4 tensor for any scalar medium
        for _ in range(25):
            eps = float(rng.uniform(0.3, 4.0))
            mu = float(rng.uniform(0.3, 4.0))
            _, upper = isotropic_lambda_factored(IsotropicMedium(eps, mu))
            f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
            factored = np.einsum("ac,bd,cd->ab", upper, upper, f.matrix)
            lam = lambda_from_eps_mu(eps * np.eye(3), mu * np.eye(3))
            blocked = apply_lambda(lam, raise_field_tensor(f, MINKOWSKI)).matrix
            assert np.abs(factored - blocked).max() < 1e-12 * max(
                np.abs(blocked).max(), 1.0
            )


class TestMinkowskiMoving:
    def test_rest_frame_reduction(self, rng):
        medium = IsotropicMedium(2.5, 0.7)
        e, h = rng.normal(size=3), rng.normal(size=3)
        d, b = minkowski_moving_3d(medium, MediumVelocity(np.zeros(3)), e, h)
        assert np.array_equal(d, medium.eps * e)
        assert np.array_equal(b, medium.mu * h)

    def test_matched_product_kills_coupling(self, rng):
        # eps * mu = 1 exactly for dyadic pairs: coupling coefficient is 0.0
        for eps in (0.5, 2.0, 4.0, 8.0):
            medium = IsotropicMedium(eps, 1.0 / eps)
            v = MediumVelocity(rng.uniform(-0.5, 0.5, size=3))
            e, h = rng.normal(size=3), rng.normal(size=3)
            d, b = minkowski_moving_3d(medium, v, e, h)
            assert np.array_equal(d, medium.eps * e)
            assert np.array_equal(b, medium.mu * h)

    def test_vacuum_velocity_independent(self, rng):
        for _ in range(25):
            v = MediumVelocity(rng.uniform(-0.57, 0.57, size=3))
            e, h = rng.normal(size=3), rng.normal(size=3)
            d, b = minkowski_moving_3d(IsotropicMedium(1.0, 1.0), v, e, h)
            assert np.array_equal(d, e)
            assert np.array_equal(b, h)

    def test_hand_cross_product(self):
        medium = IsotropicMedium(2.0, 3.0)
        v = MediumVelocity([0.1, 0.0, 0.0])
        d, b = minkowski_moving_3d(medium, v, np.zeros(3), [0.0, 0.0, 1.0])
        assert_allclose(d, [0.0, -0.5, 0.0], atol=1e-15)
        assert_allclose(b, [0.0, 0.0, 3.0], atol=1e-15)

    def test_superluminal_rejected(self):
        with pytest.raises(SuperluminalVelocity):
            MediumVelocity([1.0, 0.0, 0.0], c=1.0)
        with pytest.raises(SuperluminalVelocity):
            MediumVelocity([0.0, 2.5, 0.0], c=2.0)


def tamm_residual(eps, mu, v, e, h, d, b):
    """Back-substitution residual of the two defining moving-medium relations."""
    beta = v.beta
    r1 = d - (eps @ (e + np.cross(beta, b)) - np.cross(beta, h))
    r2 = b - (mu @ (h - np.cross(beta, d)) + np.cross(beta, e))
    return max(np.abs(r1).max(), np.abs(r2).max())


class TestTammMoving:
    def test_rest_frame_decouples(self, rng):
        eps = np.diag(rng.uniform(0.5, 3.0, size=3))
        mu = np.diag(rng.uniform(0.5, 3.0, size=3))
        e, h = rng.normal(size=3), rng.normal(size=3)
        d, b = tamm_moving_anisotropic_3d(eps, mu, MediumVelocity(np.zeros(3)), e, h)
        assert_allclose(d, eps @ e, atol=1e-15)
        assert_allclose(b, mu @ h, atol=1e-15)

    def test_isotropic_agreement_with_minkowski(self, rng):
        # the closed form drops terms of second order in u/c, so the
        # comparison runs at small speeds where those terms sit below 1e-10
        # while first-order structure is still strongly exercised
        for _ in range(100):
            eps = float(rng.uniform(0.5, 3.0))
            mu = float(rng.uniform(0.5, 3.0))
            u = np.zeros(3)
            u[int(rng.integers(0, 3))] = rng.uniform(1e-7, 3e-7) * rng.choice([-1, 1])
            v = MediumVelocity(u)
            e, h = rng.normal(size=3), rng.normal(size=3)
            d_ref, b_ref = minkowski_moving_3d(IsotropicMedium(eps, mu), v, e, h)
            d, b = tamm_moving_anisotropic_3d(eps * np.eye(3), mu * np.eye(3), v, e, h)
            scale = max(1.0, np.abs(d_ref).max(), np.abs(b_ref).max())
            assert np.abs(d - d_ref).max() < 1e-10 * scale
            assert np.abs(b - b_ref).max() < 1e-10 * scale

    def test_back_substitution_residual(self):
        eps = np.diag([2.0, 2.0, 2.0])
        mu = np.eye(3)
        v = MediumVelocity([0.1, 0.0, 0.0])
        e = np.array([0.0, 1.0, 0.0])
        h = np.zeros(3)
        d, b = tamm_moving_anisotropic_3d(eps, mu, v, e, h)
        assert tamm_residual(eps, mu, v, e, h, d, b) < 1e-12

    def test_random_residuals(self, rng):
        for _ in range(50):
            eps = np.diag(rng.uniform(0.5, 4.0, size=3))
            mu = np.diag(rng.uniform(0.5, 4.0, size=3))
            u = np.zeros(3)
            u[int(rng.integers(0, 3))] = rng.uniform(-0.4, 0.4)
            v = MediumVelocity(u)
            e, h = rng.normal(size=3), rng.normal(size=3)
            d, b = tamm_moving_anisotropic_3d(eps, mu, v, e, h)
            assert tamm_residual(eps, mu, v, e, h, d, b) < 1e-10

    def test_misaligned_velocity_rejected(self):
        with pytest.raises(MisalignedVelocity):
            tamm_moving_anisotropic_3d(
                np.eye(3), np.eye(3), MediumVelocity([0.1, 0.1, 0.0]),
                np.zeros(3), np.zeros(3),
            )

    def test_nondiagonal_rejected(self):
        eps = np.eye(3)
        eps = eps + 0.0
        eps[0, 1] = 0.3
        eps[1, 0] = 0.3
        with pytest.raises(ValueError, match="diagonal"):
            tamm_moving_anisotropic_3d(
                eps, np.eye(3), MediumVelocity([0.1, 0.0, 0.0]),
                np.zeros(3), np.zeros(3),
            )

    def test_singular_system(self):
        # eps * mu * (u/c)^2 = 1 makes the coupled system singular
        with pytest.raises(SingularSystem):
            tamm_moving_anisotropic_3d(
                2.0 * np.eye(3), 2.0 * np.eye(3), MediumVelocity([0.5, 0.0, 0.0]),
                np.ones(3), np.ones(3),
            )


class TestStackHelpers:
    """The Lambda cores on 200 seeded draws equal 200 calls of the scalar
    public functions, bit for bit."""

    def test_lambda_build_and_apply(self):
        rng = np.random.default_rng(31)
        eps = np.array([random_spd3(rng) for _ in range(200)])
        mu = np.array([random_spd3(rng) for _ in range(200)])
        f = np.array([random_antisymmetric4(rng) for _ in range(200)])
        lam = constitutive._lambda(eps, constitutive._mu_inverse(mu))
        scalar = [lambda_from_eps_mu(eps[i], mu[i]) for i in range(200)]
        assert lam.tobytes() == np.array([x.tensor for x in scalar]).tobytes()
        applied = [
            apply_lambda(scalar[i], FieldTensor(f[i], Variance.CONTRAVARIANT, TensorKind.F)).matrix
            for i in range(200)
        ]
        assert constitutive._apply_lambda(lam, f).tobytes() == np.array(applied).tobytes()

    def test_mu_inverse_names_first_singular_determinant(self):
        first, second = np.diag([1.0, 1.0, 2e-13]), np.diag([1.0, 1.0, 1e-13])
        with pytest.raises(SingularMu) as info:
            constitutive._mu_inverse(np.array([np.eye(3), first, second]))
        assert str(info.value) == f"mu determinant {float(np.linalg.det(first))} below tolerance"

    def test_scalar_singular_message_unchanged(self):
        mu = np.diag([1.0, 1.0, 1e-13])
        with pytest.raises(SingularMu) as info:
            lambda_from_eps_mu(np.eye(3), mu)
        assert str(info.value) == f"mu determinant {float(np.linalg.det(mu))} below tolerance"

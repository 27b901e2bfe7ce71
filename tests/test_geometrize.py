import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomopt import (
    MINKOWSKI,
    MediumVelocity,
    Metric4,
    MetricField,
    NonLorentzian,
    NonPositiveIndex,
    SingularMetric,
    UnitIndexSingularity,
    ZeroG00,
    build_F_lower,
    catalog,
    coordinate_field,
    extract_DH,
    fourdim_constitutive,
    geometrized_constitutive,
    homogeneous_medium,
    index_profile_field,
    isotropic_metric_from_index,
    leonhardt_velocity,
    metric_identity_residual,
    metric_inverse,
    plebanski_cartesian,
    plebanski_curvilinear,
    plebanski_stack,
    raise_field_tensor,
    sqrt_minus_det,
    tamm_moving_anisotropic_3d,
    trace_ray,
)
from geomopt import geometrize
from geomopt.raytrace import GRAD_DELTA
from geomopt.sampling import random_lorentzian_metric
from geomopt.tensors import _inverse, sqrt_minus

OFFSET_METRIC = np.array(
    [
        [1.0, 0.5, 0.0, 0.0],
        [0.5, -1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ]
)


class TestPlebanskiCartesian:
    def test_vacuum_identity_exact(self):
        res = plebanski_cartesian(MINKOWSKI)
        eye = np.eye(3)
        assert np.array_equal(res.material.eps, eye)
        assert np.array_equal(res.material.mu, eye)
        assert np.array_equal(res.material.w, np.zeros(3))
        assert res.sqrt_minus_g == 1.0
        assert res.g00 == 1.0
        assert not res.negative_g00

    def test_diagonal_example(self):
        res = plebanski_cartesian(Metric4(np.diag([1.0, -4.0, -1.0, -1.0])))
        assert_allclose(res.material.eps, np.diag([0.5, 2.0, 2.0]), atol=1e-15)
        assert res.sqrt_minus_g == pytest.approx(2.0)
        assert_allclose(res.material.w, np.zeros(3))

    def test_time_space_offset_against_inverse_oracle(self):
        g = Metric4(OFFSET_METRIC)
        res = plebanski_cartesian(g)
        # independent route: full 4x4 inverse by linear solve
        det = np.linalg.det(OFFSET_METRIC)
        inv = np.linalg.solve(OFFSET_METRIC, np.eye(4))
        expected_eps = -(math.sqrt(-det) / OFFSET_METRIC[0, 0]) * inv[1:, 1:]
        assert_allclose(res.material.eps, expected_eps, atol=1e-14)
        # frozen golden values
        root = math.sqrt(1.25)
        assert res.material.eps[0, 0] == pytest.approx(0.8 * root, abs=1e-12)
        assert res.material.eps[1, 1] == pytest.approx(root, abs=1e-12)
        assert res.material.eps[2, 2] == pytest.approx(root, abs=1e-12)
        assert res.material.eps[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert_allclose(res.material.w, [0.5, 0.0, 0.0], atol=1e-15)

    def test_impedance_matching_and_symmetry(self, rng):
        for _ in range(300):
            material = plebanski_cartesian(random_lorentzian_metric(rng)).material
            assert np.array_equal(material.eps, material.mu)
            assert np.array_equal(material.eps, material.eps.T)

    def test_non_lorentzian_rejected(self):
        with pytest.raises(NonLorentzian):
            plebanski_cartesian(Metric4(np.diag([1.0, 1.0, -1.0, -1.0])))

    def test_zero_g00_rejected(self):
        m = np.diag([0.0, -1.0, -1.0, -1.0])
        m[0, 1] = m[1, 0] = 1.0  # keeps det < 0 with g00 = 0
        g = Metric4(m)
        assert np.linalg.det(m) < 0
        with pytest.raises(ZeroG00):
            plebanski_cartesian(g)

    def test_negative_g00_flagged(self):
        m = np.diag([-1.0, 1.0, -1.0, -1.0])
        assert np.linalg.det(m) < 0
        res = plebanski_cartesian(Metric4(m))
        assert res.negative_g00


class TestPlebanskiCurvilinear:
    def test_flat_gamma_reduces_bit_identically(self, rng):
        for _ in range(100):
            g = random_lorentzian_metric(rng)
            cart = plebanski_cartesian(g)
            curv = plebanski_curvilinear(g, MINKOWSKI)
            assert np.array_equal(cart.material.eps, curv.material.eps)
            assert np.array_equal(cart.material.mu, curv.material.mu)
            assert np.array_equal(cart.material.w, curv.material.w)

    def test_spherical_vacuum_point(self):
        r, theta = 2.0, math.pi / 2.0
        g = Metric4(np.diag([1.0, -1.0, -(r**2), -((r * math.sin(theta)) ** 2)]))
        res = plebanski_curvilinear(g, g)
        assert_allclose(res.material.eps, np.diag([1.0, 0.25, 0.25]), atol=1e-14)
        assert_allclose(res.material.w, np.zeros(3))

    def test_spherical_vacuum_is_identity_medium(self, rng):
        field = coordinate_field("spherical")
        for _ in range(100):
            point = np.array(
                [
                    rng.uniform(0.5, 3.0),
                    rng.uniform(0.3, math.pi - 0.3),
                    rng.uniform(0.0, 2 * math.pi),
                ]
            )
            gamma = field.metric_at(point)
            res = plebanski_curvilinear(gamma, gamma)
            e, h = rng.normal(size=3), rng.normal(size=3)
            d, b = geometrized_constitutive(res, e, h)
            raising = -metric_inverse(gamma).matrix[1:, 1:]
            assert np.abs(d - raising @ e).max() < 1e-12
            assert np.abs(b - raising @ h).max() < 1e-12

    def test_cylindrical_vacuum_is_identity_medium(self, rng):
        field = coordinate_field("cylindrical")
        for _ in range(50):
            point = np.array([rng.uniform(0.5, 3.0), rng.uniform(0.0, 2 * math.pi), 0.0])
            gamma = field.metric_at(point)
            res = plebanski_curvilinear(gamma, gamma)
            e = rng.normal(size=3)
            d, _ = geometrized_constitutive(res, e, np.zeros(3))
            raising = -metric_inverse(gamma).matrix[1:, 1:]
            assert np.abs(d - raising @ e).max() < 1e-12

    def test_spatial_frame_change_is_a_tensor_map(self, rng):
        """With g -> L^T g L and eta -> L^T eta L for L = diag(1, J), the
        medium transforms as eps -> J^-1 eps J^-T and w -> J^T w."""
        worst_eps = worst_w = 0.0
        for _ in range(200):
            g = random_lorentzian_metric(rng)
            jac = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
            frame = np.eye(4)
            frame[1:, 1:] = jac
            res = plebanski_cartesian(g).material
            moved = plebanski_curvilinear(
                Metric4(frame.T @ g.matrix @ frame),
                Metric4(frame.T @ MINKOWSKI.matrix @ frame),
            ).material
            jinv = np.linalg.inv(jac)
            expected_eps = jinv @ res.eps @ jinv.T
            worst_eps = max(
                worst_eps,
                float(np.abs(moved.eps - expected_eps).max() / np.abs(expected_eps).max()),
            )
            worst_w = max(worst_w, float(np.abs(moved.w - jac.T @ res.w).max()))
        assert worst_eps < 1e-11
        assert worst_w < 1e-11

    def test_spatially_scaled_metric(self):
        n = 3.0
        g = Metric4(np.diag([1.0, -(n**2), -(n**2), -(n**2)]))
        res = plebanski_curvilinear(g, MINKOWSKI)
        assert_allclose(res.material.eps, n * np.eye(3), atol=1e-12)

    def test_gamma_must_be_lorentzian(self):
        with pytest.raises(NonLorentzian):
            plebanski_curvilinear(MINKOWSKI, Metric4(np.eye(4)))


def _zero_g00_metric(g01):
    m = np.diag([0.0, -1.0, -1.0, -1.0])
    m[0, 1] = m[1, 0] = g01  # det = -g01^2 < 0 with g00 = 0
    return m


# Metrics for each outcome of the map, with the scalar map's message; where
# two errors apply, the flag is the one raised first.
CRAFTED = [
    (np.diag([1.0, 1.0, -1.0, -1.0]), "NonLorentzian", "must be negative, got 1.0"),
    (np.diag([0.0, -1.0, -1.0, -1.0]), "NonLorentzian", "must be negative"),  # det 0, g00 0
    (_zero_g00_metric(1.0), "ZeroG00", "needs g_00 != 0"),
    (_zero_g00_metric(1e-7), "ZeroG00", "needs g_00 != 0"),  # also singular: det -1e-14
    (np.diag([1.0, -1e-5, -1e-5, -1e-5]), "SingularMetric", "below tolerance"),  # det -1e-15
    (np.diag([-1.0, 1.0, -1.0, -1.0]), "ok", None),  # g00 < 0
]
SCALAR_ERRORS = (NonLorentzian, ZeroG00, SingularMetric)


class TestPlebanskiStack:
    def assert_matches_scalar(self, metrics, gammas=None):
        """Stack every metric; compare each point with the scalar map, which
        is plebanski_cartesian when no coordinate metrics are given."""
        g = np.stack([m.matrix for m in metrics])
        if gammas is None:
            sqrt_minus_gamma = np.ones(len(metrics))
        else:
            sqrt_minus_gamma = sqrt_minus(np.linalg.det(np.stack([m.matrix for m in gammas])))
        eps, w, det, flags = plebanski_stack(g, sqrt_minus_gamma)
        for i, metric in enumerate(metrics):
            try:
                if gammas is None:
                    res = plebanski_cartesian(metric)
                else:
                    res = plebanski_curvilinear(metric, gammas[i])
            except SCALAR_ERRORS as exc:
                assert flags[i] == type(exc).__name__
                assert np.isnan(eps[i]).all() and np.isnan(w[i]).all()
                continue
            assert flags[i] == "ok"
            assert np.array_equal(eps[i], res.material.eps)
            assert np.array_equal(w[i], res.material.w)
            assert sqrt_minus(det[i]) == res.sqrt_minus_g
        return eps, flags

    def test_cartesian_stack_matches_scalar_map(self, rng):
        metrics = [random_lorentzian_metric(rng) for _ in range(1000)]
        metrics += [Metric4(m) for m, _, _ in CRAFTED]
        eps, flags = self.assert_matches_scalar(metrics)
        assert list(flags[-len(CRAFTED):]) == [flag for _, flag, _ in CRAFTED]
        assert list(flags[:1000]) == ["ok"] * 1000
        # the map written out through tensors' scalar inverse and determinant
        for i, g in enumerate(metrics[:1000]):
            factor = -sqrt_minus_det(g) / float(g.matrix[0, 0])
            assert np.array_equal(eps[i], factor * metric_inverse(g).matrix[1:, 1:] + 0.0)

    def test_curvilinear_stack_matches_scalar_map(self, rng):
        metrics = [random_lorentzian_metric(rng) for _ in range(200)]
        gammas = [random_lorentzian_metric(rng) for _ in range(200)]
        # a non-Lorentzian gamma is flagged before anything wrong with g
        metrics += [Metric4(m) for m, _, _ in CRAFTED]
        gammas += [Metric4(np.eye(4))] * len(CRAFTED)
        _, flags = self.assert_matches_scalar(metrics, gammas)
        assert set(flags[-len(CRAFTED):]) == {"NonLorentzian"}

    def test_scalar_raises_each_flag(self):
        for m, flag, reason in CRAFTED[:-1]:
            with pytest.raises(SCALAR_ERRORS, match=reason) as info:
                plebanski_cartesian(Metric4(m))
            assert type(info.value).__name__ == flag

    def test_non_lorentzian_gamma_message(self):
        with pytest.raises(NonLorentzian, match="must be negative, got 1.0"):
            plebanski_curvilinear(MINKOWSKI, Metric4(np.eye(4)))


class TestGeometrizedConstitutive:
    def test_reduces_without_coupling(self, rng):
        res = plebanski_cartesian(Metric4(np.diag([1.0, -4.0, -1.0, -1.0])))
        e, h = rng.normal(size=3), rng.normal(size=3)
        d, b = geometrized_constitutive(res, e, h)
        assert_allclose(d, res.material.eps @ e, atol=1e-15)
        assert_allclose(b, res.material.mu @ h, atol=1e-15)

    def test_coupling_cross_product(self):
        from geomopt import MaterialTensors

        material = MaterialTensors(np.eye(3), np.eye(3), w=[0.5, 0.0, 0.0])
        d, b = geometrized_constitutive(material, np.zeros(3), [0.0, 0.0, 1.0])
        assert_allclose(d, [0.0, -0.5, 0.0], atol=1e-15)
        assert_allclose(b, [0.0, 0.0, 1.0], atol=1e-15)

    def test_consistent_with_fourdim_map(self, rng):
        for _ in range(200):
            g = random_lorentzian_metric(rng)
            res = plebanski_cartesian(g)
            e, h = rng.normal(size=3), rng.normal(size=3)
            d_direct, b_direct = geometrized_constitutive(res, e, h)
            f = build_F_lower(e, b_direct)
            d_4d, h_4d = extract_DH(fourdim_constitutive(g, MINKOWSKI, f))
            scale = max(1.0, np.abs(d_direct).max(), np.abs(h).max())
            assert np.abs(d_4d - d_direct).max() < 1e-10 * scale
            assert np.abs(h_4d - h).max() < 1e-10 * scale


class TestFourdimConstitutive:
    def test_vacuum_is_index_raising(self, rng):
        f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
        g_map = fourdim_constitutive(MINKOWSKI, MINKOWSKI, f)
        assert_allclose(
            g_map.matrix, raise_field_tensor(f, MINKOWSKI).matrix, atol=1e-15
        )

    def test_diagonal_permittivity(self):
        g = Metric4(np.diag([1.0, -4.0, -1.0, -1.0]))
        f = build_F_lower([1.0, 0.0, 0.0], np.zeros(3))
        d, h = extract_DH(fourdim_constitutive(g, MINKOWSKI, f))
        assert_allclose(d, [0.5, 0.0, 0.0], atol=1e-15)
        assert_allclose(h, np.zeros(3), atol=1e-15)

    def test_variance_enforced(self, rng):
        f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
        with pytest.raises(ValueError):
            fourdim_constitutive(MINKOWSKI, MINKOWSKI, raise_field_tensor(f, MINKOWSKI))


class TestIndexLift:
    def test_unit_index_is_flat(self):
        assert np.array_equal(isotropic_metric_from_index(1.0).matrix, MINKOWSKI.matrix)

    def test_round_trip_n2(self):
        g = isotropic_metric_from_index(2.0)
        assert np.array_equal(g.matrix, np.diag([1.0, -4.0, -4.0, -4.0]))
        eps = plebanski_cartesian(g).material.eps
        assert_allclose(eps, 2.0 * np.eye(3), atol=1e-15)

    def test_round_trip_sqrt2(self):
        n = math.sqrt(2.0)
        eps = plebanski_cartesian(isotropic_metric_from_index(n)).material.eps
        assert_allclose(eps, n * np.eye(3), atol=1e-12)

    def test_round_trip_family(self):
        for n in (0.5, 1.0, 1.5, 2.0, 4.0):
            eps = plebanski_cartesian(isotropic_metric_from_index(n)).material.eps
            assert np.abs(eps - n * np.eye(3)).max() < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveIndex):
            isotropic_metric_from_index(0.0)
        with pytest.raises(NonPositiveIndex):
            isotropic_metric_from_index(-2.0)

    @pytest.mark.parametrize("n", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "lift",
        [
            isotropic_metric_from_index,
            lambda n: index_profile_field(lambda p: np.full(len(p), n)).inverse_at([0.0, 0.0, 0.0]),
            lambda n: leonhardt_velocity(Metric4(OFFSET_METRIC), n),
            homogeneous_medium,
        ],
        ids=["metric_from_index", "profile_inverse", "leonhardt_velocity", "homogeneous"],
    )
    def test_every_entry_point_rejects_a_non_positive_index(self, lift, n):
        with pytest.raises(NonPositiveIndex) as caught:
            lift(n)
        assert str(caught.value) == f"refractive index must be positive, got {n}"

    @pytest.mark.parametrize("n", [1e-160, 1e-200])  # 1/n^2 overflows; n^2 underflows
    def test_profile_field_rejects_vanishing_index(self, n):
        with pytest.raises(NonPositiveIndex, match="too small"):
            index_profile_field(lambda p: np.full(len(p), n)).inverse_at([0.0, 0.0, 0.0])

    def test_profile_field_lift(self):
        field = index_profile_field(lambda p: 2.0 / (1.0 + (p * p).sum(axis=1)))
        g0 = field.metric_at([0.0, 0.0, 0.0])
        assert np.array_equal(g0.matrix, np.diag([1.0, -4.0, -4.0, -4.0]))
        p = np.array([0.3, -0.2, 0.7])
        assert_allclose(
            field.inverse_at(p), metric_inverse(field.metric_at(p)).matrix, atol=1e-14
        )


def gordon_metric(n: float, beta: np.ndarray) -> Metric4:
    """Gordon's optical metric eta + (1/n^2 - 1) u_a u_b / c^2 of a medium with
    eps = mu = n moving at u = beta c, with u^a = gamma (c, u)."""
    u_low = np.concatenate(([1.0], -beta)) / math.sqrt(1.0 - float(beta @ beta))
    return Metric4(MINKOWSKI.matrix + (1.0 / (n * n) - 1.0) * np.outer(u_low, u_low))


class TestGordonMetric:
    """Plebanski's map of the Gordon metric is Minkowski's moving medium: two
    independently coded modules, geometrize and constitutive, meet to rounding."""

    def test_plebanski_of_gordon_is_the_exact_moving_medium(self):
        # g_00 = (1 - n^2 beta^2) / (n^2 (1 - beta^2)) vanishes where the medium
        # moves at its own speed of light, and the map divides by it; so the
        # relative difference is weighted by n^2 |g_00|.  Over 15000 draws it
        # read at most 8.4e-15 so weighted (unweighted: 1.6e-11 at
        # n^2 |g_00| = 9e-5); the bound leaves a margin of 12.
        rng = np.random.default_rng(1923)
        worst, faster_than_light = 0.0, 0
        for i in range(400):
            c = (1.0, 3.0)[i % 2]
            n = rng.uniform(1.1, 3.0)
            u = np.zeros(3)
            u[rng.integers(0, 3)] = rng.uniform(-0.6, 0.6) * c
            res = plebanski_cartesian(gordon_metric(n, u / c))
            e, h = rng.normal(size=3), rng.normal(size=3)
            d, b = geometrized_constitutive(res, e, h)
            d_ref, b_ref = tamm_moving_anisotropic_3d(
                n * np.eye(3), n * np.eye(3), MediumVelocity(u, c=c), e, h
            )
            scale = max(float(np.abs(d_ref).max()), float(np.abs(b_ref).max()))
            diff = max(float(np.abs(d - d_ref).max()), float(np.abs(b - b_ref).max())) / scale
            worst = max(worst, diff * n * n * abs(res.g00))
            # n |u| > c: the medium outruns its own light and g_00 < 0
            assert res.negative_g00 == (n * float(np.abs(u).max()) > c)
            faster_than_light += res.negative_g00
        assert faster_than_light > 40
        assert worst < 1e-13


class TestLeonhardtVelocity:
    def test_static_metric_gives_zero(self, rng):
        g = Metric4(np.diag([1.0, -4.0, -1.0, -1.0]))
        assert_allclose(leonhardt_velocity(g, 2.0), np.zeros(3))

    def test_hand_value(self):
        u = leonhardt_velocity(Metric4(OFFSET_METRIC), 2.0)
        assert_allclose(u, [0.5 / 3.0, 0.0, 0.0], atol=1e-15)

    def test_speed_of_light_scaling(self):
        u1 = leonhardt_velocity(Metric4(OFFSET_METRIC), 2.0, c=1.0)
        u2 = leonhardt_velocity(Metric4(OFFSET_METRIC), 2.0, c=2.0)
        assert_allclose(u2, 2.0 * u1)

    def test_first_order_on_the_gordon_metric(self):
        # At n = 1.7 the reading is off by about 3.217 beta^2, relative:
        # 3.2e-8 at beta = 1e-4, 3.2e-4 at 1e-2.
        def error(beta):
            u = leonhardt_velocity(gordon_metric(1.7, np.array([beta, 0.0, 0.0])), 1.7)
            assert u[1:].tolist() == [0.0, 0.0]
            return abs(u[0] - beta) / beta

        small, large = error(1e-4), error(1e-2)
        assert small == pytest.approx(3.217e-8, rel=1e-3)
        assert large == pytest.approx(3.218e-4, rel=1e-3)
        assert math.log10(large / small) / 2.0 == pytest.approx(2.0, abs=1e-3)

    def test_unit_index_guard(self):
        with pytest.raises(UnitIndexSingularity):
            leonhardt_velocity(Metric4(OFFSET_METRIC), 1.0)
        with pytest.raises(UnitIndexSingularity):
            leonhardt_velocity(Metric4(OFFSET_METRIC), 1.0 + 1e-11)


class TestMetricIdentity:
    def test_minkowski_is_zero(self):
        assert metric_identity_residual(MINKOWSKI) == 0.0

    def test_diagonal_is_rounding_level(self):
        assert metric_identity_residual(Metric4(np.diag([1.0, -4.0, -1.0, -1.0]))) < 1e-15

    def test_random_metrics(self, rng):
        for _ in range(300):
            assert metric_identity_residual(random_lorentzian_metric(rng)) < 1e-10


def test_unknown_coordinate_system():
    with pytest.raises(ValueError, match="unknown coordinate system"):
        coordinate_field("toroidal")


class TestConstantMetricField:
    def test_inverse_is_the_same_at_every_point(self):
        field = MetricField.constant(Metric4(OFFSET_METRIC))
        first = field.inverse_at([0.0, 0.0, 0.0])
        assert field.inverse_at([1.0, 2.0, 3.0]).tobytes() == first.tobytes()
        assert first.tobytes() == metric_inverse(Metric4(OFFSET_METRIC)).matrix.tobytes()

    def test_singular_metric_fails_only_when_inverted(self):
        field = MetricField.constant(Metric4(np.diag([1.0, -1e-5, -1e-5, -1e-5])))
        assert field.metric_at([0.0, 0.0, 0.0]).matrix[0, 0] == 1.0
        with pytest.raises(SingularMetric, match="below tolerance"):
            field.inverse_at([0.0, 0.0, 0.0])


class TestStackHelpers:
    """The geometrize cores the verify suite batches on 200 seeded draws equal
    200 calls of the scalar public functions, bit for bit."""

    @pytest.fixture
    def draws(self):
        rng = np.random.default_rng(41)
        g = [random_lorentzian_metric(rng) for _ in range(200)]
        e, b = rng.normal(size=(200, 3)), rng.normal(size=(200, 3))
        return g, np.array([x.matrix for x in g]), e, b

    def test_fourdim(self, draws):
        g, m, e, b = draws
        s = sqrt_minus(np.linalg.det(m))
        f = np.array([build_F_lower(e[i], b[i]).matrix for i in range(200)])
        expected = [
            fourdim_constitutive(g[i], MINKOWSKI, build_F_lower(e[i], b[i])).matrix
            for i in range(200)
        ]
        got = geometrize._fourdim(s / sqrt_minus_det(MINKOWSKI), _inverse(m), f)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_metric_identity(self, draws):
        g, m, _, _ = draws
        expected = [metric_identity_residual(x) for x in g]
        assert geometrize._metric_identity(m, _inverse(m)).tobytes() == np.array(expected).tobytes()

    def test_geometrized(self, draws):
        g, m, e, h = draws
        eps, w, _, _ = plebanski_stack(m, np.ones(200))
        d, b = geometrize._geometrized(eps, eps, w, e, h)
        pairs = [geometrized_constitutive(plebanski_cartesian(g[i]), e[i], h[i]) for i in range(200)]
        assert d.tobytes() == np.array([p[0] for p in pairs]).tobytes()
        assert b.tobytes() == np.array([p[1] for p in pairs]).tobytes()


# Every catalog medium and coordinate system, and constant index profiles at
# each index that fails: not positive, or too small for 1/n^2.
FIELDS = {
    **{entry.name: entry.metric_field() for entry in catalog()},
    **{system: coordinate_field(system) for system in ("cartesian", "spherical", "cylindrical")},
    **{
        f"index {n}": index_profile_field(lambda p, n=n: np.full(len(p), n))
        for n in (0.0, -1.0, math.nan, math.inf, 1e-160, 1e-200)
    },
}
EDGE_POINTS = [
    [1.0, 0.0, 0.0],     # r^2 = 1 exactly: the Luneburg rim
    [0.0, -1.0, 0.0],
    [0.0, 0.3, 0.0],     # spherical r = 0: a singular coordinate metric
    [1e200, 0.5, 0.0],   # r^2 overflows
    [0.0, 0.0, 0.0],
]


class TestStackedFace:
    """``metrics``/``inverses`` over a stack give the one-point views bit for
    bit, and each flag is the error the view raises."""

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_views_match_the_stack(self, name):
        field = FIELDS[name]
        points = np.concatenate([np.random.default_rng(3).uniform(-2.0, 2.0, (40, 3)), EDGE_POINTS])
        for stacked, view in (
            (field.metrics, lambda p: field.metric_at(p).matrix),
            (field.inverses, field.inverse_at),
        ):
            values, flags = stacked(points)
            assert values.shape == (len(points), 4, 4) and flags.shape == (len(points),)
            for p, value, flag in zip(points, values, flags):
                if flag == "ok":
                    assert view(p).tobytes() == value.tobytes()
                    continue
                assert np.isnan(value).all()
                with pytest.raises(type(flag)) as caught:
                    view(p)
                assert str(caught.value) == str(flag)

    def test_edge_points_raise_every_flag(self):
        names = set()
        for field in FIELDS.values():
            for stacked in (field.metrics, field.inverses):
                names |= {type(f).__name__ for f in stacked(EDGE_POINTS)[1] if f != "ok"}
        assert names == {"NonPositiveIndex", "NonFiniteMetric", "SingularMetric"}

    @pytest.mark.parametrize("failing", [(0, 3), (1,), (2,), (1, 2), (5, 2), (4, 3, 6), (6,)])
    def test_tracer_raises_the_first_flagged_stencil_point(self, failing):
        # Stencil points in evaluation order: p, +x, -x, +y, -y, +z, -z.
        x0 = np.array([0.0, 0.1, 0.2, 0.3])
        offsets = GRAD_DELTA * np.array(
            [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
        )

        def index(p):
            n = np.ones(len(p))
            for j in failing:
                n[(p == x0[1:] + offsets[j]).all(axis=1)] = -float(j)
            return n

        with pytest.raises(NonPositiveIndex) as caught:
            trace_ray(index_profile_field(index), x0, [1.0, -1.0, 0.0, 0.0], 1e-3, 1)
        assert str(caught.value) == f"refractive index must be positive, got {-float(min(failing))}"

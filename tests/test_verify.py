import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomopt import (
    MINKOWSKI,
    AsymmetricConnection,
    FieldGrid,
    GridTooSmall,
    IsotropicMedium,
    MediumVelocity,
    Metric4,
    UnnormalizedVelocity,
    bianchi_residual_grid,
    build_F_lower,
    build_G_upper,
    cyclic_covariant_sum,
    cyclic_partial_sum,
    divergence_residual,
    minkowski_moving_3d,
    minkowski_projection_residual,
    reconstruct_E_from_DH,
    reconstruct_H_from_EB,
)
from geomopt import (
    FieldTensor,
    TensorKind,
    Variance,
    alternating_tensor,
    apply_lambda,
    coordinate_field,
    dual_F,
    extract_DH,
    fourdim_constitutive,
    geometrized_constitutive,
    lambda_from_eps_mu,
    levi_civita3,
    lower_field_tensor,
    metric_identity_residual,
    metric_inverse,
    plebanski_cartesian,
    plebanski_curvilinear,
    sqrt_minus_det,
)
from geomopt import verify
from geomopt.sampling import (
    random_antisymmetric4,
    random_lorentzian_metric,
    random_spd3,
    random_symmetric_connection,
)
from geomopt.verify import (
    CheckResult,
    default_check_suite,
    format_check,
    sine_wave_potential,
    suite_ok,
    transverse_wave_inductions,
)


def random_partials(rng):
    df = rng.normal(size=(4, 4, 4))
    return 0.5 * (df - df.transpose(0, 2, 1))


class TestCyclicSums:
    def test_zero_partials(self):
        assert np.array_equal(cyclic_partial_sum(np.zeros((4, 4, 4))), np.zeros((4, 4, 4)))

    def test_potential_partials_cancel(self, rng):
        # dF built from second partials of a potential: d_a F_bc = S[a,b,c] - S[a,c,b]
        # with S symmetric in (a, b); the cyclic sum telescopes to zero exactly
        s = rng.normal(size=(4, 4, 4))
        s = 0.5 * (s + s.transpose(1, 0, 2))
        df = s - s.transpose(0, 2, 1)
        total = cyclic_partial_sum(df)
        assert np.abs(total).max() < 1e-13

    def test_zero_connection_reduces(self, rng):
        df = random_partials(rng)
        f = random_antisymmetric4(rng)
        covariant = cyclic_covariant_sum(df, f, np.zeros((4, 4, 4)))
        assert np.array_equal(covariant, cyclic_partial_sum(df))

    def test_christoffel_cancellation(self, rng):
        for _ in range(300):
            df = random_partials(rng)
            f = random_antisymmetric4(rng)
            gamma = random_symmetric_connection(rng)
            lhs = cyclic_covariant_sum(df, f, gamma)
            rhs = cyclic_partial_sum(df)
            scale = max(np.abs(gamma).max() * np.abs(f).max(), np.abs(df).max(), 1.0)
            assert np.abs(lhs - rhs).max() < 1e-12 * scale

    def test_asymmetric_connection_breaks_cancellation(self, rng):
        df = random_partials(rng)
        f = random_antisymmetric4(rng)
        gamma = rng.normal(size=(4, 4, 4))   # O(1) asymmetric perturbation
        lhs = cyclic_covariant_sum(df, f, gamma, validate=False)
        rhs = cyclic_partial_sum(df)
        assert np.abs(lhs - rhs).max() > 1e-6

    def test_antisymmetric_F_required_for_cancellation(self, rng):
        df = random_partials(rng)
        f = rng.normal(size=(4, 4))   # not antisymmetric
        gamma = random_symmetric_connection(rng)
        lhs = cyclic_covariant_sum(df, f, gamma)
        assert np.abs(lhs - cyclic_partial_sum(df)).max() > 1e-6

    def test_validation_raises(self, rng):
        df = random_partials(rng)
        f = random_antisymmetric4(rng)
        with pytest.raises(AsymmetricConnection):
            cyclic_covariant_sum(df, f, rng.normal(size=(4, 4, 4)))

    def test_accepts_field_tensor(self, rng):
        df = random_partials(rng)
        f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
        gamma = random_symmetric_connection(rng)
        a = cyclic_covariant_sum(df, f, gamma)
        b = cyclic_covariant_sum(df, f.matrix, gamma)
        assert np.array_equal(a, b)


class TestBianchiGrid:
    def test_constant_potential(self):
        def potential(points):
            out = np.zeros(points.shape)
            out[..., 1] = 3.5
            return out

        res = bianchi_residual_grid(potential, np.zeros(4), (5, 5, 5, 5), 0.05)
        assert res == 0.0

    def test_linear_potential(self):
        def potential(points):
            out = np.zeros(points.shape)
            out[..., 1] = 2.0 * points[..., 0] - points[..., 3]
            out[..., 2] = points[..., 1]
            return out

        res = bianchi_residual_grid(potential, np.zeros(4), (5, 5, 5, 5), 0.05)
        assert res < 1e-9

    def test_wave_potential_second_order(self):
        h = 0.02
        n = round(0.8 / h)
        coarse = bianchi_residual_grid(
            sine_wave_potential, np.zeros(4), (2 * n + 1, 3, 3, n + 1),
            (h / 2, h, h, h),
        )
        fine = bianchi_residual_grid(
            sine_wave_potential, np.zeros(4), (4 * n + 1, 3, 3, 2 * n + 1),
            (h / 4, h / 2, h / 2, h / 2),
        )
        assert coarse > 0.0
        ratio = coarse / fine
        assert 3.6 < ratio < 4.4

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            bianchi_residual_grid(sine_wave_potential, np.zeros(4), (2, 3, 3, 3), 0.01)


class TestDivergenceResidual:
    def test_zero_grid(self):
        grid = FieldGrid(np.zeros((3, 3, 3, 3, 4, 4)), (0.1, 0.1, 0.1, 0.1))
        assert divergence_residual(grid) == 0.0

    def test_constant_grid(self, rng):
        g = random_antisymmetric4(rng)
        values = np.broadcast_to(g, (4, 4, 3, 3, 4, 4)).copy()
        grid = FieldGrid(values, (0.1, 0.1, 0.1, 0.1))
        assert divergence_residual(grid) < 1e-14

    def test_plane_wave_second_order(self):
        h = 0.02
        n = round(0.8 / h)

        def residual(h_t, h_x, nt, nx):
            grid = FieldGrid.from_function(
                transverse_wave_inductions, np.zeros(4), (nt, nx, 3, 3),
                (h_t, h_x, h_x, h_x),
            )
            return divergence_residual(grid)

        coarse = residual(h / 2, h, 2 * n + 1, n + 1)
        fine = residual(h / 4, h / 2, 4 * n + 1, 2 * n + 1)
        assert coarse > 0.0
        ratio = coarse / fine
        assert 3.6 < ratio < 4.4

    def test_detects_non_solution(self):
        # a wave with the wrong dispersion is not a solution: the residual
        # stays O(1) instead of vanishing under refinement
        def broken_wave(points):
            phase = np.cos(points[..., 0] - 2.0 * points[..., 1])
            out = np.zeros(points.shape[:-1] + (4, 4))
            out[..., 0, 2] = -phase
            out[..., 2, 0] = phase
            out[..., 1, 2] = -phase
            out[..., 2, 1] = phase
            return out

        def residual(h):
            n = round(0.8 / h)
            grid = FieldGrid.from_function(
                broken_wave, np.zeros(4), (2 * n + 1, n + 1, 3, 3),
                (h / 2, h, h, h),
            )
            return divergence_residual(grid)

        coarse, fine = residual(0.02), residual(0.01)
        assert coarse > 0.5
        assert fine > 0.5   # does not converge to zero

    def test_density_weight_cancels_for_weighted_constant(self, rng):
        # G = C / sqrt(-gamma) with constant antisymmetric C: the weighted
        # divergence vanishes identically
        c = random_antisymmetric4(rng)
        shape = (4, 4, 3, 3)
        t = np.linspace(1.0, 2.0, shape[0])
        weight = np.empty(shape)
        weight[...] = (2.0 + np.sin(t))[:, None, None, None]
        values = c / weight[..., None, None]
        grid = FieldGrid(values, (0.1, 0.1, 0.1, 0.1))
        res = divergence_residual(grid, sqrt_minus_gamma=weight)
        assert res < 1e-13

    def test_current_term(self):
        # linear-in-t induction: d_0 G^{01} = 1 == (4 pi / c) j^1 for the
        # matching constant current
        shape = (5, 3, 3, 3)
        spacing = (0.1, 0.1, 0.1, 0.1)

        def fn(points):
            out = np.zeros(points.shape[:-1] + (4, 4))
            out[..., 0, 1] = points[..., 0]
            out[..., 1, 0] = -points[..., 0]
            return out

        grid = FieldGrid.from_function(fn, np.zeros(4), shape, spacing)
        current = np.zeros(shape + (4,))
        current[..., 1] = 1.0 / (4.0 * math.pi)
        assert divergence_residual(grid, current=current) < 1e-13
        assert divergence_residual(grid) > 0.9

    def test_static_time_axis(self):
        # a single time sample means a static field: the time derivative
        # drops and only the spatial divergence is measured
        shape = (1, 5, 5, 3)
        spacing = (1.0, 0.1, 0.1, 0.1)

        def fn(points):
            out = np.zeros(points.shape[:-1] + (4, 4))
            # H_3 = x gives d_1 G^{12} = -1 for beta = 2
            out[..., 1, 2] = -points[..., 1]
            out[..., 2, 1] = points[..., 1]
            return out

        grid = FieldGrid.from_function(fn, np.zeros(4), shape, spacing)
        current = np.zeros(shape + (4,))
        current[..., 2] = -1.0 / (4.0 * math.pi)
        assert divergence_residual(grid, current=current) < 1e-13
        assert divergence_residual(grid) > 0.9

    def test_too_small(self):
        grid = FieldGrid(np.zeros((3, 3, 3, 3, 4, 4)), (0.1, 0.1, 0.1, 0.1))
        small = FieldGrid(np.zeros((2, 3, 3, 3, 4, 4)), (0.1, 0.1, 0.1, 0.1))
        divergence_residual(grid)
        with pytest.raises(GridTooSmall):
            divergence_residual(small)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FieldGrid(np.zeros((3, 3, 3, 3, 4, 3)), (0.1, 0.1, 0.1, 0.1))
        with pytest.raises(ValueError):
            FieldGrid(np.zeros((3, 3, 3, 3, 4, 4)), (0.1, -0.1, 0.1, 0.1))


class TestMinkowskiProjection:
    def test_rest_frame(self, rng):
        eps, mu = 2.0, 3.0
        e, h = rng.normal(size=3), rng.normal(size=3)
        f = build_F_lower(e, mu * h)
        g_tensor = build_G_upper(eps * e, h)
        r1, r2 = minkowski_projection_residual(
            f, g_tensor, IsotropicMedium(eps, mu), [1.0, 0, 0, 0], MINKOWSKI
        )
        assert r1 < 1e-13
        assert r2 < 1e-13

    def test_vacuum_any_velocity(self, rng):
        for _ in range(20):
            e, b = rng.normal(size=3), rng.normal(size=3)
            f = build_F_lower(e, b)
            g_tensor = build_G_upper(e, b)
            u = rng.uniform(-0.5, 0.5, size=3)
            gamma = 1.0 / math.sqrt(1.0 - float(u @ u))
            u4 = np.concatenate(([gamma], gamma * u))
            r1, r2 = minkowski_projection_residual(
                f, g_tensor, IsotropicMedium(1.0, 1.0), u4, MINKOWSKI
            )
            assert r1 < 1e-12
            assert r2 < 1e-12

    def test_closed_form_residual_scales_quadratically(self):
        eps, mu = 2.0, 3.0
        medium = IsotropicMedium(eps, mu)
        e = np.array([0.3, -1.1, 0.4])
        h = np.array([0.9, 0.2, -0.5])

        def residual(speed):
            v = MediumVelocity([speed, 0.0, 0.0])
            d, b = minkowski_moving_3d(medium, v, e, h)
            f = build_F_lower(e, b)
            g_tensor = build_G_upper(d, h)
            gamma = 1.0 / math.sqrt(1.0 - speed**2)
            u4 = np.array([gamma, gamma * speed, 0.0, 0.0])
            r1, r2 = minkowski_projection_residual(f, g_tensor, medium, u4, MINKOWSKI)
            return max(r1, r2)

        r_big, r_small = residual(0.01), residual(0.005)
        assert r_big > 0.0
        assert 3.0 < r_big / r_small < 5.0

    def test_unnormalized_rejected(self):
        f = build_F_lower([1.0, 0, 0], [0, 0, 0])
        g_tensor = build_G_upper([1.0, 0, 0], [0, 0, 0])
        with pytest.raises(UnnormalizedVelocity):
            minkowski_projection_residual(
                f, g_tensor, IsotropicMedium(1.0, 1.0), [1.0, 0.5, 0, 0], MINKOWSKI
            )


class TestReconstructions:
    def test_diagonal_case(self):
        g = Metric4(np.diag([1.0, -4.0, -1.0, -1.0]))
        e = reconstruct_E_from_DH(g, [0.5, 0.0, 0.0], np.zeros(3))
        assert_allclose(e, [1.0, 0.0, 0.0], atol=1e-14)

    def test_flat_reduction(self, rng):
        e, b = rng.normal(size=3), rng.normal(size=3)
        assert_allclose(reconstruct_E_from_DH(MINKOWSKI, e, b * 0), e, atol=1e-15)
        assert_allclose(reconstruct_H_from_EB(MINKOWSKI, e, b), b, atol=1e-15)


class TestDefaultSuite:
    def test_all_checks_behave(self):
        results = default_check_suite(seed=4242)
        assert suite_ok(results)
        names = [r.name for r in results]
        assert "christoffel_asymmetry_control" in names
        control = results[names.index("christoffel_asymmetry_control")]
        assert control.expected_fail and not control.passed

    def test_deterministic_per_seed(self):
        a = default_check_suite(seed=99)
        b = default_check_suite(seed=99)
        assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]

    def test_passes_at_cgs_speed_of_light(self):
        assert suite_ok(default_check_suite(seed=5, c=29979245800.0))

    def test_format_marks_expected_fail(self):
        line = format_check(
            CheckResult("control", 1.0, 1e-12, passed=False, expected_fail=True)
        )
        assert line.endswith("FAIL EXPECTED-FAIL")
        assert "residual=1 " in line

    def test_unexpected_pass_of_control_fails_suite(self):
        good = CheckResult("x", 0.0, 1.0, passed=True)
        sneaky = CheckResult("control", 0.0, 1.0, passed=True, expected_fail=True)
        assert not suite_ok([good, sneaky])


# ---------------------------------------------------------------------------
# Per-draw reference loops for the batched checks.  These are the checks as
# they were written before batching: one draw at a time through the scalar
# public functions.  The batched checks must give the same residual bit for
# bit and leave the generator in the same state.


def ref_impedance_matching(rng, draws):
    worst = 0.0
    for _ in range(draws):
        g = random_lorentzian_metric(rng)
        eps = plebanski_cartesian(g).material.eps
        fields = [build_F_lower(np.zeros(3), b) for b in np.eye(3)]
        mu_inv = np.array([extract_DH(fourdim_constitutive(g, MINKOWSKI, f))[1] for f in fields]).T
        scale = max(float(np.abs(mu_inv).max()) * float(np.abs(eps).max()), 1.0)
        worst = max(worst, float(np.abs(mu_inv @ eps - np.eye(3)).max()) / scale)
    return worst


def ref_oracle_equivalence(rng, draws):
    worst = 0.0
    for _ in range(draws):
        g = random_lorentzian_metric(rng)
        e = rng.normal(size=3)
        b = rng.normal(size=3)
        f = build_F_lower(e, b)
        d, h = extract_DH(fourdim_constitutive(g, MINKOWSKI, f))
        scale = max(1.0, float(np.abs(e).max()), float(np.abs(h).max()))
        worst = max(
            worst,
            float(np.abs(reconstruct_E_from_DH(g, d, h) - e).max()) / scale,
            float(np.abs(reconstruct_H_from_EB(g, e, b) - h).max()) / scale,
        )
    return worst


def ref_cancellation_residual(rng, symmetric):
    f = random_antisymmetric4(rng)
    df = rng.normal(size=(4, 4, 4))
    df = 0.5 * (df - df.transpose(0, 2, 1))
    gamma = random_symmetric_connection(rng) if symmetric else rng.normal(size=(4, 4, 4))
    lhs = cyclic_covariant_sum(df, f, gamma, validate=False)
    rhs = cyclic_partial_sum(df)
    scale = max(
        float(np.abs(gamma).max()) * float(np.abs(f).max()),
        float(np.abs(df).max()),
        1.0,
    )
    return float(np.abs(lhs - rhs).max()) / scale


def ref_christoffel_cancellation(rng, draws):
    return max(ref_cancellation_residual(rng, symmetric=True) for _ in range(draws))


def ref_christoffel_control(rng, draws):
    return min(ref_cancellation_residual(rng, symmetric=False) for _ in range(draws))


def ref_metric_identity(rng, draws):
    return max(metric_identity_residual(random_lorentzian_metric(rng)) for _ in range(draws))


def ref_double_dual(rng, draws):
    worst = 0.0
    for _ in range(draws):
        g = random_lorentzian_metric(rng)
        f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
        once = lower_field_tensor(dual_F(f, g), g)
        twice = lower_field_tensor(dual_F(once, g), g)
        scale = max(float(np.abs(f.matrix).max()), 1.0)
        worst = max(worst, float(np.abs(twice.matrix + f.matrix).max()) / scale)
    return worst


def ref_alternating_contraction(rng, draws):
    worst = 0.0
    for _ in range(draws):
        g = random_lorentzian_metric(rng)
        up = alternating_tensor(g, Variance.CONTRAVARIANT)
        low = alternating_tensor(g, Variance.COVARIANT)
        worst = max(worst, abs(float(np.einsum("abcd,abcd->", up, low)) + 24.0) / 24.0)
    return worst


def ref_lambda_equivalence(rng, draws):
    sym3 = levi_civita3()
    worst = 0.0
    for i in range(draws):
        if i % 2:
            eps = np.diag(rng.uniform(0.5, 3.0, size=3))
            mu = np.diag(rng.uniform(0.5, 3.0, size=3))
        else:
            eps = random_spd3(rng)
            mu = random_spd3(rng)
        f = FieldTensor(random_antisymmetric4(rng), Variance.CONTRAVARIANT, TensorKind.F)
        got = apply_lambda(lambda_from_eps_mu(eps, mu), f).matrix
        mu_inv = np.linalg.inv(mu)
        top = eps @ f.matrix[0, 1:]
        spatial = 0.5 * np.einsum("ijk,lmn,lk,mn->ij", sym3, sym3, mu_inv, f.matrix[1:, 1:])
        expected = np.zeros((4, 4))
        expected[0, 1:] = top
        expected[1:, 0] = -top
        expected[1:, 1:] = spatial
        scale = max(float(np.abs(expected).max()), 1.0)
        worst = max(worst, float(np.abs(got - expected).max()) / scale)
    return worst


def ref_curvilinear_reduction(rng, draws):
    worst = 0.0
    for _ in range(draws):
        g = random_lorentzian_metric(rng)
        cart = plebanski_cartesian(g)
        curv = plebanski_curvilinear(g, MINKOWSKI)
        worst = max(
            worst,
            float(np.abs(cart.material.eps - curv.material.eps).max()),
            float(np.abs(cart.material.w - curv.material.w).max()),
        )
    return worst


def ref_spherical_identity(rng, draws):
    field = coordinate_field("spherical")
    worst = 0.0
    for _ in range(draws):
        point = np.array(
            [rng.uniform(0.5, 3.0), rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2.0 * math.pi)]
        )
        gamma = field.metric_at(point)
        res = plebanski_curvilinear(gamma, gamma)
        e = rng.normal(size=3)
        h = rng.normal(size=3)
        d, b = geometrized_constitutive(res, e, h)
        hinv = -metric_inverse(gamma).matrix[1:, 1:]
        worst = max(worst, float(np.abs(d - hinv @ e).max()), float(np.abs(b - hinv @ h).max()))
    return worst


# The batched checks in suite order, each with its reference and draw count;
# between them the suite makes no other draws.
BATCHED_CHECKS = [
    ("_check_impedance_matching", ref_impedance_matching, 1000),
    ("_check_oracle_equivalence", ref_oracle_equivalence, 1000),
    ("_check_christoffel_cancellation", ref_christoffel_cancellation, 1000),
    ("_check_christoffel_control", ref_christoffel_control, 50),
    ("_check_metric_identity", ref_metric_identity, 1000),
    ("_check_double_dual", ref_double_dual, 1000),
    ("_check_alternating_contraction", ref_alternating_contraction, 1000),
    ("_check_lambda_equivalence", ref_lambda_equivalence, 1000),
    ("_check_curvilinear_reduction", ref_curvilinear_reduction, 200),
    ("_check_spherical_identity", ref_spherical_identity, 100),
]


@pytest.mark.parametrize("seed", [1729, 7, 99, 4242])
def test_batched_checks_match_per_draw_reference(seed):
    ref_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    for attr, reference, draws in BATCHED_CHECKS:
        expected = reference(ref_rng, draws)
        got = getattr(verify, attr)(rng, draws)
        assert got.residual.hex() == expected.hex(), attr
        assert rng.bit_generator.state == ref_rng.bit_generator.state, attr


def test_impedance_matching_fails_when_eps_is_not_mu(monkeypatch):
    # eps scaled by 1 + 1e-9 is still symmetric, but no longer the inverse of mu^{-1}.
    stack = verify.plebanski_stack

    def scaled(g, sqrt_minus_gamma):
        eps, w, det, flags = stack(g, sqrt_minus_gamma)
        return eps * (1.0 + 1e-9), w, det, flags

    monkeypatch.setattr(verify, "plebanski_stack", scaled)
    result = verify._check_impedance_matching(np.random.default_rng(1729), 1000)
    assert not result.passed
    assert result.residual > 1e-10


class TestStackHelpers:
    """The verify cores give N calls of the scalar public function, bit for bit."""

    def test_reconstructions(self):
        rng = np.random.default_rng(11)
        g = [random_lorentzian_metric(rng) for _ in range(200)]
        v, w = rng.normal(size=(200, 3)), rng.normal(size=(200, 3))
        m = np.array([x.matrix for x in g])
        s = np.array([sqrt_minus_det(x) for x in g])
        e_from_dh = np.array([reconstruct_E_from_DH(g[i], v[i], w[i]) for i in range(200)])
        h_from_eb = np.array([reconstruct_H_from_EB(g[i], w[i], v[i]) for i in range(200)])
        assert verify._reconstruct(m, s, v, w, -1.0).tobytes() == e_from_dh.tobytes()
        assert verify._reconstruct(m, s, v, w, 1.0).tobytes() == h_from_eb.tobytes()

    def test_connection_terms(self):
        rng = np.random.default_rng(12)
        df = rng.normal(size=(200, 4, 4, 4))
        f = rng.normal(size=(200, 4, 4))
        gamma = rng.normal(size=(200, 4, 4, 4))
        expected = np.array(
            [cyclic_covariant_sum(df[i], f[i], gamma[i], validate=False) for i in range(200)]
        )
        got = cyclic_partial_sum(df) - verify._connection_terms(gamma, f)
        assert got.tobytes() == expected.tobytes()

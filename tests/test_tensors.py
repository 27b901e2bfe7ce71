import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from geomopt import (
    MINKOWSKI,
    FieldTensor,
    Metric4,
    NonLorentzian,
    SingularMetric,
    TensorKind,
    Variance,
    VarianceMismatch,
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
)
from geomopt.sampling import random_lorentzian_metric

finite3 = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=3
)


def F_matrix(e, b):
    """The covariant field-strength layout, written out in full."""
    e1, e2, e3 = e
    b1, b2, b3 = b
    return np.array(
        [
            [0.0, e1, e2, e3],
            [-e1, 0.0, -b3, b2],
            [-e2, b3, 0.0, -b1],
            [-e3, -b2, b1, 0.0],
        ]
    )


def G_matrix(d, h):
    d1, d2, d3 = d
    h1, h2, h3 = h
    return np.array(
        [
            [0.0, -d1, -d2, -d3],
            [d1, 0.0, -h3, h2],
            [d2, h3, 0.0, -h1],
            [d3, -h2, h1, 0.0],
        ]
    )


class TestMetricTypes:
    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            Metric4(m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Metric4(np.eye(3))

    def test_rejects_nonfinite(self):
        m = np.diag([1.0, -1.0, -1.0, np.nan])
        with pytest.raises(ValueError):
            Metric4(m)

    def test_matrix_is_readonly(self):
        g = Metric4(np.diag([1.0, -1.0, -1.0, -1.0]))
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 2.0

    def test_spatial_block(self):
        g = Metric4(np.diag([1.0, -4.0, -1.0, -1.0]))
        assert_allclose(g.spatial, np.diag([-4.0, -1.0, -1.0]))
        assert np.linalg.det(g.spatial) == pytest.approx(-4.0)


class TestMetricInverse:
    def test_minkowski_self_inverse(self):
        inv = metric_inverse(MINKOWSKI)
        assert np.array_equal(inv.matrix, MINKOWSKI.matrix)

    def test_diagonal(self):
        g = Metric4(np.diag([1.0, -4.0, -1.0, -1.0]))
        assert_allclose(metric_inverse(g).matrix, np.diag([1.0, -0.25, -1.0, -1.0]))

    def test_time_space_block(self):
        m = np.diag([1.0, -1.0, -1.0, -1.0])
        m[0, 1] = m[1, 0] = 0.5
        inv = metric_inverse(Metric4(m)).matrix
        oracle = np.linalg.solve(m, np.eye(4))
        assert_allclose(inv, oracle, atol=1e-14)
        assert inv[0, 0] == pytest.approx(0.8)
        assert inv[0, 1] == pytest.approx(0.4)
        assert inv[1, 1] == pytest.approx(-0.8)
        assert inv[2, 2] == pytest.approx(-1.0)
        assert inv[3, 3] == pytest.approx(-1.0)

    def test_product_identity(self, rng):
        for _ in range(300):
            g = random_lorentzian_metric(rng)
            product = g.matrix @ metric_inverse(g).matrix
            assert np.abs(product - np.eye(4)).max() < 1e-12

    def test_inverse_is_symmetric(self, rng):
        for _ in range(100):
            g = random_lorentzian_metric(rng)
            inv = metric_inverse(g).matrix
            assert np.array_equal(inv, inv.T)

    def test_singular_raises(self):
        g = Metric4(np.diag([1.0, 0.0, -1.0, -1.0]))
        with pytest.raises(SingularMetric):
            metric_inverse(g)


class TestFieldTensorLayouts:
    def test_F_single_component(self):
        f = build_F_lower([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        expected = np.zeros((4, 4))
        expected[0, 1] = 1.0
        expected[1, 0] = -1.0
        assert np.array_equal(f.matrix, expected)
        assert f.variance is Variance.COVARIANT
        assert f.kind is TensorKind.F

    def test_F_zero(self):
        f = build_F_lower(np.zeros(3), np.zeros(3))
        assert np.array_equal(f.matrix, np.zeros((4, 4)))

    def test_F_full_layout(self, rng):
        e, b = rng.normal(size=3), rng.normal(size=3)
        assert np.array_equal(build_F_lower(e, b).matrix, F_matrix(e, b))

    def test_G_single_component(self):
        g = build_G_upper([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        expected = np.zeros((4, 4))
        expected[0, 1] = -1.0
        expected[1, 0] = 1.0
        assert np.array_equal(g.matrix, expected)

    def test_G_full_layout(self, rng):
        d, h = rng.normal(size=3), rng.normal(size=3)
        assert np.array_equal(build_G_upper(d, h).matrix, G_matrix(d, h))

    @settings(max_examples=60, deadline=None)
    @given(e=finite3, b=finite3)
    def test_EB_round_trip_bit_exact(self, e, b):
        e_out, b_out = extract_EB(build_F_lower(e, b))
        assert np.array_equal(e_out, np.asarray(e, dtype=float))
        assert np.array_equal(b_out, np.asarray(b, dtype=float))

    @settings(max_examples=60, deadline=None)
    @given(d=finite3, h=finite3)
    def test_DH_round_trip_bit_exact(self, d, h):
        d_out, h_out = extract_DH(build_G_upper(d, h))
        assert np.array_equal(d_out, np.asarray(d, dtype=float))
        assert np.array_equal(h_out, np.asarray(h, dtype=float))

    def test_extract_tag_mismatch(self):
        f = build_F_lower([1.0, 0, 0], [0, 0, 0])
        g = build_G_upper([1.0, 0, 0], [0, 0, 0])
        with pytest.raises(VarianceMismatch):
            extract_EB(g)
        with pytest.raises(VarianceMismatch):
            extract_DH(f)

    def test_antisymmetry_validated(self):
        bad = np.ones((4, 4))
        with pytest.raises(ValueError, match="antisymmetric"):
            FieldTensor(bad, Variance.COVARIANT, TensorKind.F)


class TestRaiseLower:
    def test_flat_raise_matches_layout(self, rng):
        e, b = rng.normal(size=3), rng.normal(size=3)
        raised = raise_field_tensor(build_F_lower(e, b), MINKOWSKI).matrix
        expected = np.array(
            [
                [0.0, -e[0], -e[1], -e[2]],
                [e[0], 0.0, -b[2], b[1]],
                [e[1], b[2], 0.0, -b[0]],
                [e[2], -b[1], b[0], 0.0],
            ]
        )
        assert_allclose(raised, expected, atol=1e-15)

    def test_raise_then_lower_is_identity(self, rng):
        for _ in range(100):
            g = random_lorentzian_metric(rng)
            f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
            back = lower_field_tensor(raise_field_tensor(f, g), g)
            scale = np.abs(f.matrix).max()
            assert np.abs(back.matrix - f.matrix).max() < 1e-12 * max(scale, 1.0)

    def test_antisymmetry_preserved(self, rng):
        for _ in range(100):
            g = random_lorentzian_metric(rng)
            f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
            t = raise_field_tensor(f, g).matrix
            assert np.abs(t + t.T).max() <= 1e-12 * max(np.abs(t).max(), 1.0)

    def test_variance_enforced(self):
        f = build_F_lower([1.0, 0, 0], [0, 0, 0])
        with pytest.raises(VarianceMismatch):
            lower_field_tensor(f, MINKOWSKI)
        with pytest.raises(VarianceMismatch):
            raise_field_tensor(raise_field_tensor(f, MINKOWSKI), MINKOWSKI)


class TestAlternatingTensor:
    def test_levi_civita_symbols(self):
        sym3 = levi_civita3()
        assert sym3[0, 1, 2] == 1.0
        assert sym3[1, 0, 2] == -1.0
        sym4 = levi_civita4()
        assert sym4[0, 1, 2, 3] == 1.0
        assert sym4[1, 0, 2, 3] == -1.0
        assert sym4[0, 0, 2, 3] == 0.0

    def test_minkowski_values(self):
        lo = alternating_tensor(MINKOWSKI, Variance.COVARIANT)
        up = alternating_tensor(MINKOWSKI, Variance.CONTRAVARIANT)
        assert lo[0, 1, 2, 3] == 1.0
        assert up[0, 1, 2, 3] == -1.0

    def test_density_weight(self):
        g = Metric4(np.diag([1.0, -4.0, -1.0, -1.0]))
        assert alternating_tensor(g, Variance.COVARIANT)[0, 1, 2, 3] == pytest.approx(2.0)
        assert alternating_tensor(g, Variance.CONTRAVARIANT)[0, 1, 2, 3] == pytest.approx(-0.5)

    def test_repeated_index_is_zero(self, rng):
        g = random_lorentzian_metric(rng)
        tensor = alternating_tensor(g, Variance.COVARIANT)
        for idx in itertools.product(range(4), repeat=4):
            if len(set(idx)) < 4:
                assert tensor[idx] == 0.0

    def test_total_antisymmetry(self, rng):
        g = random_lorentzian_metric(rng)
        t = alternating_tensor(g, Variance.CONTRAVARIANT)
        assert_allclose(t, -np.swapaxes(t, 0, 1), atol=0)
        assert_allclose(t, -np.swapaxes(t, 2, 3), atol=0)

    def test_contraction_is_minus_24(self, rng):
        for _ in range(200):
            g = random_lorentzian_metric(rng)
            up = alternating_tensor(g, Variance.CONTRAVARIANT)
            lo = alternating_tensor(g, Variance.COVARIANT)
            total = float(np.einsum("abcd,abcd->", up, lo))
            assert abs(total + 24.0) < 1e-10 * 24.0

    def test_non_lorentzian_rejected(self):
        g = Metric4(np.diag([1.0, 1.0, -1.0, -1.0]))
        with pytest.raises(NonLorentzian):
            alternating_tensor(g, Variance.COVARIANT)


def dual_F_by_summation(f: np.ndarray, g: Metric4) -> np.ndarray:
    """Direct loop evaluation of the field-strength dual, kept independent of
    the library's einsum path."""
    sym = levi_civita4()
    s = np.sqrt(-np.linalg.det(g.matrix))
    out = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            acc = 0.0
            for c in range(4):
                for d in range(4):
                    acc += sym[a, b, c, d] * f[c, d]
            out[a, b] = acc / (2.0 * s)
    return out


class TestDuals:
    def test_dual_F_flat_layout(self):
        f = build_F_lower([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        sf = dual_F(f, MINKOWSKI)
        assert sf.matrix[0, 1] == pytest.approx(-1.0)
        assert sf.variance is Variance.CONTRAVARIANT
        assert sf.kind is TensorKind.F_DUAL
        # electric slots of the dual hold nothing for a pure-B input
        assert sf.matrix[1, 2] == 0.0
        assert sf.matrix[1, 3] == 0.0
        assert sf.matrix[2, 3] == 0.0

    def test_dual_F_zero(self):
        f = build_F_lower(np.zeros(3), np.zeros(3))
        assert np.array_equal(dual_F(f, MINKOWSKI).matrix, np.zeros((4, 4)))

    def test_dual_F_full_pattern(self, rng):
        e, b = rng.normal(size=3), rng.normal(size=3)
        g = random_lorentzian_metric(rng)
        s = np.sqrt(-np.linalg.det(g.matrix))
        sf = dual_F(build_F_lower(e, b), g).matrix
        # the dual swaps the roles: (E, B) -> (B, -E), scaled by 1/sqrt(-g)
        expected = np.array(
            [
                [0.0, -b[0], -b[1], -b[2]],
                [b[0], 0.0, e[2], -e[1]],
                [b[1], -e[2], 0.0, e[0]],
                [b[2], e[1], -e[0], 0.0],
            ]
        ) / s
        assert_allclose(sf, expected, atol=1e-14)

    def test_dual_F_matches_direct_summation(self, rng):
        for _ in range(25):
            g = random_lorentzian_metric(rng)
            f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
            assert_allclose(
                dual_F(f, g).matrix, dual_F_by_summation(f.matrix, g), atol=1e-13
            )

    def test_dual_G_flat_layout(self):
        g_tensor = build_G_upper([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        sg = dual_G(g_tensor, MINKOWSKI)
        assert sg.matrix[0, 1] == pytest.approx(1.0)
        assert sg.variance is Variance.COVARIANT
        assert sg.kind is TensorKind.G_DUAL

    def test_dual_G_zero(self):
        g_tensor = build_G_upper(np.zeros(3), np.zeros(3))
        assert np.array_equal(dual_G(g_tensor, MINKOWSKI).matrix, np.zeros((4, 4)))

    def test_dual_G_density_prefactor(self):
        g = Metric4(np.diag([1.0, -4.0, -1.0, -1.0]))
        g_tensor = build_G_upper([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert dual_G(g_tensor, g).matrix[0, 1] == pytest.approx(2.0)

    def test_dual_G_full_pattern(self, rng):
        d, h = rng.normal(size=3), rng.normal(size=3)
        g = random_lorentzian_metric(rng)
        s = np.sqrt(-np.linalg.det(g.matrix))
        sg = dual_G(build_G_upper(d, h), g).matrix
        expected = s * np.array(
            [
                [0.0, h[0], h[1], h[2]],
                [-h[0], 0.0, d[2], -d[1]],
                [-h[1], -d[2], 0.0, d[0]],
                [-h[2], d[1], -d[0], 0.0],
            ]
        )
        assert_allclose(sg, expected, atol=1e-13)

    def test_double_dual_is_minus_F(self, rng):
        for _ in range(200):
            g = random_lorentzian_metric(rng)
            f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
            once = lower_field_tensor(dual_F(f, g), g)
            twice = lower_field_tensor(dual_F(once, g), g)
            scale = max(np.abs(f.matrix).max(), 1.0)
            assert np.abs(twice.matrix + f.matrix).max() < 1e-10 * scale

    def test_dual_pair_inverts_with_sign(self, rng):
        # applying the induction dual to the field-strength dual gives -F
        # exactly, for any Lorentzian metric
        g = random_lorentzian_metric(rng)
        f = build_F_lower(rng.normal(size=3), rng.normal(size=3))
        sf = dual_F(f, g)
        as_induction = FieldTensor(sf.matrix, Variance.CONTRAVARIANT, TensorKind.G)
        back = dual_G(as_induction, g)
        assert_allclose(back.matrix, -f.matrix, atol=1e-14)

    def test_dual_requires_lorentzian(self):
        f = build_F_lower([1.0, 0, 0], [0, 0, 0])
        with pytest.raises(NonLorentzian):
            dual_F(f, Metric4(np.diag([1.0, 1.0, -1.0, -1.0])))

    def test_dual_tag_enforcement(self):
        f = build_F_lower([1.0, 0, 0], [0, 0, 0])
        g_tensor = build_G_upper([1.0, 0, 0], [0, 0, 0])
        with pytest.raises(VarianceMismatch):
            dual_F(raise_field_tensor(f, MINKOWSKI), MINKOWSKI)  # contravariant
        with pytest.raises(VarianceMismatch):
            dual_G(dual_G(g_tensor, MINKOWSKI), MINKOWSKI)  # covariant after one dual

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomopt import (
    MINKOWSKI,
    NonNullLaunch,
    NonPositiveIndex,
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


def fit_circle(xy):
    """Least-squares circle through the points; returns center, radius, max dev."""
    a = np.column_stack([2.0 * xy[:, 0], 2.0 * xy[:, 1], np.ones(len(xy))])
    (cx, cy, c), *_ = np.linalg.lstsq(a, (xy**2).sum(axis=1), rcond=None)
    r = math.sqrt(c + cx * cx + cy * cy)
    dev = np.abs(np.hypot(xy[:, 0] - cx, xy[:, 1] - cy) - r)
    return (cx, cy), r, float(dev.max())


class TestHamiltonian:
    def test_flat_null(self):
        assert hamiltonian(MINKOWSKI, [1.0, 1.0, 0.0, 0.0]) == pytest.approx(0.0)

    def test_flat_timelike(self):
        assert hamiltonian(MINKOWSKI, [1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.5)

    def test_index_two_dispersion(self):
        ginv = np.diag([1.0, -0.25, -1.0, -1.0])
        assert hamiltonian(ginv, [1.0, 2.0, 0.0, 0.0]) == pytest.approx(0.0)


class TestNullProjection:
    def test_scales_to_shell(self):
        field = homogeneous_medium(2.0).metric_field()
        k = project_to_null(field.inverse_at([0.0, 0.0, 0.0]), [1.0, -1.0, 0.0, 0.0])
        assert_allclose(k, [1.0, -2.0, 0.0, 0.0], atol=1e-14)

    def test_no_spatial_part(self):
        with pytest.raises(NonNullLaunch):
            project_to_null(MINKOWSKI.matrix, [1.0, 0.0, 0.0, 0.0])

    def test_launch_state_projects(self):
        field = homogeneous_medium(2.0).metric_field()
        state = launch_state(field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert_allclose(state.k, [1.0, -2.0, 0.0, 0.0], atol=1e-14)
        assert_allclose(state.x, [0.0, 0.0, 0.0, 0.0])

    def test_projection_lands_on_shell(self, rng):
        # whenever constant-time surfaces are spacelike (inverse spatial
        # block negative definite, g^00 > 0) the projection must succeed
        from geomopt import hamiltonian as ham
        from geomopt import metric_inverse
        from geomopt.sampling import random_lorentzian_metric

        tested = 0
        for _ in range(200):
            ginv = metric_inverse(random_lorentzian_metric(rng)).matrix
            if ginv[0, 0] <= 0.0 or np.linalg.eigvalsh(ginv[1:, 1:])[-1] >= 0.0:
                continue
            k = rng.normal(size=4)
            k[0] = rng.uniform(0.5, 2.0)
            projected = project_to_null(ginv, k)
            assert abs(ham(ginv, projected)) < 1e-12 * max(1.0, float(k @ k))
            assert projected[0] == k[0]
            tested += 1
        assert tested > 100


class TestTraceRay:
    def test_straight_line_exact(self):
        field = homogeneous_medium(1.0).metric_field()
        state = launch_state(field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(field, state.x, state.k, 1e-3, 2000)
        length = tr.x[-1, 1]
        assert np.abs(tr.x[:, 1] - tr.lam).max() < 1e-10 * max(length, 1.0)
        assert np.abs(tr.x[:, 2:]).max() == 0.0
        assert tr.max_null_drift == 0.0

    def test_index_two_speed(self):
        field = homogeneous_medium(2.0).metric_field()
        state = launch_state(field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(field, state.x, state.k, 1e-3, 2000)
        speed = (tr.x[-1, 1] - tr.x[0, 1]) / (tr.x[-1, 0] - tr.x[0, 0])
        assert speed == pytest.approx(0.5, abs=1e-12)

    def test_non_null_launch_rejected(self):
        field = homogeneous_medium(2.0).metric_field()
        with pytest.raises(NonNullLaunch):
            trace_ray(field, [0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], 1e-3, 10)

    def test_domain_exit_flagged(self):
        field = homogeneous_medium(1.0).metric_field()
        state = launch_state(field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(
            field, state.x, state.k, 1e-3, 5000,
            bounds=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        )
        assert tr.exited_domain
        assert len(tr) - 1 < 5000
        assert tr.x[-1, 1] > 1.0 - 1e-9

    def test_launch_outside_box_enters_then_exits(self):
        field = homogeneous_medium(1.0).metric_field()
        state = launch_state(field, [-1.5, 0.0, 0.0], [1.0, 0.0, 0.0])
        box = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        tr = trace_ray(field, state.x, state.k, 1e-2, 400, bounds=box)
        assert tr.exited_domain
        assert len(tr) > 2
        assert np.abs(tr.x[:, 1] - (-1.5 + tr.lam)).max() < 1e-12
        assert 1.0 < tr.x[-1, 1] < 1.0 + 1e-2 + 1e-12   # cut on the step that leaves
        assert np.all(tr.x[1:-1, 1] <= 1.0)

    def test_launch_outside_box_never_entering_runs_to_the_end(self):
        field = homogeneous_medium(1.0).metric_field()
        state = launch_state(field, [-1.5, 0.0, 0.0], [-1.0, 0.0, 0.0])
        box = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        tr = trace_ray(field, state.x, state.k, 1e-2, 50, bounds=box)
        assert not tr.exited_domain
        assert len(tr) == 51

    def test_frequency_conserved_bitwise(self):
        field = maxwell_fisheye().metric_field()
        state = launch_state(field, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0])
        tr = trace_ray(field, state.x, state.k, 1e-3, 1500)
        assert np.all(tr.k[:, 0] == tr.k[0, 0])

    def test_state_accessor(self):
        field = homogeneous_medium(1.0).metric_field()
        state = launch_state(field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(field, state.x, state.k, 1e-3, 5)
        s3 = tr.state(3)
        assert s3.lam == pytest.approx(3e-3)
        assert_allclose(s3.x, tr.x[3])

    def test_input_validation(self):
        field = homogeneous_medium(1.0).metric_field()
        with pytest.raises(ValueError):
            trace_ray(field, [0.0, 0, 0, 0], [1.0, -1, 0, 0], -1e-3, 10)
        with pytest.raises(ValueError):
            trace_ray(field, [0.0, 0, 0, 0], [1.0, -1, 0, 0], 1e-3, 0)


@pytest.fixture(scope="module")
def fisheye_orbit():
    """One fish-eye launch traced for 20000 steps of 1e-3: three full orbits."""
    field = maxwell_fisheye().metric_field()
    state = launch_state(field, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0])
    return trace_ray(field, state.x, state.k, 1e-3, 20000)


def first_steps(tr, n_steps):
    """The trajectory of the first ``n_steps`` steps: equal to tracing only that far."""
    n = n_steps + 1
    return dataclasses.replace(
        tr, lam=tr.lam[:n], x=tr.x[:n], k=tr.k[:n], hamiltonians=tr.hamiltonians[:n]
    )


class TestFisheye:
    def test_orbit_is_circle(self, fisheye_orbit):
        tr = first_steps(fisheye_orbit, 7000)
        center, radius, dev = fit_circle(tr.x[:, 1:3])
        assert dev < 1e-3
        assert center[0] == pytest.approx(-0.75, abs=1e-3)
        assert center[1] == pytest.approx(0.0, abs=1e-3)
        assert radius == pytest.approx(1.25, abs=1e-3)
        assert tr.max_null_drift < 1e-6

    def test_out_of_plane_launch(self):
        # the integrator is fully 3+1-dimensional; an inclined launch keeps
        # the orbit circular in its own plane through the origin
        field = maxwell_fisheye().metric_field()
        state = launch_state(field, [0.5, 0.0, 0.0], [0.0, 0.6, 0.8])
        tr = trace_ray(field, state.x, state.k, 1e-3, 3000)
        assert tr.max_null_drift < 1e-6
        assert np.abs(tr.x[:, 3]).max() > 0.1   # genuinely leaves the z=0 plane
        # distance from the orbit plane through the origin stays zero
        normal = np.cross([0.0, 0.6, 0.8], [1.0, 0.0, 0.0])
        normal = normal / np.linalg.norm(normal)
        assert np.abs(tr.x[:, 1:] @ normal).max() < 1e-9

    def test_orbit_closes(self, fisheye_orbit):
        tr = first_steps(fisheye_orbit, 7000)
        dist = np.hypot(tr.x[:, 1] - 0.5, tr.x[:, 2])
        far = int(np.argmax(dist))
        assert dist[far] > 1.0   # actually left the neighbourhood
        assert dist[far:].min() < 1e-2

    def test_drift_over_long_trace(self, fisheye_orbit):
        # three full orbits, affine length 20
        tr = fisheye_orbit
        assert tr.max_null_drift < 1e-6
        # still on the same circle after three periods
        _, radius, dev = fit_circle(tr.x[:, 1:3])
        assert radius == pytest.approx(1.25, abs=1e-3)
        assert dev < 1e-3


class TestLuneburg:
    def test_axis_ray_focuses(self):
        field = luneburg_lens().metric_field()
        state = launch_state(field, [-2.0, 0.4, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(field, state.x, state.k, 1e-3, 4200)
        miss = np.hypot(tr.x[:, 1] - 1.0, tr.x[:, 2]).min()
        assert miss < 1e-2
        assert tr.max_null_drift < 1e-6


FAN_BOX = ((-2.2, 1.4), (-1.6, 1.6), (-1.0, 1.0))


class TestRimCrossing:
    def test_sample_on_the_rim_keeps_null_drift(self):
        # Step 300 of this ray lands at r = 1 - 7e-14, where a central
        # difference straddles the kink of n(r).
        field = luneburg_lens().metric_field()
        state = launch_state(field, [-2.0, -0.6, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(field, state.x, state.k, 4e-3, 700, bounds=FAN_BOX)
        assert len(tr) == 701
        assert tr.max_null_drift < 1e-8

    def test_grazing_launch_keeps_null_drift(self):
        field = luneburg_lens().metric_field()
        state = launch_state(field, [-2.0, 0.99999, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(field, state.x, state.k, 4e-3, 1125, bounds=FAN_BOX)
        assert np.hypot(tr.x[:, 1], tr.x[:, 2]).min() < 1.0   # actually enters the lens
        assert tr.max_null_drift < 1e-9

    def test_crossing_step_cost_is_bounded(self):
        field = luneburg_lens().metric_field()
        points = []

        def counted(p):
            points.append(len(p))
            return field.evaluate(p)

        state = launch_state(field, [-1.002, 0.05, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(
            dataclasses.replace(field, evaluate=counted), state.x, state.k, 4e-3, 1
        )
        assert np.linalg.norm(tr.x[0, 1:]) > 1.0 > np.linalg.norm(tr.x[1, 1:])
        rk4_points = 4 * 7   # four stages, each the metric and a 6-point gradient
        assert sum(points) < 60 * rk4_points

    def test_step_ending_next_to_the_rim_keeps_its_side(self):
        # The step ends 1e-7 outside the rim, where n = 1 and k is constant,
        # but its end point's x stencil reaches inside.
        field = luneburg_lens().metric_field()
        y = 0.05
        x_end = -math.sqrt(1.0 - y * y) - 1e-7
        state = launch_state(field, [x_end - 4e-3, y, 0.0], [1.0, 0.0, 0.0])
        tr = trace_ray(field, state.x, state.k, 4e-3, 1)
        assert 0.0 < np.linalg.norm(tr.x[1, 1:]) - 1.0 < 1e-6
        assert np.array_equal(tr.k[1], tr.k[0])

    def test_smooth_media_declare_no_interface(self):
        assert maxwell_fisheye().metric_field().interface is None
        assert homogeneous_medium(1.5).metric_field().interface is None
        rim = luneburg_lens().metric_field().interface
        assert rim(np.array([0.0, 0.5, 0.0])) < 0.0 < rim(np.array([0.0, 1.5, 0.0]))


class TestCatalog:
    def test_contents(self):
        names = [entry.name for entry in catalog()]
        assert names == ["maxwell_fisheye", "luneburg", "homogeneous"]

    def test_luneburg_profile(self):
        lens = luneburg_lens()
        assert lens.index_at([0.0, 0.0, 0.0]) == pytest.approx(math.sqrt(2.0))
        assert lens.index_at([1.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert lens.index_at([0.0, 3.0, 0.0]) == 1.0
        # continuity at the rim
        inside = lens.index_at([1.0 - 1e-9, 0.0, 0.0])
        assert inside == pytest.approx(1.0, abs=1e-8)

    def test_far_points_overflow_without_warning(self):
        # |p|^2 overflows to inf past about 1e154: outside the lens, n = 1,
        # and the fish-eye index falls to 0.  RuntimeWarnings fail the suite.
        far = np.array([1e200, 0.0, 0.0])
        lens = luneburg_lens()
        assert lens.interface(far) == math.inf
        assert lens.index_at(far) == 1.0
        assert maxwell_fisheye().index_at(far) == 0.0

    def test_rim_is_p_dot_p_minus_one(self):
        rim = luneburg_lens().interface
        points = np.random.default_rng(5).normal(size=(1000, 3)) * 10.0 ** np.arange(-3, 3, 0.006)[:, None]
        assert [rim(p) for p in points] == [float(p @ p) - 1.0 for p in points]

    def test_fisheye_profile(self):
        fe = maxwell_fisheye()
        assert fe.index_at([0.0, 0.0, 0.0]) == pytest.approx(2.0)
        assert fe.index_at([1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_homogeneous_validation(self):
        assert homogeneous_medium(2.0).index_at([9.0, 9.0, 9.0]) == 2.0
        with pytest.raises(NonPositiveIndex):
            homogeneous_medium(0.0)

    def test_lookup_by_name(self):
        assert catalog_entry("fisheye").name == "maxwell_fisheye"
        assert catalog_entry("maxwell_fisheye").name == "maxwell_fisheye"
        assert catalog_entry("luneburg").name == "luneburg"
        assert catalog_entry("homogeneous", n=3.0).index_at([0, 0, 0]) == 3.0
        with pytest.raises(KeyError):
            catalog_entry("gradient")

import json
import math

import pytest

from geomopt.cli import GridSpec, RaySpec, SceneConfig, main
from geomopt.errors import ConfigError


def run(args):
    return main([str(a) for a in args])


def write_config(tmp_path, data, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


ETA = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
SINGULAR = [[1, 0, 0, 0], [0, -1e-5, 0, 0], [0, 0, -1e-5, 0], [0, 0, 0, -1e-5]]  # det -1e-15
ALONG_X = [{"direction": [1, 0, 0]}]


class TestConfigValidation:
    def test_grid_resolution_floor(self):
        with pytest.raises(ConfigError, match="resolution"):
            GridSpec(origin=(0, 0, 0), extents=(1, 1, 1), resolution=(0, 2, 2))

    def test_grid_extent_needed_when_sampled(self):
        with pytest.raises(ConfigError, match="extents"):
            GridSpec(origin=(0, 0, 0), extents=(0, 1, 1), resolution=(2, 2, 1))

    def test_collapsed_axis_allowed(self):
        grid = GridSpec(origin=(0, 0, 0), extents=(1, 1, 0), resolution=(2, 2, 1))
        pts = grid.points()
        assert len(pts) == 4
        assert all(p[2] == 0.0 for p in pts)

    def test_ray_spec_validation(self):
        with pytest.raises(ConfigError, match="step"):
            RaySpec(launches=(((0, 0, 0), (1, 0, 0)),), step=0.0)
        with pytest.raises(ConfigError, match="launches"):
            RaySpec.from_dict({"launches": []})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            SceneConfig.from_dict({"extra": 1}, "verify")

    def test_mode_required(self):
        with pytest.raises(ConfigError, match="mode"):
            SceneConfig.from_dict({}, None)

    def test_bad_coordinates(self):
        with pytest.raises(ConfigError, match="coordinates"):
            SceneConfig.from_dict({"coordinates": "polar"}, "verify")

    def test_json_error_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "verify",}', encoding="utf-8")
        assert run(["--config", bad]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_missing_metric_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "geometrize", "grid": {}})
        assert run(["--config", cfg]) == 2
        assert "metric" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 0, 0, "x"], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],  # non-numeric
            [[1, 0, 0, 0], [0, -1, 0], [0, 0, -1, 0], [0, 0, 0, -1]],  # ragged
            [[1, 0, 0], [0, -1, 0], [0, 0, -1]],  # 3x3
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, {}], [0, 0, 0, -1]],  # an object
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, None]],  # null reads NaN
            "eta",
        ],
    )
    def test_bad_metric_matrix_is_config_error(self, tmp_path, capsys, matrix):
        cfg = write_config(
            tmp_path,
            {
                "mode": "geometrize",
                "metric": {"matrix": matrix},
                "grid": {"resolution": [1, 1, 1]},
                "out_dir": str(tmp_path / "out"),
            },
        )
        assert run(["--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: metric.matrix: ")
        assert not (tmp_path / "out").exists()


class TestGeometrizeCommand:
    def test_flat_metric_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "geometrize",
                "metric": {"matrix": ETA},
                "grid": {"origin": [0, 0, 0], "extents": [1, 1, 0], "resolution": [2, 2, 1]},
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(out / "materials.csv")
        assert header[0:3] == ["x", "y", "z"]
        assert len(rows) == 4
        for row in rows:
            values = dict(zip(header, row))
            assert float(values["eps11"]) == 1.0
            assert float(values["eps12"]) == 0.0
            assert float(values["mu33"]) == 1.0
            assert float(values["w1"]) == 0.0
            assert values["flag"] == "ok"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["points"] == 4
        assert summary["eps_eigenvalue_min"] == pytest.approx(1.0)
        assert summary["max_anisotropy_ratio"] == pytest.approx(1.0)

    def test_explicit_diagonal_metric(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "geometrize",
                "metric": {"matrix": [[1, 0, 0, 0], [0, -4, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
                "grid": {"resolution": [1, 1, 1]},
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(out / "materials.csv")
        values = dict(zip(header, rows[0]))
        assert float(values["eps11"]) == 0.5
        assert float(values["eps22"]) == 2.0
        assert float(values["eps33"]) == 2.0

    def test_index_profile_sampling(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "geometrize",
                "metric": {"index": {"name": "fisheye"}},
                "grid": {"origin": [0, 0, 0], "extents": [1, 0, 0], "resolution": [2, 1, 1]},
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(out / "materials.csv")
        at0 = dict(zip(header, rows[0]))
        at1 = dict(zip(header, rows[1]))
        assert float(at0["eps11"]) == pytest.approx(2.0)
        assert float(at1["eps11"]) == pytest.approx(1.0)

    def test_non_lorentzian_rows_flagged_not_fatal(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "geometrize",
                "metric": {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
                "grid": {"resolution": [1, 1, 1]},
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(out / "materials.csv")
        assert rows[0][-1] == "NonLorentzian"
        assert rows[0][3] == "nan"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flagged"] == {"NonLorentzian": 1}
        assert summary["eps_eigenvalue_min"] is None

    def test_singular_metric_rows_flagged_not_fatal(self, tmp_path):
        out = tmp_path / "out"
        grid = '{"origin": [0, 0, 0], "extents": [200, 0, 0], "resolution": [5, 1, 1]}'
        assert run(["geometrize", "--metric", "fisheye", "--grid", grid, "--out-dir", out]) == 0
        header, rows = read_rows(out / "materials.csv")
        assert [row[-1] for row in rows] == ["ok"] + ["SingularMetric"] * 4
        assert all(value == "nan" for row in rows[1:] for value in row[3:-1])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flagged"] == {"SingularMetric": 4}
        assert summary["valid_points"] == 1

    def test_singular_constant_metric_rows_flagged(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "geometrize",
                "metric": {"matrix": SINGULAR},
                "grid": {"resolution": [2, 1, 1]},
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(out / "materials.csv")
        assert [row[-1] for row in rows] == ["SingularMetric"] * 2

    @pytest.mark.parametrize(
        "metric", [{"coordinate_vacuum": True}, {"index": {"name": "luneburg"}}]
    )
    def test_overflowing_coordinate_metric_rows_flagged(self, tmp_path, metric):
        # r = 1e200 squares to inf in the spherical coordinate metric.
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "geometrize",
                "coordinates": "spherical",
                "metric": metric,
                "grid": {
                    "origin": [0.5, 0.3, 0.0], "extents": [1e200, 1, 0], "resolution": [2, 2, 1]
                },
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(out / "materials.csv")
        assert [row[-1] for row in rows] == ["ok", "ok", "NonFiniteMetric", "NonFiniteMetric"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flagged"] == {"NonFiniteMetric": 2}

    def test_curvilinear_vacuum(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "geometrize",
                "coordinates": "spherical",
                "metric": {"coordinate_vacuum": True},
                "grid": {"origin": [2.0, math.pi / 2, 0.0], "extents": [1, 0, 0], "resolution": [1, 1, 1]},
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(out / "materials.csv")
        values = dict(zip(header, rows[0]))
        assert float(values["eps11"]) == pytest.approx(1.0)
        assert float(values["eps22"]) == pytest.approx(0.25)
        assert float(values["eps33"]) == pytest.approx(0.25)


class TestInverseCommand:
    def test_unit_index(self, tmp_path):
        out = tmp_path / "out"
        assert run([
            "inverse", "--medium", '{"name": "homogeneous", "n": 1.0}',
            "--grid", "2,2,1", "--out-dir", out,
        ]) == 0
        header, rows = read_rows(out / "metric.csv")
        for row in rows:
            values = dict(zip(header, row))
            assert float(values["g00"]) == 1.0
            assert float(values["g11"]) == -1.0
            assert float(values["g01"]) == 0.0

    def test_constant_index_two(self, tmp_path):
        out = tmp_path / "out"
        assert run([
            "inverse", "--medium", '{"name": "homogeneous", "n": 2.0}',
            "--grid", "1,1,1", "--out-dir", out,
        ]) == 0
        header, rows = read_rows(out / "metric.csv")
        values = dict(zip(header, rows[0]))
        assert float(values["g11"]) == -4.0
        assert float(values["g22"]) == -4.0

    def test_luneburg_center(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "inverse",
                "medium": {"name": "luneburg"},
                "grid": {"resolution": [1, 1, 1]},
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(out / "metric.csv")
        values = dict(zip(header, rows[0]))
        assert float(values["g11"]) == pytest.approx(-2.0)
        assert values["flag"] == "ok"


class TestTraceCommand:
    def trace_config(self, tmp_path, **overrides):
        data = {
            "mode": "trace",
            "medium": {"name": "homogeneous", "n": 1.0},
            "grid": {"origin": [-1, -1, 0], "extents": [2, 2, 0], "resolution": [2, 2, 1]},
            "rays": {
                "launches": [{"origin": [-0.9, 0, 0], "direction": [1, 0, 0]}],
                "step": 1e-3,
                "steps": 400,
            },
            "out_dir": str(tmp_path / "out"),
        }
        data.update(overrides)
        return write_config(tmp_path, data)

    def test_straight_ray_outputs(self, tmp_path):
        cfg = self.trace_config(tmp_path)
        assert run(["--config", cfg]) == 0
        out = tmp_path / "out"
        header, rows = read_rows(out / "ray_000.csv")
        assert header == ["lambda", "t", "x", "y", "z", "kt", "kx", "ky", "kz", "H"]
        assert len(rows) == 401
        last = dict(zip(header, rows[-1]))
        assert float(last["x"]) == pytest.approx(-0.5)
        assert float(last["y"]) == 0.0
        assert float(last["H"]) == 0.0
        svg = (out / "rays.svg").read_text()
        assert svg.count("<polyline") == 1
        assert 'viewBox="0 0 800 800"' in svg

    def test_luneburg_fan_svg(self, tmp_path):
        cfg = self.trace_config(
            tmp_path,
            medium={"name": "luneburg"},
            grid={"origin": [-2, -1.5, 0], "extents": [4, 3, 0], "resolution": [2, 2, 1]},
            rays={
                "launches": [
                    {"origin": [-1.5, y, 0], "direction": [1, 0, 0]}
                    for y in (-0.5, 0.0, 0.5)
                ],
                "step": 1e-3,
                "steps": 300,
            },
        )
        assert run(["--config", cfg]) == 0
        svg = (tmp_path / "out" / "rays.svg").read_text()
        assert svg.count("<polyline") == 3
        assert "<ellipse" in svg   # index iso-contours
        import xml.etree.ElementTree as ET

        root = ET.fromstring(svg)
        assert root.attrib["viewBox"] == "0 0 800 800"

    def test_domain_exit_is_clean(self, tmp_path, capsys):
        cfg = self.trace_config(
            tmp_path,
            rays={
                "launches": [{"origin": [-0.9, 0, 0], "direction": [1, 0, 0]}],
                "step": 1e-3,
                "steps": 5000,
            },
        )
        assert run(["--config", cfg]) == 0
        assert "exited domain" in capsys.readouterr().out

    def test_launch_outside_box_crosses_it(self, tmp_path, capsys):
        # Launched at x = -1.5, left of the box [-1, 1]^3: the ray enters the
        # box and is cut only on the step that takes it out past x = 1.
        cfg = self.trace_config(
            tmp_path,
            grid={"origin": [-1, -1, -1], "extents": [2, 2, 2], "resolution": [2, 2, 2]},
            rays={
                "launches": [{"origin": [-1.5, 0, 0], "direction": [1, 0, 0]}],
                "step": 1e-2,
                "steps": 400,
            },
        )
        assert run(["--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("ray 0: exited domain after ")
        header, rows = read_rows(tmp_path / "out" / "ray_000.csv")
        assert len(rows) > 2
        xs = [float(row[header.index("x")]) for row in rows]
        assert xs[0] == -1.5
        assert xs[-1] > 1.0 and all(x <= 1.0 for x in xs[:-1])

    def test_non_null_launch_reported(self, tmp_path, capsys):
        cfg = self.trace_config(
            tmp_path,
            medium={"name": "homogeneous", "n": 2.0},
            rays={
                "launches": [{"origin": [0, 0, 0], "direction": [1, 0, 0]}],
                "step": 1e-3,
                "steps": 50,
                "project_null": False,
            },
        )
        assert run(["--config", cfg]) == 1
        assert "NonNullLaunch" in capsys.readouterr().out

    def test_failing_rays_do_not_abort_the_fan(self, tmp_path, capsys):
        # Ray 1 runs out along a diameter of the fish-eye until n^2 underflows;
        # ray 2 starts where it already does.
        cfg = write_config(
            tmp_path,
            {
                "mode": "trace",
                "medium": {"name": "fisheye"},
                "rays": {
                    "launches": [
                        {"origin": [0.5, 0, 0], "direction": [0, 1, 0]},
                        {"origin": [0, 0, 0], "direction": [0, 0, 1]},
                        {"origin": [1e20, 0, 0], "direction": [1, 0, 0]},
                    ],
                    "step": 4e-3,
                    "steps": 1500,
                },
                "out_dir": str(tmp_path / "out"),
            },
        )
        assert run(["--config", cfg]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("ray 0: completed after 1500 steps")
        assert lines[1].startswith("ray 1: NonPositiveIndex: ")
        assert lines[2].startswith("ray 2: NonPositiveIndex: ")
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["ray_000.csv", "rays.svg"]
        assert (out / "rays.svg").read_text().count("<polyline") == 1

    @pytest.mark.parametrize("medium", ["homogeneous", "luneburg"])
    def test_overflowing_ray_fails(self, tmp_path, capsys, medium):
        # Steps of 1e308 carry the ray's position past the largest double.
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "mode": "trace",
                "medium": {"name": medium},
                "rays": {"launches": [{"origin": [0, 0, 0], "direction": [1, 1, 0]}]},
                "out_dir": str(out),
            },
        )
        assert run(["--config", cfg, "--step", "1e308", "--steps", "4"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("ray 0: NonFiniteRay: ray position or covector is not finite after step ")
        assert sorted(p.name for p in out.iterdir()) == ["rays.svg"]

    def test_drifting_ray_is_reported(self, tmp_path, capsys):
        # A fish-eye ray that runs out to large r, with a step too coarse for
        # the 1e-6 drift bound: max |H| reaches about 1.4e-5.
        cfg = write_config(
            tmp_path,
            {
                "mode": "trace",
                "medium": {"name": "fisheye"},
                "rays": {
                    "launches": [{"origin": [-1.5, 0.2, 0], "direction": [1, 0, 0]}],
                    "step": 1e-2,
                    "steps": 800,
                },
                "out_dir": str(tmp_path / "out"),
            },
        )
        assert run(["--config", cfg]) == 1
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("ray 0: completed after 800 steps, max |H| = ")
        assert line.endswith(", drifted above 1e-06")
        assert float(line.split("max |H| = ")[1].split(",")[0]) > 1e-6
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["ray_000.csv", "rays.svg"]

    def test_zero_direction_is_config_error(self, tmp_path, capsys):
        cfg = self.trace_config(
            tmp_path,
            rays={"launches": [{"origin": [0, 0, 0], "direction": [0, 0, 0]}]},
        )
        assert run(["--config", cfg]) == 2
        assert "config error: rays.launches[0].direction" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"rays": {"launches": ALONG_X, "step": "inf"}}, "rays.step"),
            ({"rays": {"launches": ALONG_X, "frequency": "nan"}}, "rays.frequency"),
            ({"rays": {"launches": ALONG_X, "steps": math.inf}}, "rays:"),
            ({"c": "inf"}, "c:"),
            ({"seed": math.inf}, "infinity"),
            ({"grid": {"origin": [0, "-inf", 0]}}, "grid:"),
            ({"grid": {"extents": [1, "nan", 1]}}, "grid:"),
            ({"grid": {"resolution": [2, math.inf, 1]}}, "resolution"),
            ({"rays": {"launches": [{"origin": [0, "nan", 0], **ALONG_X[0]}]}}, "rays.launches[0]"),
            ({"rays": {"launches": [{"direction": ["inf", 0, 0]}]}}, "rays.launches[0]"),
        ],
    )
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, overrides, where):
        cfg = self.trace_config(tmp_path, **overrides)
        assert run(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and where in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"rays": {"launches": ALONG_X, "project_null": "false"}}, "rays.project_null"),
            ({"rays": {"launches": ALONG_X, "project_null": 0}}, "rays.project_null"),
            ({"rays": {"launches": ALONG_X, "steps": 3.9}}, "rays:"),
            ({"rays": {"launches": ALONG_X, "steps": True}}, "rays:"),
            ({"grid": {"resolution": [2.9, 1, 1]}}, "resolution"),
            ({"grid": {"resolution": [2, False, 1]}}, "resolution"),
            ({"seed": 3.5}, "seed:"),
            ({"seed": True}, "seed:"),
        ],
    )
    def test_non_whole_or_non_boolean_input_is_config_error(
        self, tmp_path, capsys, overrides, where
    ):
        cfg = self.trace_config(tmp_path, **overrides)
        assert run(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and where in err
        assert not (tmp_path / "out").exists()

    def test_whole_float_counts_are_accepted(self, tmp_path):
        cfg = self.trace_config(
            tmp_path,
            seed=7.0,
            grid={"origin": [-1, -1, 0], "extents": [2, 2, 0], "resolution": [2.0, 2, 1]},
            rays={"launches": [{"origin": [-0.9, 0, 0], **ALONG_X[0]}], "steps": 3.0},
        )
        assert run(["--config", cfg]) == 0
        header, rows = read_rows(tmp_path / "out" / "ray_000.csv")
        assert len(rows) == 4

    @pytest.mark.parametrize(
        "medium, param",
        [
            ({"name": "luneburg", "radius": 3}, "radius"),
            ({"name": "homogeneous", "n": 1.5, "scale": 2}, "scale"),
        ],
    )
    def test_unknown_medium_parameter_is_config_error(self, tmp_path, capsys, medium, param):
        cfg = self.trace_config(tmp_path, medium=medium)
        assert run(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: medium: ") and param in err


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "residual=" in l]
        assert len(lines) >= 15
        assert all("threshold=" in l for l in lines)
        assert any(l.endswith("EXPECTED-FAIL") for l in lines)
        assert not any(
            " FAIL" in l for l in lines if not l.endswith("EXPECTED-FAIL")
        )

    def test_seed_reproducibility(self, capsys):
        assert run(["verify", "--seed", 7]) == 0
        first = capsys.readouterr().out
        assert run(["verify", "--seed", 7]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_speed_of_light_flag(self, capsys):
        assert run(["verify", "--c", 29979245800.0]) == 0
        assert "PASS" in capsys.readouterr().out


class TestDeterminism:
    def test_geometrize_byte_identical(self, tmp_path):
        base = {
            "mode": "geometrize",
            "metric": {"index": {"name": "luneburg"}},
            "grid": {"origin": [-1, -1, 0], "extents": [2, 2, 0], "resolution": [5, 5, 1]},
            "seed": 42,
        }
        cfg_a = write_config(tmp_path, {**base, "out_dir": str(tmp_path / "a")}, "a.json")
        cfg_b = write_config(tmp_path, {**base, "out_dir": str(tmp_path / "b")}, "b.json")
        assert run(["--config", cfg_a]) == 0
        assert run(["--config", cfg_b]) == 0
        a = (tmp_path / "a" / "materials.csv").read_bytes()
        b = (tmp_path / "b" / "materials.csv").read_bytes()
        assert a == b

    def test_trace_byte_identical(self, tmp_path):
        base = {
            "mode": "trace",
            "medium": {"name": "maxwell_fisheye"},
            "rays": {
                "launches": [{"origin": [0.5, 0, 0], "direction": [0, 1, 0]}],
                "step": 1e-3,
                "steps": 250,
            },
        }
        cfg_a = write_config(tmp_path, {**base, "out_dir": str(tmp_path / "a")}, "a.json")
        cfg_b = write_config(tmp_path, {**base, "out_dir": str(tmp_path / "b")}, "b.json")
        assert run(["--config", cfg_a]) == 0
        assert run(["--config", cfg_b]) == 0
        assert (tmp_path / "a" / "ray_000.csv").read_bytes() == (
            tmp_path / "b" / "ray_000.csv"
        ).read_bytes()


class TestParallelism:
    def test_sweep_reruns_byte_identical(self, tmp_path):
        base = {
            "mode": "geometrize",
            "metric": {"index": {"name": "luneburg"}},
            "grid": {"origin": [-1, -1, 0], "extents": [2, 2, 0], "resolution": [4, 4, 1]},
        }
        cfg_a = write_config(tmp_path, {**base, "out_dir": str(tmp_path / "a")}, "a.json")
        cfg_b = write_config(tmp_path, {**base, "out_dir": str(tmp_path / "b")}, "b.json")
        assert run(["--config", cfg_a]) == 0
        assert run(["--config", cfg_b]) == 0
        assert (tmp_path / "a" / "materials.csv").read_bytes() == (
            tmp_path / "b" / "materials.csv"
        ).read_bytes()

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "geomopt", "geometrize", "--metric", "fisheye",
             "--grid", "1,1,1", "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "materials.csv").exists()


class TestFlagOverrides:
    def test_positional_mode_wins(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "geometrize"})
        assert run(["verify", "--config", cfg]) == 0
        assert "residual=" in capsys.readouterr().out

    def test_metric_name_shortcut(self, tmp_path):
        out = tmp_path / "out"
        assert run([
            "geometrize", "--metric", "fisheye", "--grid",
            '{"origin": [0,0,0], "extents": [1,0,0], "resolution": [2,1,1]}',
            "--out-dir", out,
        ]) == 0
        header, rows = read_rows(out / "materials.csv")
        assert float(dict(zip(header, rows[0]))["eps11"]) == pytest.approx(2.0)

    def test_step_override(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "mode": "trace",
                "medium": {"name": "homogeneous", "n": 1.0},
                "rays": {
                    "launches": [{"origin": [0, 0, 0], "direction": [1, 0, 0]}],
                    "step": 1e-3,
                    "steps": 100,
                },
                "out_dir": str(tmp_path / "out"),
            },
        )
        assert run(["--config", cfg, "--steps", 7]) == 0
        header, rows = read_rows(tmp_path / "out" / "ray_000.csv")
        assert len(rows) == 8

    def test_full_precision_output(self, tmp_path):
        out = tmp_path / "out"
        assert run([
            "inverse", "--medium", '{"name": "homogeneous", "n": 1.4142135623730951}',
            "--grid", "1,1,1", "--out-dir", out,
        ]) == 0
        header, rows = read_rows(out / "metric.csv")
        g11 = dict(zip(header, rows[0]))["g11"]
        # full round-trip precision: parsing back reproduces the double
        assert float(g11) == -(1.4142135623730951**2)

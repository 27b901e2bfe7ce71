"""Every config-error path of the command line, pinned line for line.

Each case runs ``geomopt.cli.main`` on its flags and, where given, a config
file (a JSON object, or raw text).  A config error exits 2, prints exactly
one ``config error: <line>`` on stderr and nothing on stdout, and writes no
output directory.  ``{tmp}`` in flags and lines stands for the case's directory.
"""
import contextlib
import io
import json

import pytest

from geomopt.cli import main

ETA = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
GRID = {"resolution": [1, 1, 1]}
ALONG_X = [{"direction": [1, 0, 0]}]


def geometrize(**keys):
    return {"mode": "geometrize", "metric": {"matrix": ETA}, "grid": GRID, **keys}


def inverse(**keys):
    return {"mode": "inverse", "medium": {"name": "luneburg"}, "grid": GRID, **keys}


def trace(**rays):
    return {"mode": "trace", "medium": {"name": "luneburg"}, "rays": {"launches": ALONG_X, **rays}}


def launch(**keys):
    return {"mode": "trace", "medium": {"name": "luneburg"}, "rays": {"launches": [keys]}}


# (case id, flags, config, the line after "config error: ")
CASES = [
    # the config file and the top level
    ("config-unreadable", ["--config", "{tmp}/missing.json"], None,
     "config: cannot read {tmp}/missing.json: [Errno 2] No such file or directory: '{tmp}/missing.json'"),
    ("config-invalid-json", [], '{"mode": "verify",}',
     "config: invalid JSON at line 1 column 19: Expecting property name enclosed in double quotes"),
    ("config-not-object", [], "[1, 2]", "config: top level must be a JSON object"),
    ("unknown-key", [], {"mode": "verify", "extra": 1}, "extra: unknown config key"),
    ("mode-missing", [], {}, "mode: required (subcommand or config key)"),
    ("mode-unknown", [], {"mode": "draw"},
     "mode: must be one of geometrize, inverse, trace, verify, got 'draw'"),
    ("coordinates-unknown", ["verify"], {"coordinates": "polar"}, "coordinates: unknown system 'polar'"),
    ("seed-fraction", ["verify"], {"seed": 3.5}, "seed: expected a whole number, got 3.5"),
    ("seed-bool", ["verify"], {"seed": True}, "seed: expected a whole number, got True"),
    ("seed-inf", ["verify"], {"seed": float("inf")}, "seed: cannot convert float infinity to integer"),
    ("seed-text", ["verify"], {"seed": "x"}, "seed: invalid literal for int() with base 10: 'x'"),
    ("seed-null", ["verify"], {"seed": None},
     "seed: int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
    ("c-text", ["verify"], {"c": "x"}, "c: could not convert string to float: 'x'"),
    ("c-inf", ["verify"], {"c": "inf"}, "c: must be finite and > 0, got inf"),
    ("c-zero", ["verify"], {"c": 0}, "c: must be finite and > 0, got 0.0"),
    ("c-flag-negative", ["verify", "--c", "-2"], None, "c: must be finite and > 0, got -2.0"),
    ("metric-not-object", [], geometrize(metric=[1]), "metric: expected an object"),
    ("medium-not-object", [], inverse(medium="luneburg"), "medium: expected an object"),
    # grid
    ("grid-not-object", [], geometrize(grid=5), "grid: expected an object, got 5"),
    ("grid-origin-short", [], geometrize(grid={"origin": [0, 0]}), "origin: expected 3 values, got [0, 0]"),
    ("grid-origin-null", [], geometrize(grid={"origin": None}), "origin: required"),
    ("grid-origin-text", [], geometrize(grid={"origin": [0, "x", 0]}),
     "origin: could not convert string to float: 'x'"),
    ("grid-origin-inf", [], geometrize(grid={"origin": [0, "-inf", 0]}),
     "grid: origin and extents must be finite, got (0.0, -inf, 0.0), (1.0, 1.0, 1.0)"),
    ("grid-extents-nan", [], geometrize(grid={"extents": [1, "nan", 1]}),
     "grid: origin and extents must be finite, got (0.0, 0.0, 0.0), (1.0, nan, 1.0)"),
    ("grid-extents-zero", [], geometrize(grid={"extents": [0, 1, 1]}),
     "grid.extents[0]: must be > 0 for a sampled axis"),
    ("grid-resolution-zero", [], geometrize(grid={"resolution": [1, 0, 1]}),
     "grid.resolution[1]: must be >= 1, got 0"),
    ("grid-resolution-fraction", [], geometrize(grid={"resolution": [2.9, 1, 1]}),
     "resolution: expected a whole number, got 2.9"),
    ("grid-resolution-bool", [], geometrize(grid={"resolution": [2, False, 1]}),
     "resolution: expected a whole number, got False"),
    ("grid-resolution-inf", [], geometrize(grid={"resolution": [2, float("inf"), 1]}),
     "resolution: cannot convert float infinity to integer"),
    ("grid-resolution-scalar", [], geometrize(grid={"resolution": 4}), "resolution: expected 3 values, got 4"),
    ("grid-flag-text", ["inverse", "--medium", "luneburg", "--grid", "2,a,1"], None,
     "grid: invalid literal for int() with base 10: 'a'"),
    ("grid-flag-short", ["inverse", "--medium", "luneburg", "--grid", "2,2"], None,
     "resolution: expected 3 values, got [2, 2]"),
    ("grid-flag-json", ["inverse", "--medium", "luneburg", "--grid", "{bad"], None,
     "grid: invalid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
    ("grid-required-geometrize", [], {"mode": "geometrize", "metric": {"matrix": ETA}},
     "grid: required in geometrize mode"),
    ("grid-required-inverse", ["inverse", "--medium", "luneburg"], None, "grid: required in inverse mode"),
    ("grid-null", [], inverse(grid=None), "grid: required in inverse mode"),
    ("rays-null", [], trace() | {"rays": None}, "rays: required in trace mode"),
    # metric
    ("metric-required", ["geometrize", "--grid", "1,1,1"], None, "metric: required for this mode"),
    ("metric-none-of", [], geometrize(metric={}), "metric: give exactly one of matrix, index, coordinate_vacuum"),
    ("metric-two-of", [], geometrize(metric={"matrix": ETA, "coordinate_vacuum": True}),
     "metric: give exactly one of matrix, index, coordinate_vacuum"),
    ("metric-matrix-text", [], geometrize(metric={"matrix": "eta"}),
     "metric.matrix: could not convert string to float: 'eta'"),
    ("metric-matrix-entry-text", [], geometrize(metric={"matrix": [[1, 0, 0, "x"]] + ETA[1:]}),
     "metric.matrix: could not convert string to float: 'x'"),
    ("metric-matrix-entry-object", [], geometrize(metric={"matrix": ETA[:3] + [[0, 0, {}, -1]]}),
     "metric.matrix: float() argument must be a string or a real number, not 'dict'"),
    ("metric-matrix-ragged", [], geometrize(metric={"matrix": ETA[:3] + [[0, 0, -1]]}),
     "metric.matrix: setting an array element with a sequence. The requested array has an "
     "inhomogeneous shape after 1 dimensions. The detected shape was (4,) + inhomogeneous part."),
    ("metric-matrix-3x3", [], geometrize(metric={"matrix": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]}),
     "metric.matrix: metric must be 4x4, got shape (3, 3)"),
    ("metric-matrix-null", [], geometrize(metric={"matrix": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, None]]}),
     "metric.matrix: metric entries must be finite"),
    ("metric-matrix-asymmetric", [], geometrize(metric={"matrix": [[1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}),
     "metric.matrix: metric must be symmetric"),
    ("metric-index-unknown", [], geometrize(metric={"index": {"name": "prism"}}),
     "metric.index.name: unknown catalog medium 'prism'"),
    ("metric-index-empty", [], geometrize(metric={"index": {}}),
     "metric: give exactly one of matrix, index, coordinate_vacuum"),
    ("metric-index-nameless", [], geometrize(metric={"index": {"n": 2}}), "metric.index.name: required"),
    ("metric-flag-json", ["geometrize", "--grid", "1,1,1", "--metric", "{bad"], None,
     "metric: invalid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
    ("metric-flag-unknown", ["geometrize", "--grid", "1,1,1", "--metric", "prism"], None,
     "metric.index.name: unknown catalog medium 'prism'"),
    # medium
    ("medium-required-inverse", ["inverse", "--grid", "1,1,1"], None, "medium: required"),
    ("medium-nameless", [], inverse(medium={"n": 2}), "medium.name: required"),
    ("medium-unknown", [], inverse(medium={"name": "prism"}), "medium.name: unknown catalog medium 'prism'"),
    ("medium-parameter", [], inverse(medium={"name": "luneburg", "radius": 3}),
     "medium: luneburg takes no parameter radius"),
    ("medium-parameter-homogeneous", [], inverse(medium={"name": "homogeneous", "n": 1.5, "scale": 2}),
     "medium: homogeneous takes no parameter scale"),
    ("medium-negative-index", [], inverse(medium={"name": "homogeneous", "n": -1}),
     "medium: refractive index must be positive, got -1.0"),
    ("medium-text-index", [], inverse(medium={"name": "homogeneous", "n": "x"}),
     "medium: could not convert string to float: 'x'"),
    ("medium-flag-json", ["inverse", "--grid", "1,1,1", "--medium", "{bad"], None,
     "medium: invalid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
    ("medium-required-trace", [], {"mode": "trace", "rays": {"launches": ALONG_X}}, "medium: required"),
    # rays
    ("rays-required", ["trace", "--medium", "luneburg"], None, "rays: required in trace mode"),
    ("rays-not-object", [], trace() | {"rays": [1]}, "rays: expected an object, got [1]"),
    ("launches-missing", [], trace() | {"rays": {}}, "rays.launches: required list"),
    ("launches-empty", [], trace(launches=[]), "rays.launches: required list"),
    ("launches-flag-only", ["trace", "--medium", "luneburg", "--step", "0.1"], None,
     "rays.launches: required list"),
    ("launch-not-object", [], trace(launches=[[1, 0, 0]]),
     "rays.launches[0]: expected an object with origin and direction"),
    ("launch-direction-missing", [], launch(origin=[0, 0, 0]), "direction: required"),
    ("launch-direction-short", [], launch(direction=[1, 0]), "direction: expected 3 values, got [1, 0]"),
    ("launch-direction-text", [], launch(direction=[1, "x", 0]),
     "direction: could not convert string to float: 'x'"),
    ("launch-direction-zero", [], launch(direction=[0, 0, 0]), "rays.launches[0].direction: must be nonzero"),
    ("launch-direction-inf", [], launch(direction=["inf", 0, 0]),
     "rays.launches[0]: origin and direction must be finite"),
    ("launch-origin-nan", [], launch(origin=[0, "nan", 0], direction=[1, 0, 0]),
     "rays.launches[0]: origin and direction must be finite"),
    ("launch-origin-short", [], launch(origin=[0], direction=[1, 0, 0]), "origin: expected 3 values, got [0]"),
    ("step-text", [], trace(step="x"), "rays: could not convert string to float: 'x'"),
    ("step-inf", [], trace(step="inf"), "rays.step: must be finite and > 0, got inf"),
    ("step-zero", [], trace(step=0), "rays.step: must be finite and > 0, got 0.0"),
    ("step-flag-negative", ["--step", "-1"], trace(), "rays.step: must be finite and > 0, got -1.0"),
    ("steps-fraction", [], trace(steps=3.9), "rays: expected a whole number, got 3.9"),
    ("steps-bool", [], trace(steps=True), "rays: expected a whole number, got True"),
    ("steps-inf", [], trace(steps=float("inf")), "rays: cannot convert float infinity to integer"),
    ("steps-zero", [], trace(steps=0), "rays.steps: must be >= 1, got 0"),
    ("steps-flag-zero", ["--steps", "0"], trace(), "rays.steps: must be >= 1, got 0"),
    ("frequency-text", [], trace(frequency="x"), "rays: could not convert string to float: 'x'"),
    ("frequency-nan", [], trace(frequency="nan"), "rays.frequency: must be finite and > 0, got nan"),
    ("frequency-negative", [], trace(frequency=-1), "rays.frequency: must be finite and > 0, got -1.0"),
    ("frequency-zero", [], trace(frequency=0), "rays.frequency: must be finite and > 0, got 0.0"),
    ("project-null-text", [], trace(project_null="false"), "rays.project_null: unknown config key"),
    ("project-null-bool", [], trace(project_null=False), "rays.project_null: unknown config key"),
    # unknown keys are refused at every level
    ("grid-unknown-key", [], geometrize(grid={"resolutoin": [5, 5, 5]}), "grid.resolutoin: unknown config key"),
    ("grid-flag-unknown-key", ["inverse", "--medium", "luneburg", "--grid", '{"resolutoin": [5,5,5]}'], None,
     "grid.resolutoin: unknown config key"),
    ("rays-unknown-key", [], trace(step_count=10), "rays.step_count: unknown config key"),
    ("launch-unknown-key", [], launch(direction=[1, 0, 0], frequncy=2), "rays.launches[0].frequncy: unknown config key"),
    ("launch-unknown-key-second", [], trace(launches=ALONG_X + [{"direction": [0, 1, 0], "dir": 1}]),
     "rays.launches[1].dir: unknown config key"),
    ("metric-unknown-key", [], geometrize(metric={"matrix": ETA, "indx": {"name": "luneburg"}}),
     "metric.indx: unknown config key"),
    ("metric-flag-unknown-key", ["geometrize", "--grid", "1,1,1", "--metric",
                                 '{"matrix": [[1,0,0,0],[0,-1,0,0],[0,0,-1,0],[0,0,0,-1]], "indx": {"name": "luneburg"}}'],
     None, "metric.indx: unknown config key"),
    # inverse and trace read Cartesian points only
    ("coordinates-inverse", [], inverse(coordinates="spherical"),
     "coordinates: inverse mode takes only cartesian, got 'spherical'"),
    ("coordinates-trace", [], trace() | {"coordinates": "cylindrical"},
     "coordinates: trace mode takes only cartesian, got 'cylindrical'"),
    # a metric whose symmetrized entries overflow
    ("metric-flag-overflow", ["geometrize", "--grid", "1,1,1", "--metric",
                              '{"matrix": [[1,0,0,0],[0,-1e308,0,0],[0,0,-1,0],[0,0,0,-1]]}'], None,
     "metric.matrix: metric entries must be finite"),
    # values that were tracebacks: a non-string output directory, a flag into a non-object section
    ("out-dir-number", ["verify"], {"out_dir": 5}, "out_dir: expected str, bytes or os.PathLike object, not int"),
    ("rays-not-object-step-flag", ["--step", "0.1"], trace() | {"rays": 5}, "rays: expected an object, got 5"),
    ("grid-not-object-grid-flag", ["--grid", "2,2,1"], geometrize(grid=[2]), "grid: expected an object, got [2]"),
]


def run_case(flags, config, tmp):
    """Run one case in directory ``tmp``; return its exit code, stdout and stderr."""
    argv = [a.replace("{tmp}", str(tmp)) for a in flags]
    if config is not None:
        path = tmp / "scene.json"
        text = config if isinstance(config, str) else json.dumps(config)
        path.write_text(text, encoding="utf-8")
        argv += ["--config", str(path)]
    if not (isinstance(config, dict) and "out_dir" in config):
        argv += ["--out-dir", str(tmp / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("flags, config, line", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_config_error_line(flags, config, line, tmp_path):
    code, out, err = run_case(flags, config, tmp_path)
    assert (code, out, err) == (2, "", "config error: " + line.replace("{tmp}", str(tmp_path)) + "\n")
    assert not (tmp_path / "out").exists()

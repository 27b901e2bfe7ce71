"""Command-line front end: geometrize | inverse | trace | verify.

Scenes are described by a JSON config file; individual flags override file
keys.  All numeric file output is written with 17 significant digits so
reruns with identical config and seed are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, GeomOptError, NonPositiveIndex
from .geometrize import MetricField, coordinate_field, plebanski_stack
from .raytrace import NULL_DRIFT_MAX, MediumCatalogEntry, catalog_entry, launch_state, trace_ray
from .tensors import Metric4, sqrt_minus
from .verify import DEFAULT_SEED, default_check_suite, format_check, suite_ok

__all__ = [
    "GridSpec",
    "RaySpec",
    "SceneConfig",
    "cmd_geometrize",
    "cmd_inverse",
    "cmd_trace",
    "cmd_verify",
    "main",
]

MODES = ("geometrize", "inverse", "trace", "verify")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# Kept under this name: the benchmark times the ray fan as cli.sweep_s through it.
def parallel_map(fn, items):
    """Serial, order-preserving map of ``fn`` over one sweep's items."""
    return [fn(item) for item in items]


class Key(NamedTuple):
    """One config key: its path ("rays.launches[].origin" is each launch's
    origin), its reader (see ``_read``), its default and its flag.  A key left
    out is read as its default; the reader of a required key refuses None.  A
    flag's text is parsed as the default's type; a key with a ``shortcut``
    takes a JSON object, or text that ``shortcut`` turns into the (path, value)
    it sets."""

    path: str
    read: Callable
    default: object = None
    flag: str | None = None
    help: str | None = None
    shortcut: Callable | None = None
    label: str | None = None


def _read(data: dict, section: str, where: str) -> dict:
    """The value of each key directly under ``section`` ("" for the top level),
    read from ``data`` in table order.  A rule that fails raises ConfigError
    under the key's full path ``where + name``; a TypeError, ValueError or
    OverflowError of the reader is reported under the key's ``label``, else
    that path.  A key with no row is refused."""
    rows = {k.path.rpartition(".")[2]: k for k in KEYS if k.path.rpartition(".")[0] == section}
    for name in data:
        _require(name in rows, f"{where}{name}: unknown config key")
    values = {}
    for name, key in rows.items():
        try:
            values[name] = key.read(data.get(name, key.default), where + name)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key.label or where + name}: {exc}") from exc
    return values


class _Section:
    """A config object, made from the values of its keys under ``SECTION``:
    each is read through its row of KEYS, and a key with no row is refused."""

    SECTION = ""

    def __init__(self, **values) -> None:
        for name, value in _read(values, self.SECTION, self.SECTION and f"{self.SECTION}.").items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data):
        _require(isinstance(data, dict), f"{cls.SECTION}: expected an object, got {data!r}")
        return cls(**data)


def _whole(raw, where=None) -> int:
    """int(raw) for an integer config value; a bool or a fraction is refused."""
    if isinstance(raw, bool) or (isinstance(raw, float) and raw != int(raw)):
        raise ValueError(f"expected a whole number, got {raw!r}")
    return int(raw)


def _count(raw, where: str) -> int:
    n = _whole(raw)
    _require(n >= 1, f"{where}: must be >= 1, got {n}")
    return n


def _positive(raw, where: str) -> float:
    value = float(raw)
    _require(math.isfinite(value) and value > 0.0, f"{where}: must be finite and > 0, got {value}")
    return value


def _triple(raw, where: str, cast=float) -> tuple:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 3):
        raise ValueError("required" if raw is None else f"expected 3 values, got {raw!r}")
    return tuple(cast(v) for v in raw)


def _resolution(raw, where: str) -> tuple:
    counts = _triple(raw, where, _whole)
    return tuple(_count(n, f"{where}[{axis}]") for axis, n in enumerate(counts))


def _mode(raw, where: str) -> str:
    _require(raw is not None, f"{where}: required (subcommand or config key)")
    _require(raw in MODES, f"{where}: must be one of {', '.join(MODES)}, got {raw!r}")
    return raw


def _coordinates(raw, where: str) -> str:
    _require(raw in ("cartesian", "spherical", "cylindrical"), f"{where}: unknown system {raw!r}")
    return raw


def _object(raw, where: str) -> dict | None:
    _require(raw is None or isinstance(raw, dict), f"{where}: expected an object")
    return raw


METRIC_KINDS = ("matrix", "index", "coordinate_vacuum")  # the keys of a metric object


def _metric(raw, where: str) -> dict | None:
    for name in _object(raw, where) or ():
        _require(name in METRIC_KINDS, f"{where}.{name}: unknown config key")
    return raw


def _launches(raw, where: str) -> tuple:
    """(origin, direction) per launch object."""
    _require(isinstance(raw, list) and raw, f"{where}: required list")
    launches = []
    for i, item in enumerate(raw):
        at = f"{where}[{i}]"
        _require(isinstance(item, dict), f"{at}: expected an object with origin and direction")
        origin, direction = _read(item, "rays.launches[]", f"{at}.").values()
        _require(_finite(origin + direction), f"{at}: origin and direction must be finite")
        _require(any(direction), f"{at}.direction: must be nonzero")
        launches.append((origin, direction))
    return tuple(launches)


@dataclass(frozen=True, init=False)
class GridSpec(_Section):
    """Uniform spatial sampling box: origin, extents and points per axis."""

    SECTION = "grid"
    origin: tuple[float, float, float]
    extents: tuple[float, float, float]
    resolution: tuple[int, int, int]

    def __init__(self, **values) -> None:
        super().__init__(**values)
        _require(
            _finite(self.origin + self.extents),
            f"grid: origin and extents must be finite, got {self.origin}, {self.extents}",
        )
        for axis in range(3):
            if self.resolution[axis] >= 2:
                _require(
                    self.extents[axis] > 0.0,
                    f"grid.extents[{axis}]: must be > 0 for a sampled axis",
                )

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.resolution[axis]
        if n == 1:
            return np.array([self.origin[axis]])
        return self.origin[axis] + np.linspace(0.0, self.extents[axis], n)

    def points(self) -> np.ndarray:
        """(N, 3) sample positions, the last axis varying fastest."""
        axes = np.meshgrid(*(self.axis_coords(a) for a in range(3)), indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, 3)

    def bounds(self) -> list[tuple[float, float]]:
        out = []
        for axis in range(3):
            if self.resolution[axis] == 1:
                out.append((-math.inf, math.inf))
            else:
                lo = self.origin[axis]
                out.append((lo, lo + self.extents[axis]))
        return out


@dataclass(frozen=True, init=False)
class RaySpec(_Section):
    """Launch points and integrator settings for the trace mode."""

    SECTION = "rays"
    launches: tuple[tuple[tuple, tuple], ...]
    step: float
    steps: int
    frequency: float


@dataclass(frozen=True, init=False)
class SceneConfig(_Section):
    """A scene: its mode and every top-level key."""

    mode: str
    out_dir: Path
    seed: int
    c: float
    coordinates: str
    metric: dict | None
    medium: dict | None
    grid: GridSpec | None
    rays: RaySpec | None

    @classmethod
    def from_dict(cls, data: dict, mode: str | None = None) -> "SceneConfig":
        _require(isinstance(data, dict), "config: expected a JSON object")
        return cls(**(data | {"mode": mode} if mode else data))


# Every config key, read in this order within its object.
KEYS = (
    Key("mode", _mode),
    Key("coordinates", _coordinates, "cartesian"),
    Key("seed", _whole, DEFAULT_SEED, "--seed", "seed for the verify suite"),
    Key("c", _positive, 1.0, "--c", "speed of light"),
    Key(
        "grid", lambda raw, _: None if raw is None else GridSpec.from_dict(raw), None,
        "--grid", "grid as JSON or as nx,ny,nz",
        shortcut=lambda text: ("grid.resolution", [int(v) for v in text.split(",")]),
    ),
    Key("grid.origin", _triple, (0.0, 0.0, 0.0), label="origin"),
    Key("grid.extents", _triple, (1.0, 1.0, 1.0), label="extents"),
    Key("grid.resolution", _resolution, (2, 2, 1), label="resolution"),
    Key("rays", lambda raw, _: None if raw is None else RaySpec.from_dict(raw)),
    Key("rays.step", _positive, 1e-3, "--step", "ray integrator step", label="rays"),
    Key("rays.steps", _count, 1000, "--steps", "ray integrator step count", label="rays"),
    Key("rays.frequency", _positive, 1.0, label="rays"),
    Key("rays.launches", _launches),
    Key("rays.launches[].origin", _triple, (0.0, 0.0, 0.0), label="origin"),
    Key("rays.launches[].direction", _triple, label="direction"),
    Key(
        "metric", _metric, None, "--metric", "metric as JSON or a catalog index name",
        shortcut=lambda text: ("metric", {"index": {"name": text}}),
    ),
    Key(
        "medium", _object, None, "--medium", "medium as JSON or a catalog name",
        shortcut=lambda text: ("medium", {"name": text}),
    ),
    Key("out_dir", lambda raw, _: Path(raw), Path("out"), "--out-dir", "output directory"),
)


def _medium_entry(spec: dict | None, where: str) -> MediumCatalogEntry:
    _require(spec is not None, f"{where}: required")
    _require(isinstance(spec, dict) and "name" in spec, f"{where}.name: required")
    try:
        return catalog_entry(**spec)
    except KeyError as exc:
        raise ConfigError(f"{where}.name: {exc.args[0]}") from exc
    except (TypeError, ValueError, NonPositiveIndex) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _metric_field(cfg: SceneConfig, gamma_field: MetricField) -> MetricField:
    spec = cfg.metric
    _require(spec is not None, "metric: required for this mode")
    keys = [k for k in METRIC_KINDS if spec.get(k)]
    _require(
        len(keys) == 1,
        "metric: give exactly one of matrix, index, coordinate_vacuum",
    )
    if keys[0] == "matrix":
        try:
            g = Metric4(np.asarray(spec["matrix"], dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"metric.matrix: {exc}") from exc
        return MetricField.constant(g)
    if keys[0] == "index":
        entry = _medium_entry(spec["index"], "metric.index")
        return entry.metric_field()
    return gamma_field


GEOMETRIZE_HEADER = (
    ["x", "y", "z"]
    + [f"eps{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    + [f"mu{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    + ["w1", "w2", "w3", "flag"]
)

METRIC_HEADER = [
    "x", "y", "z",
    "g00", "g01", "g02", "g03", "g11", "g12", "g13", "g22", "g23", "g33",
    "flag",
]


def _write_csv(path: Path, header: list[str], columns: np.ndarray) -> None:
    """One line per row of ``columns`` at 17 significant digits; an object array ends in a flag."""
    fields = ["%.17g"] * columns.shape[1]
    if columns.dtype == object:
        fields[-1] = "%s"
    template = ",".join(fields)
    lines = [",".join(header)] + [template % tuple(row) for row in columns.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _named(flags: np.ndarray) -> np.ndarray:
    """The flag column: "ok", or the name of the error each point is flagged with."""
    return np.array([f if f == "ok" else type(f).__name__ for f in flags], dtype=object)


def cmd_geometrize(cfg: SceneConfig) -> int:
    """Sample the material map over the grid; write materials.csv + summary.json."""
    _require(cfg.grid is not None, "grid: required in geometrize mode")
    gamma_field = coordinate_field(cfg.coordinates)
    points = cfg.grid.points()
    g, flags = _metric_field(cfg, gamma_field).metrics(points)
    gamma, gamma_flags = gamma_field.metrics(points)
    flags = _named(np.where(flags == "ok", gamma_flags, flags))
    ok = flags == "ok"
    eps = np.full((len(points), 3, 3), math.nan)
    w = np.full((len(points), 3), math.nan)
    eps[ok], w[ok], _, flags[ok] = plebanski_stack(g[ok], sqrt_minus(np.linalg.det(gamma[ok])))

    valid = flags == "ok"
    negative = valid & (g[:, 0, 0] < 0.0)
    eig = np.linalg.eigvalsh(eps[valid])
    lo, hi = eig[:, 0], eig[:, -1]
    positive = lo > 0.0
    ratio = hi[positive] / lo[positive]
    flagged = Counter(flags[~valid])
    flags[negative] = "negative_g00"

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    columns = np.column_stack([points, eps.reshape(-1, 9), eps.reshape(-1, 9), w, flags])
    _write_csv(cfg.out_dir / "materials.csv", GEOMETRIZE_HEADER, columns)
    summary = {
        "points": len(points),
        "valid_points": len(eig),
        "flagged": flagged,
        "negative_g00_points": int(negative.sum()),
        "indefinite_eps_points": int((~positive).sum()),
        "eps_eigenvalue_min": float(lo.min()) if len(eig) else None,
        "eps_eigenvalue_max": float(hi.max()) if len(eig) else None,
        "max_anisotropy_ratio": float(np.max(ratio, initial=0.0)) if len(eig) else None,
    }
    (cfg.out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"geometrize: wrote {len(points)} points to {cfg.out_dir / 'materials.csv'}")
    return 0


def _cartesian(cfg: SceneConfig) -> None:
    """inverse and trace read Cartesian points only."""
    _require(
        cfg.coordinates == "cartesian",
        f"coordinates: {cfg.mode} mode takes only cartesian, got {cfg.coordinates!r}",
    )


def cmd_inverse(cfg: SceneConfig) -> int:
    """Lift an isotropic index profile to metric samples; write metric.csv."""
    _cartesian(cfg)
    _require(cfg.grid is not None, "grid: required in inverse mode")
    entry = _medium_entry(cfg.medium, "medium")
    points = cfg.grid.points()
    g, flags = entry.metric_field().metrics(points)
    rows, cols = np.triu_indices(4)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    columns = np.column_stack([points, g[:, rows, cols], _named(flags)])
    _write_csv(cfg.out_dir / "metric.csv", METRIC_HEADER, columns)
    print(f"inverse: wrote {len(points)} points to {cfg.out_dir / 'metric.csv'}")
    return 0


RAY_HEADER = ["lambda", "t", "x", "y", "z", "kt", "kx", "ky", "kz", "H"]
_STROKES = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def _iso_contour_radii(entry: MediumCatalogEntry, r_max: float) -> list[float]:
    rs = np.linspace(0.0, r_max, 513)
    ns = entry.index(np.outer(rs, [1.0, 0.0, 0.0]))
    lo, hi = float(ns.min()), float(ns.max())
    if hi - lo < 1e-12:
        return []
    radii = []
    for level in np.linspace(lo, hi, 7)[1:-1]:
        shifted = ns - level
        for i in range(len(rs) - 1):
            if shifted[i] == 0.0 or shifted[i] * shifted[i + 1] < 0.0:
                frac = shifted[i] / (shifted[i] - shifted[i + 1])
                radii.append(float(rs[i] + frac * (rs[i + 1] - rs[i])))
                break
    return sorted(set(radii))


def _write_svg(path: Path, trajectories, entry, grid: GridSpec | None) -> None:
    if grid is not None and grid.extents[0] > 0 and grid.extents[1] > 0:
        x0, y0 = grid.origin[0], grid.origin[1]
        wx, wy = grid.extents[0], grid.extents[1]
    else:
        xs = np.concatenate([t.x[:, 1] for t in trajectories]) if trajectories else np.zeros(1)
        ys = np.concatenate([t.x[:, 2] for t in trajectories]) if trajectories else np.zeros(1)
        x0, y0 = float(xs.min()) - 0.1, float(ys.min()) - 0.1
        wx = max(float(xs.max()) - x0 + 0.1, 1e-9)
        wy = max(float(ys.max()) - y0 + 0.1, 1e-9)

    def view(x, y):  # floats or arrays
        return (x - x0) / wx * 800.0, 800.0 - (y - y0) / wy * 800.0

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">',
        '<rect width="800" height="800" fill="white"/>',
    ]
    if entry is not None:
        r_max = math.hypot(max(abs(x0), abs(x0 + wx)), max(abs(y0), abs(y0 + wy)))
        cx, cy = view(0.0, 0.0)
        for r in _iso_contour_radii(entry, r_max):
            rx = r / wx * 800.0
            ry = r / wy * 800.0
            parts.append(
                f'<ellipse cx="{cx:.17g}" cy="{cy:.17g}" rx="{rx:.17g}" '
                f'ry="{ry:.17g}" fill="none" stroke="#c8c8c8" stroke-width="1"/>'
            )
    for i, tr in enumerate(trajectories):
        px, py = view(tr.x[:, 1], tr.x[:, 2])
        pts = " ".join(f"{a:.17g},{b:.17g}" for a, b in zip(px.tolist(), py.tolist()))
        stroke = _STROKES[i % len(_STROKES)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="1"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def cmd_trace(cfg: SceneConfig) -> int:
    """Trace the configured rays; one CSV per ray plus a combined SVG.  Exits 1
    when a ray fails (no CSV) or its max |H| passes NULL_DRIFT_MAX (CSV kept)."""
    _cartesian(cfg)
    _require(cfg.rays is not None, "rays: required in trace mode")
    entry = _medium_entry(cfg.medium, "medium")
    field = entry.metric_field()
    bounds = cfg.grid.bounds() if cfg.grid is not None else None

    def one(launch):
        try:
            state = launch_state(field, *launch, frequency=cfg.rays.frequency)
            return trace_ray(
                field, state.x, state.k, cfg.rays.step, cfg.rays.steps, bounds=bounds
            )
        except GeomOptError as exc:
            return exc

    outcomes = parallel_map(one, cfg.rays.launches)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    trajectories = []
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, GeomOptError):
            failures += 1
            print(f"ray {i}: {type(outcome).__name__}: {outcome}")
            continue
        trajectories.append(outcome)
        status = "exited domain" if outcome.exited_domain else "completed"
        drifted = outcome.max_null_drift > NULL_DRIFT_MAX
        failures += drifted
        print(
            f"ray {i}: {status} after {len(outcome) - 1} steps, "
            f"max |H| = {outcome.max_null_drift:.17g}"
            + (f", drifted above {NULL_DRIFT_MAX:g}" if drifted else "")
        )
        columns = np.column_stack([outcome.lam, outcome.x, outcome.k, outcome.hamiltonians])
        _write_csv(cfg.out_dir / f"ray_{i:03d}.csv", RAY_HEADER, columns)

    _write_svg(cfg.out_dir / "rays.svg", trajectories, entry, cfg.grid)
    print(f"trace: wrote {len(trajectories)} rays to {cfg.out_dir}")
    return 1 if failures else 0


def cmd_verify(cfg: SceneConfig) -> int:
    """Run the seeded invariant suite and print one line per check."""
    results = default_check_suite(seed=cfg.seed, c=cfg.c)
    for r in results:
        print(format_check(r))
    ok = suite_ok(results)
    print(f"verify: {'all checks behaved as expected' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="geomopt",
        description="Effective-geometry toolkit: material maps, index lifts, "
        "ray traces and the invariant verification suite.",
    )
    p.add_argument("mode", nargs="?", choices=MODES, help="command to run")
    p.add_argument("--config", type=Path, help="JSON scene configuration")
    for key in KEYS:
        if key.flag is not None:
            kind = str if key.shortcut else type(key.default)
            p.add_argument(key.flag, dest=key.path, type=kind, help=key.help)
    return p


def _flag_value(key: Key, text: str) -> tuple[str, object]:
    """The (path, value) that a shortcut key's flag text sets."""
    text = text.strip()
    try:
        return (key.path, json.loads(text)) if text.startswith("{") else key.shortcut(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{key.path}: invalid JSON ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{key.path}: {exc}") from exc


def load_config(args: argparse.Namespace) -> SceneConfig:
    data: dict = {}
    if args.config is not None:
        try:
            data = json.loads(args.config.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            message = f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            raise ConfigError(f"config: {message}") from exc
        _require(isinstance(data, dict), "config: top level must be a JSON object")

    for key in KEYS:
        if key.flag is None or (value := getattr(args, key.path)) is None:
            continue
        path, value = _flag_value(key, value) if key.shortcut else (key.path, value)
        section, _, name = path.rpartition(".")
        if section:
            inner = data.get(section)
            if inner is not None and not isinstance(inner, dict):
                continue  # the section's reader refuses it
            value = {**(inner or {}), name: value}
        data[section or name] = value
    return SceneConfig.from_dict(data, args.mode)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "geometrize": cmd_geometrize,
        "inverse": cmd_inverse,
        "trace": cmd_trace,
        "verify": cmd_verify,
    }
    try:
        cfg = load_config(args)
        return commands[cfg.mode](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeomOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

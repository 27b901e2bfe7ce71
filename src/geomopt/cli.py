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
from dataclasses import dataclass
from pathlib import Path

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


def _whole(raw) -> int:
    """int(raw) for an integer config value; a bool or a fraction is refused."""
    if isinstance(raw, bool) or (isinstance(raw, float) and raw != int(raw)):
        raise ValueError(f"expected a whole number, got {raw!r}")
    return int(raw)


def _triple(data, key: str, default=None, *, cast=float):
    raw = data.get(key, default)
    _require(raw is not None, f"{key}: required")
    _require(
        isinstance(raw, (list, tuple)) and len(raw) == 3,
        f"{key}: expected 3 values, got {raw!r}",
    )
    try:
        return tuple(cast(v) for v in raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial sampling box: origin, extents and points per axis."""

    origin: tuple[float, float, float]
    extents: tuple[float, float, float]
    resolution: tuple[int, int, int]

    def __post_init__(self) -> None:
        _require(
            _finite(self.origin + self.extents),
            f"grid: origin and extents must be finite, got {self.origin}, {self.extents}",
        )
        for axis in range(3):
            n = self.resolution[axis]
            _require(n >= 1, f"grid.resolution[{axis}]: must be >= 1, got {n}")
            if n >= 2:
                _require(
                    self.extents[axis] > 0.0,
                    f"grid.extents[{axis}]: must be > 0 for a sampled axis",
                )

    @classmethod
    def from_dict(cls, data) -> "GridSpec":
        _require(isinstance(data, dict), f"grid: expected an object, got {data!r}")
        return cls(
            origin=_triple(data, "origin", default=[0.0, 0.0, 0.0]),
            extents=_triple(data, "extents", default=[1.0, 1.0, 1.0]),
            resolution=_triple(data, "resolution", default=[2, 2, 1], cast=_whole),
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


@dataclass(frozen=True)
class RaySpec:
    """Launch points and integrator settings for the trace mode."""

    launches: tuple[tuple[tuple, tuple], ...]
    step: float = 1e-3
    steps: int = 1000
    frequency: float = 1.0
    project_null: bool = True

    def __post_init__(self) -> None:
        _require(
            math.isfinite(self.step) and self.step > 0.0,
            f"rays.step: must be finite and > 0, got {self.step}",
        )
        _require(self.steps >= 1, f"rays.steps: must be >= 1, got {self.steps}")
        _require(
            math.isfinite(self.frequency),
            f"rays.frequency: must be finite, got {self.frequency}",
        )
        _require(len(self.launches) >= 1, "rays.launches: need at least one launch")
        for i, (origin, direction) in enumerate(self.launches):
            _require(
                _finite(origin + direction),
                f"rays.launches[{i}]: origin and direction must be finite",
            )
            _require(any(direction), f"rays.launches[{i}].direction: must be nonzero")

    @classmethod
    def from_dict(cls, data) -> "RaySpec":
        _require(isinstance(data, dict), f"rays: expected an object, got {data!r}")
        raw = data.get("launches")
        _require(isinstance(raw, list) and raw, "rays.launches: required list")
        launches = []
        for i, item in enumerate(raw):
            _require(
                isinstance(item, dict),
                f"rays.launches[{i}]: expected an object with origin and direction",
            )
            launches.append(
                (
                    _triple(item, "origin", default=[0.0, 0.0, 0.0]),
                    _triple(item, "direction"),
                )
            )
        try:
            step = float(data.get("step", 1e-3))
            steps = _whole(data.get("steps", 1000))
            frequency = float(data.get("frequency", 1.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"rays: {exc}") from exc
        project_null = data.get("project_null", True)
        _require(isinstance(project_null, bool), "rays.project_null: expected true or false")
        return cls(
            launches=tuple(launches),
            step=step,
            steps=steps,
            frequency=frequency,
            project_null=project_null,
        )


@dataclass(frozen=True)
class SceneConfig:
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
    def from_dict(cls, data: dict, mode: str | None) -> "SceneConfig":
        _require(isinstance(data, dict), "config: expected a JSON object")
        known = {
            "mode", "out_dir", "seed", "c", "coordinates",
            "metric", "medium", "grid", "rays",
        }
        for key in data:
            _require(key in known, f"{key}: unknown config key")
        mode = mode or data.get("mode")
        _require(mode is not None, "mode: required (subcommand or config key)")
        _require(mode in MODES, f"mode: must be one of {', '.join(MODES)}, got {mode!r}")
        coordinates = data.get("coordinates", "cartesian")
        _require(
            coordinates in ("cartesian", "spherical", "cylindrical"),
            f"coordinates: unknown system {coordinates!r}",
        )
        try:
            seed = _whole(data.get("seed", DEFAULT_SEED))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"seed: {exc}") from exc
        try:
            c = float(data.get("c", 1.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"c: {exc}") from exc
        _require(math.isfinite(c) and c > 0.0, f"c: must be finite and > 0, got {c}")
        grid = GridSpec.from_dict(data["grid"]) if "grid" in data else None
        rays = RaySpec.from_dict(data["rays"]) if "rays" in data else None
        metric = data.get("metric")
        medium = data.get("medium")
        if metric is not None:
            _require(isinstance(metric, dict), "metric: expected an object")
        if medium is not None:
            _require(isinstance(medium, dict), "medium: expected an object")
        return cls(
            mode=mode,
            out_dir=Path(data.get("out_dir", "out")),
            seed=seed,
            c=c,
            coordinates=coordinates,
            metric=metric,
            medium=medium,
            grid=grid,
            rays=rays,
        )


def _medium_entry(spec: dict | None, where: str) -> MediumCatalogEntry:
    _require(spec is not None, f"{where}: required")
    _require(isinstance(spec, dict) and "name" in spec, f"{where}.name: required")
    params = {k: v for k, v in spec.items() if k != "name"}
    try:
        return catalog_entry(spec["name"], **params)
    except KeyError as exc:
        raise ConfigError(f"{where}.name: {exc.args[0]}") from exc
    except (TypeError, ValueError, NonPositiveIndex) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _metric_field(cfg: SceneConfig, gamma_field: MetricField) -> MetricField:
    spec = cfg.metric
    _require(spec is not None, "metric: required for this mode")
    keys = [k for k in ("matrix", "index", "coordinate_vacuum") if spec.get(k)]
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


def cmd_inverse(cfg: SceneConfig) -> int:
    """Lift an isotropic index profile to metric samples; write metric.csv."""
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
    _require(cfg.rays is not None, "rays: required in trace mode")
    entry = _medium_entry(cfg.medium, "medium")
    field = entry.metric_field()
    bounds = cfg.grid.bounds() if cfg.grid is not None else None

    def one(launch):
        origin, direction = launch
        try:
            state = launch_state(
                field,
                origin,
                direction,
                frequency=cfg.rays.frequency,
                project=cfg.rays.project_null,
            )
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


def _parse_inline(raw: str, what: str) -> dict:
    raw = raw.strip()
    if raw.startswith("{"):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what}: invalid JSON ({exc})") from exc
    return {"name": raw}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="geomopt",
        description="Effective-geometry toolkit: material maps, index lifts, "
        "ray traces and the invariant verification suite.",
    )
    p.add_argument("mode", nargs="?", choices=MODES, help="command to run")
    p.add_argument("--config", type=Path, help="JSON scene configuration")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--seed", type=int, help="seed for the verify suite")
    p.add_argument("--step", type=float, help="ray integrator step")
    p.add_argument("--steps", type=int, help="ray integrator step count")
    p.add_argument("--grid", help="grid as JSON or as nx,ny,nz")
    p.add_argument("--metric", help="metric as JSON or a catalog index name")
    p.add_argument("--medium", help="medium as JSON or a catalog name")
    p.add_argument("--c", type=float, help="speed of light")
    return p


def load_config(args: argparse.Namespace) -> SceneConfig:
    data: dict = {}
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        _require(isinstance(data, dict), "config: top level must be a JSON object")

    if args.out_dir is not None:
        data["out_dir"] = args.out_dir
    if args.seed is not None:
        data["seed"] = args.seed
    if args.c is not None:
        data["c"] = args.c
    if args.step is not None or args.steps is not None:
        rays = dict(data.get("rays", {}))
        if args.step is not None:
            rays["step"] = args.step
        if args.steps is not None:
            rays["steps"] = args.steps
        data["rays"] = rays
    if args.grid is not None:
        raw = args.grid.strip()
        if raw.startswith("{"):
            data["grid"] = _parse_inline(raw, "grid")
        else:
            try:
                resolution = [int(v) for v in raw.split(",")]
            except ValueError as exc:
                raise ConfigError(f"grid: {exc}") from exc
            grid = dict(data.get("grid", {}))
            grid["resolution"] = resolution
            data["grid"] = grid
    if args.metric is not None:
        raw = args.metric.strip()
        if raw.startswith("{"):
            data["metric"] = _parse_inline(raw, "metric")
        else:
            data["metric"] = {"index": {"name": raw}}
    if args.medium is not None:
        data["medium"] = _parse_inline(args.medium, "medium")

    return SceneConfig.from_dict(data, args.mode)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    commands = {
        "geometrize": cmd_geometrize,
        "inverse": cmd_inverse,
        "trace": cmd_trace,
        "verify": cmd_verify,
    }
    try:
        return commands[cfg.mode](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeomOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""geomopt benchmark: one workload per process, run as a closed loop.

One client calls ``geomopt.cli.main(argv)`` in-process, the code path of the
``geomopt`` command, one op after another with no think time, until the ops
have taken ``--seconds``.  Every op's outputs are checked against closed
forms outside the timed window; an op that raises, exits non-zero or fails
its check counts as failed.

    python3 bench/run.py --workload trace-fan --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a traced
loop and prints the per-layer metrics.  The last stdout line is the result
object; the line before it records the seed, op count, tail percentile and
the machine.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK_ROOT = BENCH_DIR / ".work"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402

SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# Peak memory is read after this many ops: it creeps up over a run, and
# the number of ops in a run follows the host's speed.
RSS_OPS = 4

# Two sources of noise on a small shared host, and what the benchmark does
# about each:
# - Threads of one op that contend for the GIL across CPUs hand it over at
#   the mercy of the host's scheduler: the same op takes 1.5 s to 4.5 s.
#   The process is pinned to its lowest-numbered CPU, where the handovers
#   are local.  The program still runs its default pool, one thread per CPU
#   the host reports; the traced run makes one op on all CPUs.
# - The CPU's own speed drifts by up to 1.7x over tens of seconds, so a
#   whole run can sit in a slow or a fast phase.  A fixed kernel that never
#   touches geomopt is timed on the same CPU before the first op and after
#   every op (and around every set-up sample); each time is divided by the
#   kernel's time around it and multiplied by REF_KERNEL_S, the kernel's
#   median time on the reference host (2 vCPU Xeon, Python 3.11.7, numpy
#   2.4.6).  The end-to-end times are thus seconds at the reference host's
#   speed; the raw wall times are in the context line.
KERNEL_REPS = 5
REF_KERNEL_S = 0.0098
_EYE4 = np.eye(4)

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}

CHECK_NAMES = (
    "vacuum_identity", "impedance_matching", "oracle_equivalence_4d3d",
    "christoffel_cancellation", "christoffel_asymmetry_control",
    "metric_identity", "double_dual", "alternating_contraction",
    "lambda_3d_equivalence", "inverse_roundtrip", "curvilinear_reduction",
    "spherical_vacuum_identity", "moving_media_reductions",
    "tamm_isotropic_agreement", "bianchi_grid_order", "divergence_grid_order",
    "minkowski_projection_rest",
)

PER_LAYER = {
    "cli.sweep_s": "s",
    "cli.write_csv_s": "s",
    "cli.write_csv_bytes": "B",
    "cli.write_svg_s": "s",
    "cli.self_s": "s",
    "cli.threads": "count",
    "cli.flagged_rows": "count",
    "cli.serial_op_s": "s",
    "cli.all_cpus_op_s": "s",
    **{
        f"geometrize.{layer}_{kind}": unit
        for layer in ("metric_at", "inverse_at", "plebanski", "index_lift")
        for kind, unit in (("calls", "count"), ("s", "s"))
    },
    **{
        f"tensors.{fn}_{kind}": unit
        for fn in ("metric_inverse", "sqrt_minus_det")
        for kind, unit in (("calls", "count"), ("s", "s"))
    },
    "constitutive.calls": "count",
    "constitutive.s": "s",
    "raytrace.trace_ray_s": "s",
    "raytrace.launch_s": "s",
    "raytrace.hamiltonian_s": "s",
    "raytrace.rays": "count",
    "raytrace.steps": "count",
    "raytrace.exited_rays": "count",
    "raytrace.metric_calls_per_step": "count/step",
    "raytrace.refined_steps": "count",
    "raytrace.focus_miss_max": "1",
    "raytrace.null_drift_max": "1",
    **{f"verify.check_s.{name}": "s" for name in CHECK_NAMES},
    "verify.grid_residual_s": "s",
    "verify.behaved_ratio": "ratio",
    "verify.min_margin": "log10",
    "trace.overhead_ratio": "ratio",
}


def _kernel() -> float:
    """Interpreter arithmetic and tiny numpy calls, the mix of geomopt's
    per-point code."""
    acc = 0.0
    for k in range(55000):
        acc += k * 0.5
    a = _EYE4
    for _ in range(320):
        a = np.linalg.inv(a @ _EYE4 + 0.0)
    return acc + float(a[0, 0])


def kernel_seconds() -> float:
    """Median wall time of KERNEL_REPS kernel calls: the host's speed right
    now."""
    times = []
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pin(cpus: set[int]) -> None:
    """Run this thread, and the threads and processes it starts, on ``cpus``."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def all_cpus() -> set[int]:
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set(range(os.cpu_count() or 1))


def host_slowdown(before: float, after: float) -> float:
    """Kernel time around a measurement over its reference time."""
    return (before + after) / (2.0 * REF_KERNEL_S)


class ProgramMissing(Exception):
    """The checkout holds no importable geomopt under src/."""


def import_program():
    """``geomopt.cli`` from this checkout's src/, never from elsewhere."""
    if not (SRC / "geomopt" / "cli.py").is_file():
        raise ProgramMissing(f"no geomopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geomopt.cli

    if SRC.resolve() not in Path(geomopt.cli.__file__).resolve().parents:
        raise ProgramMissing(f"geomopt imported from {geomopt.cli.__file__}, not {SRC}")
    return geomopt.cli


_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import geomopt.cli
import workloads
from pathlib import Path
w = workloads.build({name!r}, {seed!r}, {size!r}, Path({work!r}))
w.argv(0, Path({work!r}) / "op")
print(time.perf_counter() - t0)
"""


def setup_seconds(name: str, seed: int, size: str, work: Path) -> tuple[float, float]:
    """Medians over fresh processes of importing geomopt and building the
    scene inputs of the first op: (at reference speed, wall)."""
    scaled, wall = [], []
    before = kernel_seconds()
    for k in range(SETUP_SAMPLES):
        code = _PROBE.format(
            src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, size=size,
            work=str(work / f"setup{k}"),
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
        )
        after = kernel_seconds()
        seconds = float(done.stdout.strip().splitlines()[-1])
        wall.append(seconds)
        scaled.append(seconds / host_slowdown(before, after))
        before = after
    return statistics.median(scaled), statistics.median(wall)


@dataclass
class Op:
    seconds: float
    ok: bool
    items: int = 0
    facts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    slowdown: float = 1.0  # host_slowdown around the op

    @property
    def ref_seconds(self) -> float:
        """The op's time at the reference host's speed."""
        return self.seconds / self.slowdown


def run_op(cli, wl, i: int, work: Path, tracer: Tracer | None = None) -> Op:
    """One checked op.  With a tracer its spans and counters go in ``layers``."""
    out = work / "op"
    shutil.rmtree(out, ignore_errors=True)
    argv = wl.argv(i, out)
    stdout = io.StringIO()
    lo = tracer.mark() if tracer else 0
    before = dict(tracer.counters) if tracer else {}
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            root = tracer.open(ROOT) if tracer else None
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                if tracer:
                    tracer.close(root)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    seconds = time.perf_counter() - t0
    op = Op(seconds=seconds, ok=False)
    if tracer:
        op.layers = tracer.totals(lo, tracer.mark())
        for key, value in tracer.counters.items():
            op.layers[key] = value - before.get(key, 0)
    if code is None:
        return op
    try:
        outcome = wl.check(i, code, out, stdout.getvalue())
    except workloads.CheckFailed as exc:
        print(f"{wl.name} op {i}: check failed: {exc}", file=sys.stderr)
        op.facts = exc.facts
        return op
    op.ok, op.items, op.facts = True, outcome.items, outcome.facts
    return op


def closed_loop(step, seconds: float, max_ops: int | None) -> list[Op]:
    """Call ``step(i)``, which returns new ops, until the ops' own time
    reaches ``seconds`` or there are ``max_ops`` of them."""
    ops: list[Op] = []
    spent = 0.0
    while not ops or (spent < seconds and (max_ops is None or len(ops) < max_ops)):
        new = step(len(ops))
        ops.extend(new)
        spent += sum(op.seconds for op in new)
    return ops


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least TAIL_BEYOND
    ops beyond it, but never below the upper median.  Runs of up to
    2 * TAIL_BEYOND ops have no such rank above the median and report the
    upper median; the rule moves smoothly with the op count, so runs either
    side of that count stay comparable."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(cli, wl, args, work: Path) -> tuple[dict, list[Op], dict]:
    """Untraced closed loop; times at the reference host's speed."""
    setup, setup_wall = setup_seconds(args.workload, args.seed, args.size, work)
    kernel = [kernel_seconds()]
    rss = []

    def step(i: int) -> list[Op]:
        op = run_op(cli, wl, i, work)
        kernel.append(kernel_seconds())
        op.slowdown = host_slowdown(kernel[-2], kernel[-1])
        if i < RSS_OPS:
            rss.append(peak_rss_mb())
        return [op]

    ops = closed_loop(step, args.seconds, args.max_ops)
    times = [op.ref_seconds for op in ops]
    tail_s, tail_pct = tail(times)
    values = {
        "setup_s": setup,
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "items_per_s": sum(op.items for op in ops if op.ok) / sum(times),
        "peak_rss_mb": rss[-1],
    }
    wall = [op.seconds for op in ops]
    return values, ops, {
        "op_s.tail_percentile": tail_pct,
        "wall_setup_s": setup_wall,
        "wall_op_s.p50": statistics.median(wall),
        "wall_op_s.tail": tail(wall)[0],
        "host_slowdown.p50": statistics.median(op.slowdown for op in ops),
    }


def _mean(ops: list[Op], key: str, source: str = "layers") -> float:
    return sum(getattr(op, source).get(key, 0) for op in ops) / len(ops)


def _total(ops: list[Op], key: str) -> float:
    return sum(op.layers.get(key, 0) for op in ops)


def layer_values(tracer: Tracer, traced: list[Op], plain: list[Op], serial: Op) -> dict:
    """Per-layer metrics as per-op means over the traced ops; ratios are
    taken of summed counts, so identical ops give exactly repeatable values.
    A metric whose traced function the program lacks is left out."""
    installed = tracer.installed
    values = {}
    for span in ("cli.sweep", "cli.write_csv", "cli.write_svg", "raytrace.trace_ray",
                 "raytrace.launch", "raytrace.hamiltonian", "verify.grid_residual"):
        if span in installed:
            values[f"{span}_s"] = _mean(traced, f"{span}_s")
    for span in ("geometrize.metric_at", "geometrize.inverse_at", "geometrize.plebanski",
                 "geometrize.index_lift", "tensors.metric_inverse", "tensors.sqrt_minus_det"):
        if span in installed:
            values[f"{span}_calls"] = _mean(traced, f"{span}_calls")
            values[f"{span}_s"] = _mean(traced, f"{span}_s")
    relations = sorted(s for s in installed if s.startswith("constitutive."))
    if relations:
        values["constitutive.calls"] = sum(_mean(traced, f"{s}_calls") for s in relations)
        values["constitutive.s"] = sum(_mean(traced, f"{s}_s") for s in relations)
    if "cli.write_csv" in installed:
        values["cli.write_csv_bytes"] = _mean(traced, "cli.write_csv_bytes")
    values["cli.self_s"] = _mean(traced, f"{ROOT}.self_s")
    values["cli.threads"] = max(op.layers["threads"] for op in traced)
    values["cli.flagged_rows"] = _mean(traced, "flagged_rows", "facts")
    values["cli.serial_op_s"] = serial.seconds

    if {"raytrace.trace_ray", "raytrace.hamiltonian"} <= installed:
        rays = _total(traced, "raytrace.trace_ray_calls")
        steps = _total(traced, "raytrace.steps")
        values["raytrace.rays"] = rays / len(traced)
        values["raytrace.steps"] = steps / len(traced)
        values["raytrace.exited_rays"] = _mean(traced, "raytrace.exited_rays")
        field_calls = _total(traced, "field_calls_in_trace")
        values["raytrace.metric_calls_per_step"] = field_calls / steps if steps else 0.0
        hamiltonians = _total(traced, "raytrace.hamiltonian_calls")
        values["raytrace.refined_steps"] = (hamiltonians - steps - rays) / len(traced)
    values["raytrace.focus_miss_max"] = max(op.facts.get("focus_miss_max", 0.0) for op in traced)
    values["raytrace.null_drift_max"] = max(op.facts.get("null_drift_max", 0.0) for op in traced)

    if any(s.startswith("verify._check_") for s in installed):
        values.update({f"verify.check_s.{name}": 0.0 for name in CHECK_NAMES})
        for span, name in tracer.check_names.items():
            if name in CHECK_NAMES:
                values[f"verify.check_s.{name}"] = _mean(traced, f"{span}_s")
    values["verify.behaved_ratio"] = _mean(traced, "behaved_ratio", "facts")
    values["verify.min_margin"] = min(op.facts.get("min_margin", 0.0) for op in traced)

    values["trace.overhead_ratio"] = statistics.median(op.seconds for op in traced) / (
        statistics.median(op.seconds for op in plain))
    return values


def per_layer(cli, wl, args, work: Path, cpus: set[int]) -> tuple[dict, list[Op], dict]:
    """Traced run: one op on all CPUs, one with GEOMOPT_THREADS=1 for the
    serial reference, then untraced and traced ops in turn, so the tracing
    overhead is measured under the same conditions."""
    pin(cpus)
    try:
        across = run_op(cli, wl, 0, work)
    finally:
        pin({min(cpus)})
    os.environ["GEOMOPT_THREADS"] = "1"
    try:
        serial = run_op(cli, wl, 0, work)
    finally:
        del os.environ["GEOMOPT_THREADS"]
    tracer = Tracer()

    def pair(i: int) -> list[Op]:
        plain = run_op(cli, wl, 1 + i, work)
        tracer.install()
        try:
            traced = run_op(cli, wl, 2 + i, work, tracer)
        finally:
            tracer.uninstall()
        return [plain, traced]

    max_ops = None if args.max_ops is None else 2 * args.max_ops
    ops = closed_loop(pair, args.seconds, max_ops)
    plain, traced = ops[0::2], ops[1::2]
    values = layer_values(tracer, traced, plain, serial)
    values["cli.all_cpus_op_s"] = across.seconds
    tracer.save(WORK_ROOT / f"spans-{args.workload}.npz")
    return values, [across, serial, *ops], {"traced_ops": len(traced), "spans": tracer.mark()}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="small shrinks each op, for the benchmark's own tests")
    p.add_argument("--max-ops", type=int, help="stop after this many ops")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The default thread pool is what users get.
    os.environ.pop("GEOMOPT_THREADS", None)
    try:
        cli = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    cpus = all_cpus()
    pin({min(cpus)})
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, args.size, work)
        if args.trace:
            values, ops, extra = per_layer(cli, wl, args, work, cpus)
        else:
            values, ops, extra = end_to_end(cli, wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(not op.ok for op in ops)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "ops": len(ops),
        "fail_ratio": failed / len(ops),
        "item": wl.item,
        **extra,
        "nproc": os.cpu_count(),
        "pinned_cpu": min(cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(context))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

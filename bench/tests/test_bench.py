"""Tests of the benchmark itself: every workload runs and reports every
metric with its unit, and corrupted outputs make an op count as failed.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_the_runner():
    spec = _bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_one_small_op_reports_every_metric(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "0.01", "--trace", str(trace),
            "--size", "small", "--max-ops", "1",
        ],
        capture_output=True, text=True, timeout=170, cwd=REPO,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert context["seed"] == 5 and context["fail_ratio"] == 0.0
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if workload == "trace-fan" and trace:
        metrics = result["metrics"]
        assert metrics["raytrace.rays"]["value"] == workloads.FAN_RAYS
        assert metrics["raytrace.metric_calls_per_step"]["value"] > 28.0
        assert metrics["raytrace.refined_steps"]["value"] >= 0.0


def _corrupt_one_value(path: Path, column: int, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    row = len(lines) // 2
    cells = lines[row].split(",")
    cells[column] = "%.17g" % (float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "workload, victim, column, delta",
    [
        ("geometrize-grid", "materials.csv", 3, 1e-9),  # eps11 of one point
        ("trace-fan", "ray_001.csv", 3, 0.05),  # y of one ray sample
    ],
)
def test_corrupted_output_fails_the_op(tmp_path, monkeypatch, workload, victim, column, delta):
    cli = run.import_program()
    wl = workloads.build(workload, 5, "small", tmp_path)
    assert run.run_op(cli, wl, 0, tmp_path).ok

    write_csv = cli._write_csv

    def corrupting(path, header, rows):
        write_csv(path, header, rows)
        if Path(path).name == victim:
            _corrupt_one_value(Path(path), column, delta)

    monkeypatch.setattr(cli, "_write_csv", corrupting)
    op = run.run_op(cli, wl, 0, tmp_path)
    assert not op.ok


def test_missing_trace_target_is_skipped(monkeypatch):
    run.import_program()
    targets = tracing.FIXED_TARGETS + [("cli.gone", "geomopt.cli", "no_such_function")]
    monkeypatch.setattr(tracing, "FIXED_TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "cli.gone" not in tracer.installed
    assert "cli.sweep" in tracer.installed


def test_tail_needs_ten_ops_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3)
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)


def test_op_times_scale_by_the_kernel_around_them():
    ref = run.REF_KERNEL_S
    assert run.host_slowdown(ref, ref) == 1.0
    op = run.Op(seconds=3.0, ok=True, slowdown=run.host_slowdown(ref, 2.0 * ref))
    assert op.ref_seconds == pytest.approx(2.0)
    assert run.kernel_seconds() > 0.0

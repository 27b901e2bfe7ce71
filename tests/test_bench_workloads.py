"""Every benchmark workload's small op passes that workload's own check.

The checks compare outputs with closed forms: the grid workloads' material
and metric tables, the trace fan's affine grid, hop length, focus miss and
null drift, and the verify suite's verdicts.  This test reads
``bench/workloads.py`` without changing it, runs one small op of each
workload through ``geomopt.cli.main`` and applies its check, so a change
that breaks one fails here and not only as a failed benchmark op.
"""
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from geomopt.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_op_passes_its_check(name, tmp_path):
    wl = workloads.build(name, 0, "small", tmp_path / "work")
    out = tmp_path / "op"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(wl.argv(0, out))
    outcome = wl.check(0, code, out, stdout.getvalue())
    assert outcome.items > 0

"""Every program name the benchmark's tracer patches still exists.

The tracer skips a target it cannot find, so a renamed function would
silently drop its per-layer metric.  This test reads ``bench/tracing.py``
without changing it and resolves each fixed target in the package.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _fixed_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXED_TARGETS


@pytest.mark.parametrize("span, modname, attr", _fixed_targets())
def test_fixed_target_resolves(span, modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: {modname}.{attr} is missing"
        owner = getattr(owner, part)
    assert callable(owner)

"""Every program name the benchmark's tracer patches still exists.

The tracer skips a target it cannot find, so a renamed function would
silently drop its per-layer metric.  These tests read ``bench/tracing.py``
and ``bench/run.py`` without changing them: each fixed target resolves in
the package, and the verify suite reports the benchmark's check names, each
from a ``_check_*`` function it calls through its module attribute (which is
what the tracer patches).
"""
import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from geomopt import verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def _check_names() -> tuple:
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CHECK_NAMES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no CHECK_NAMES")


CHECK_NAMES = _check_names()
CHECKS = sorted(attr for attr in vars(verify) if attr.startswith("_check_"))


def test_suite_reports_the_benchmark_check_names_in_order():
    assert tuple(r.name for r in verify.default_check_suite()) == CHECK_NAMES


def test_suite_calls_every_check_through_its_module_attribute(monkeypatch):
    names = {}
    for attr in CHECKS:

        def patched(*args, _attr=attr, _check=getattr(verify, attr)):
            result = _check(*args)
            names[_attr] = result.name
            return dataclasses.replace(result, name=_attr)

        monkeypatch.setattr(verify, attr, patched)
    called = [r.name for r in verify.default_check_suite()]
    assert sorted(called) == CHECKS
    assert tuple(names[attr] for attr in called) == CHECK_NAMES

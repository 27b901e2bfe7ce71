"""Spans and counters recorded around geomopt's layers, from outside it.

``Tracer.install`` replaces module-level functions of an imported geomopt,
and two ``MetricField`` methods on the class, with wrappers that record a
span (name, start, end, parent, thread) per call; ``uninstall`` puts the
originals back.  A function is replaced under every geomopt module name
bound to it, so ``from .x import f`` call sites are traced too.  A target
the program no longer has is skipped, which gives absent metrics rather
than a crash.

Spans live in flat arrays in memory; ``save`` writes them out once.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = "cli.main"
FIELD_CALLS = ("geometrize.metric_at", "geometrize.inverse_at")

# (span name, module, attribute); "Class.method" patches the class.
FIXED_TARGETS = [
    ("cli.sweep", "geomopt.cli", "parallel_map"),
    ("cli.write_csv", "geomopt.cli", "_write_csv"),
    ("cli.write_svg", "geomopt.cli", "_write_svg"),
    ("geometrize.plebanski", "geomopt.geometrize", "plebanski_cartesian"),
    ("geometrize.plebanski", "geomopt.geometrize", "plebanski_curvilinear"),
    ("geometrize.index_lift", "geomopt.geometrize", "isotropic_metric_from_index"),
    ("geometrize.metric_at", "geomopt.geometrize", "MetricField.metric_at"),
    ("geometrize.inverse_at", "geomopt.geometrize", "MetricField.inverse_at"),
    ("raytrace.trace_ray", "geomopt.raytrace", "trace_ray"),
    ("raytrace.launch", "geomopt.raytrace", "launch_state"),
    ("raytrace.hamiltonian", "geomopt.raytrace", "hamiltonian"),
    ("verify.grid_residual", "geomopt.verify", "bianchi_residual_grid"),
    ("verify.grid_residual", "geomopt.verify", "divergence_residual"),
]
# Every public function defined in these modules gets a span of its own.
PUBLIC_MODULES = ("tensors", "constitutive")
CHECK_PREFIX = "_check_"


def _geomopt_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "geomopt" or name.startswith("geomopt."))
    }


def targets(modules: dict) -> list[tuple[str, str, str]]:
    """Fixed targets plus the public tensors/constitutive functions and the
    verify check functions found in the loaded program."""
    found = list(FIXED_TARGETS)
    for short in PUBLIC_MODULES:
        mod = modules.get(f"geomopt.{short}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found.append((f"{short}.{attr}", mod.__name__, attr))
    verify = modules.get("geomopt.verify")
    for attr, fn in sorted(vars(verify).items() if verify else ()):
        if attr.startswith(CHECK_PREFIX) and inspect.isfunction(fn):
            found.append((f"verify.{attr}", verify.__name__, attr))
    return found


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("q")
        self.counters: Counter = Counter()
        self.check_names: dict[str, str] = {}
        self.installed: set[str] = set()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span.  Its parent is the innermost open span of this
        thread or, for a worker thread with none, of the main thread."""
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else -1
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name.append(self._ids[name])
            self.parent.append(parent)
            self.thread.append(tid)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def mark(self) -> int:
        return len(self.start)

    def _wrap(self, fn, name: str, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- hooks that read counts off return values ---------------------------

    def _on_trace_ray(self, args, ray) -> None:
        self.count("raytrace.steps", len(ray) - 1)
        self.count("raytrace.exited_rays", int(bool(ray.exited_domain)))

    def _on_write_csv(self, args, result) -> None:
        self.count("cli.write_csv_bytes", Path(args[0]).stat().st_size)

    def _on_check(self, name: str):
        def hook(args, result) -> None:
            self.check_names[name] = result.name

        return hook

    def _hook(self, name: str):
        if name == "raytrace.trace_ray":
            return self._on_trace_ray
        if name == "cli.write_csv":
            return self._on_write_csv
        if name.startswith("verify." + CHECK_PREFIX):
            return self._on_check(name)
        return None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = _geomopt_modules()
        for name, modname, attr in targets(modules):
            owner = modules.get(modname)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(original, name, self._hook(name)))
                self._patches.append((owner, attr, original))
            else:
                original = getattr(owner, attr, None)
                if not callable(original):
                    continue
                wrapped = self._wrap(original, name, self._hook(name))
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._patches.append((mod, key, original))
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = self.mark() if hi is None else hi
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64)[lo:hi].copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64)[lo:hi].copy(),
        }

    def totals(self, lo: int, hi: int) -> dict[str, float]:
        """Per installed span name: ``<name>_s`` (summed duration, inclusive
        of child spans, summed over threads) and ``<name>_calls``; plus the
        op's root self time, the number of threads that ran traced calls
        (pool workers, or 1 for the calling thread) and the field calls made
        directly by ``trace_ray``."""
        a = self.arrays(lo, hi)
        dur = a["end"] - a["start"]
        out: dict[str, float] = {}
        for name in sorted(self.installed | {ROOT}):
            mask = a["name"] == self._ids.get(name, -1)
            out[f"{name}_s"] = float(dur[mask].sum())
            out[f"{name}_calls"] = int(mask.sum())
        roots = np.flatnonzero(a["name"] == self._ids.get(ROOT, -1))
        out[f"{ROOT}.self_s"] = sum(self._self_time(a, lo, r) for r in roots)
        workers = np.unique(a["thread"][a["thread"] != self._main])
        out["threads"] = max(len(workers), 1)
        local_parent = a["parent"] - lo
        has_parent = (local_parent >= 0) & (local_parent < len(dur))
        parent_name = np.full(len(dur), -1)
        parent_name[has_parent] = a["name"][local_parent[has_parent]]
        field = np.isin(a["name"], [self._ids.get(n, -1) for n in FIELD_CALLS])
        in_trace = parent_name == self._ids.get("raytrace.trace_ray", -2)
        out["field_calls_in_trace"] = int((field & in_trace).sum())
        return out

    @staticmethod
    def _self_time(a: dict, lo: int, r: int) -> float:
        """Duration of span r minus the union of its children's intervals."""
        t0, t1 = a["start"][r], a["end"][r]
        kids = np.flatnonzero(a["parent"] == r + lo)
        covered = 0.0
        reach = t0
        for s, e in sorted(zip(a["start"][kids], a["end"][kids])):
            s, e = max(s, reach), min(e, t1)
            if e > s:
                covered += e - s
                reach = e
        return float(t1 - t0 - covered)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

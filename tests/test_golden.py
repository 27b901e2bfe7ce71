"""Golden outputs: small CLI scenes regenerated and compared by SHA-256.

Each scene runs ``geomopt.cli.main`` on a config in a fresh directory and
hashes every file it writes; ``verify`` scenes hash stdout instead.  The
reference hashes live in ``tests/golden/hashes.json``.  A refactor must
leave them unchanged.  A change that moves numbers on purpose regenerates
them with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/hashes.json

and says which scenes changed and why.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from geomopt.cli import main

GOLDEN = Path(__file__).parent / "golden" / "hashes.json"

SCENES = {
    "geometrize_luneburg_cartesian": {
        "mode": "geometrize",
        "metric": {"index": {"name": "luneburg"}},
        "grid": {"origin": [-1.2, -1.2, -0.6], "extents": [2.4, 2.4, 1.2], "resolution": [7, 7, 3]},
    },
    # r = 0 rows are flagged: the coordinate metric is singular there.
    "geometrize_spherical": {
        "mode": "geometrize",
        "coordinates": "spherical",
        "metric": {"coordinate_vacuum": True},
        "grid": {"origin": [0.0, 0.3, 0.0], "extents": [2.0, 2.5, 6.0], "resolution": [5, 4, 3]},
    },
    # g_00 = 0 everywhere: every row is flagged ZeroG00.
    "geometrize_flagged_constant": {
        "mode": "geometrize",
        "metric": {"matrix": [[0, 1, 0, 0], [1, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
        "grid": {"origin": [0, 0, 0], "extents": [1, 1, 0], "resolution": [3, 2, 1]},
    },
    "inverse_fisheye": {
        "mode": "inverse",
        "medium": {"name": "fisheye"},
        "grid": {"origin": [-1, -1, -1], "extents": [2, 2, 2], "resolution": [6, 6, 4]},
    },
    # Crosses the lens rim, so the step refiner runs.
    "trace_luneburg_fan": {
        "mode": "trace",
        "medium": {"name": "luneburg"},
        "grid": {"origin": [-2.2, -1.6, -1.0], "extents": [3.6, 3.2, 2.0], "resolution": [2, 2, 2]},
        "rays": {
            "launches": [
                {"origin": [-2.0, y, 0.0], "direction": [1.0, 0.0, 0.0]}
                for y in (-0.6, -0.2, 0.3, 0.7)
            ],
            "step": 4e-3,
            "steps": 700,
        },
    },
    "verify_seed_1729": {"mode": "verify", "seed": 1729},
    "verify_seed_7": {"mode": "verify", "seed": 7},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scene_hashes(name: str, work: Path) -> dict:
    """Run one scene under ``work``; return its exit code and output hashes."""
    out_dir = work / "out"
    config = work / "scene.json"
    config.write_text(json.dumps({**SCENES[name], "out_dir": str(out_dir)}), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--config", str(config)])
    if SCENES[name]["mode"] == "verify":
        hashes = {"stdout": _sha256(stdout.getvalue().encode("utf-8"))}
    else:
        hashes = {
            p.name: _sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())
        }
    return {"exit": code, "hashes": hashes}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_scene_matches_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert scene_hashes(name, tmp_path) == expected


if __name__ == "__main__":
    table = {}
    for scene in sorted(SCENES):
        with tempfile.TemporaryDirectory() as tmp:
            table[scene] = scene_hashes(scene, Path(tmp))
    json.dump(table, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")

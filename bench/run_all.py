#!/usr/bin/env python3
"""Run every workload, untraced and traced, each in its own process, and
print every metric with its unit.

    python3 bench/run_all.py --seed 0 --seconds 22
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import NAMES  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    args = p.parse_args()
    status = 0
    for workload in NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [
                    sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ],
                capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            *_, context, result = done.stdout.strip().splitlines()
            result = json.loads(result)
            print(f"## {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            print(f"   {context}")
            for name, metric in result["metrics"].items():
                print(f"   {name:42s} {metric['value']:<24.10g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())

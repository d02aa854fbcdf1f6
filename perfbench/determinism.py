"""Counter determinism check for the traced run.

Usage, from the root of a checkout:

    python3 perfbench/determinism.py [--seed N] [WORKLOAD ...]

For each workload (default: all four) it makes three traced runs of one
seed, each in a fresh process: two with the worker pool as shipped
(``ITERINT_WORKERS`` unset) and one with ``ITERINT_WORKERS=1``.  Every
per-layer metric that is not a time (counts and ratios) must read exactly
the same in all three, so that a later change may cite a count.  Exits 1
and lists the metrics that differ otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int, workers: str | None) -> dict:
    env = dict(os.environ)
    env.pop("ITERINT_WORKERS", None)
    if workers is not None:
        env["ITERINT_WORKERS"] = workers
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload}: traced run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run produced {result['failed']} failed values")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced counts repeat exactly")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH.parent / "src"))
    from workloads import WORKLOADS

    names = args.workloads or list(WORKLOADS)
    bad = []
    for name in names:
        runs = {
            "default": traced_counts(name, args.seed, None),
            "again": traced_counts(name, args.seed, None),
            "workers=1": traced_counts(name, args.seed, "1"),
        }
        ref = runs["default"]
        for label, counts in runs.items():
            for metric, value in counts.items():
                if value != ref[metric]:
                    bad.append(f"{name} {metric}: default {ref[metric]!r}, {label} {value!r}")
        print(f"{name}: {len(ref)} count metrics compared across {len(runs)} runs")
    if bad:
        print("\n".join(bad))
        return 1
    print("all counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())

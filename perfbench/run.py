"""Benchmark of iterint: four seeded closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``perfbench/workloads.py``; ``all`` runs
each of them in its own process and ends with a table of every metric.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it times untraced jobs, then the same jobs traced, and reports
the per-layer metrics and the tracing overhead.  Details go to standard
output as JSON; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end times are plain wall-clock seconds.

The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the run exits non-zero before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
# a traced run times the first TRACE_INPUTS inputs of the cycle, untraced
# for UNTRACED_SHARE of --seconds and then traced for the rest
TRACE_INPUTS = 4
UNTRACED_SHARE = 0.4

END_TO_END = {
    "job_s_p50": "s",
    "values_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _load_program():
    src = ROOT / "src"
    if not (src / "iterint" / "__init__.py").is_file():
        sys.exit(f"perfbench: no iterint sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import iterint

    if Path(iterint.__file__).resolve().parent != (src / "iterint").resolve():
        sys.exit(f"perfbench: imported iterint from {iterint.__file__}, not from {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(seed: int) -> dict:
    import mpmath
    import numpy

    import iterint.cli

    workers = iterint.cli._workers() if hasattr(iterint.cli, "_workers") else 1
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "iterint_workers_env": os.environ.get("ITERINT_WORKERS"),
        "workers_effective": workers,
        "seed": seed,
    }


def _setup_samples(wl) -> list[float]:
    """Wall seconds of SETUP_PROBES fresh processes, each importing the
    program and building the workload's basis."""
    spec = json.dumps(wl.basis_json())
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), spec],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout))
    return out


def _tail(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    ordered = sorted(times)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


class _Run:
    """Jobs of one workload in one process, with every output checked.

    On a shared VM the CPUs run at different speeds for minutes at a time,
    and a thread tends to stay on the CPU it started on.  A job that runs on
    the calling thread alone (``one_thread``) is therefore pinned to each
    usable CPU in turn, so that every run times it on all of them alike.
    Jobs that fan out over the worker pool are left free: pinning them
    would put the pool's threads on one CPU and hide the pool's cost.
    """

    def __init__(self, wl):
        self.wl = wl
        self.values = []
        self.cpus = sorted(os.sched_getaffinity(0)) if wl.one_thread else []
        self.jobs = 0

    def job(self, call, k: int) -> tuple[float, int]:
        """Wall seconds of the job on input ``k``, and its certified values."""
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[self.jobs % len(self.cpus)]})
        self.jobs += 1
        t0 = time.perf_counter()
        raw = call(k)
        wall = time.perf_counter() - t0
        vals = self.wl.check(k, raw)
        self.values += vals
        return wall, sum(v.ok for v in vals)

    def loop(self, budget: float, call, n_inputs: int) -> dict:
        """Closed loop in whole passes over inputs 0..n_inputs-1.

        Every input runs equally often, so every run and every commit takes
        its medians over the same inputs.  The loop ends at the end of the
        pass nearest to ``budget`` (at the mean pass time so far), and after
        at least one pass.
        """
        wall: list[float] = []
        certified = 0
        start = time.perf_counter()
        while True:
            for k in range(n_inputs):
                w, ok = self.job(call, k)
                wall.append(w)
                certified += ok
            elapsed = time.perf_counter() - start
            passes = len(wall) // n_inputs
            if elapsed + 0.5 * elapsed / passes > budget:
                return {"wall": wall, "certified": certified}

    def result(self, metrics: dict, details: dict) -> dict:
        attempted = len(self.values)
        failed = sum(not v.ok for v in self.values)
        bounded = [v.within_bound for v in self.values if v.within_bound is not None]
        details.update(
            {
                "values_attempted": attempted,
                "values_failed": failed,
                "fail_ratio": failed / attempted,
                "err_bound_checked": len(bounded),
                "err_bound_missed": bounded.count(False),
                "err_bound_miss_ratio": bounded.count(False) / len(bounded) if bounded else None,
            }
        )
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name](seed, OUT)
    details = {"workload": name, "why": wl.why, "machine": _machine(seed)}
    details["input_size"] = wl.input_size()
    setup = [] if trace else _setup_samples(wl)
    wl.build_references()
    run = _Run(wl)
    # one job before timing, so that lazy set-up and caches are warm
    details["first_job_wall_s"] = run.job(wl.run_job, 0)[0]

    if not trace:
        jobs = run.loop(seconds, wl.run_job, wl.cycle)
        wall = jobs["wall"]
        details.update(
            {
                "jobs": len(wall),
                "job_s_tail": _tail(wall),
                "job_s": wall,
                "setup_s_samples": setup,
            }
        )
        metrics = {
            "job_s_p50": statistics.median(wall),
            "values_per_s": jobs["certified"] / sum(wall),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        return run.result(metrics, details), details

    from tracer import LAYERS, Tracer

    n_inputs = min(TRACE_INPUTS, wl.cycle)
    plain = run.loop(UNTRACED_SHARE * seconds, wl.run_job, n_inputs)
    tracer = Tracer()
    tracer.install()
    traced = run.loop((1.0 - UNTRACED_SHARE) * seconds, tracer.traced(wl.run_job), n_inputs)
    metrics = tracer.metrics()
    cpu = statistics.fmean(job["cpu_s"] for job in tracer.jobs)
    attributed = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    trace_file = OUT / f"trace-{name}-seed{seed}.json"
    untraced_p50 = statistics.median(plain["wall"])
    traced_p50 = statistics.median(traced["wall"])
    details["trace"] = {
        "untraced_job_s_p50": untraced_p50,
        "traced_job_s_p50": traced_p50,
        "overhead_s": traced_p50 - untraced_p50,
        "untraced_jobs": len(plain["wall"]),
        "traced_jobs": len(traced["wall"]),
        "traced_job_cpu_s_mean": cpu,
        # process CPU time of a job that no span covers, such as the worker
        # pool's own machinery on its threads
        "unattributed_cpu_s": cpu - attributed,
        "layer_share_of_job_cpu": {
            layer: metrics[f"{layer}.self_s"]["value"] / cpu for layer in LAYERS
        },
        "absent": sorted(k for k, m in metrics.items() if m.get("absent")),
        "spans_file": str(trace_file.relative_to(ROOT)),
    }
    tracer.write(trace_file, {"workload": name, "seed": seed})
    return run.result(metrics, details), details


# details shown next to the result metrics in the table that ``all`` prints
_SHOWN = (
    ("fail_ratio", "ratio"),
    ("err_bound_miss_ratio", "ratio"),
)


def run_all(names, seed: int, seconds: int, trace: int) -> dict:
    """Each workload in its own process, so each has its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=seconds * 3 + 600,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result, details = json.loads(lines[-1]), json.loads("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        shown = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if trace:
            shown.append(("trace.overhead_s", details["trace"]["overhead_s"], "s"))
        else:
            tail = details["job_s_tail"]
            at = f"p{tail['percentile']:.1f}," if tail["percentile"] is not None else ""
            shown.append((f"job_s_tail({at}n={tail['samples']})", tail["value"], "s"))
            shown += [(k, details[k], unit) for k, unit in _SHOWN]
        for key, value, unit in shown:
            rows.append(f"{name:24s} {key:40s} {value!s:>24} {unit}")
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print("\n".join(rows))
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _load_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    elif args.workload in WORKLOADS:
        result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details, indent=1, sort_keys=True))
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the multisecretary CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh worker
process (``worker.py``) so its peak RSS is its own.  With ``--trace 0`` the
last line of standard output is a JSON object holding the end-to-end metrics
(``wall_s``, ``peak_rss_mib``, ``setup_s``); with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Every output is checked against
``reference.json``; see README.md for the workloads and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, write_dist

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up probes run half before and half after the workload, so their median
# spans the run's time window rather than one moment of the host's load.
SETUP_PROBES = 6
DEADLINE_S = 170.0

PER_LAYER = {
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "policies.make_s": "s", "policies.rates_s": "s", "policies.rates_calls": "count",
    "policies.decide_batch_s": "s", "policies.decide_batch_calls": "count",
    "dp.solve_s": "s", "dp.solve_calls": "count", "dp.cells": "cells", "dp.table_bytes": "bytes",
    "evaluate.exact_regret_s": "s", "evaluate.mc_regret_s": "s", "evaluate.cells": "count",
    "evaluate.forward_s": "s", "evaluate.forward_s.br": "s", "evaluate.forward_s.dp": "s",
    "evaluate.forward_s.ai": "s", "evaluate.forward_s.index": "s",
    "evaluate.forward_calls": "count", "evaluate.forward_state_steps": "steps",
    "evaluate.forward_max_drift": "prob",
    "offline.expectation_s": "s", "offline.expectation_calls": "count",
    "offline.error_bound_max": "ability", "offline.sort_batch_s": "s", "offline.sort_rows": "rows",
    "simulate.uniform_block_s": "s", "simulate.uniforms": "count", "simulate.chunk_s": "s",
    "simulate.episode_steps": "steps", "simulate.orbit_scan_s": "s",
    "simulate.paths_bytes": "bytes",
    "distribution.sample_many_s": "s", "distribution.sample_many_calls": "count",
    "process.cpu_s": "s", "process.tracing_overhead_s": "s",
}

# A fresh interpreter importing the CLI and loading the workload's distribution.
PROBE = """\
import sys, time
start = time.perf_counter()
import multisecretary.cli
import multisecretary.distribution
multisecretary.distribution.load_distribution(sys.argv[1])
print(time.perf_counter() - start)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise subprocess.TimeoutExpired("benchmark", DEADLINE_S)
    return left


def setup_probes(count: int, dist: Path, env: dict, deadline: float) -> list:
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", PROBE, str(dist)], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=remaining(deadline))
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def high_percentile(samples: list) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {cut:.4f} s"
    return "no percentile has 10 samples beyond it"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(worker: dict, setup: list) -> dict:
    walls = worker["untraced_wall_s"]
    print(f"wall_s {statistics.median(walls):.4f} s: median of {len(walls)} samples, "
          f"min {min(walls):.4f}, max {max(walls):.4f}; {high_percentile(walls)}")
    print(f"setup_s {statistics.median(setup):.4f} s: median of {len(setup)} fresh processes")
    print(f"peak_rss_mib {worker['peak_rss_mib']:.1f} MiB")
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mib": metric(worker["peak_rss_mib"], "MiB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def per_layer(worker: dict) -> dict:
    reps = worker["traced"]
    layers = {}
    for name in PER_LAYER:
        values = [rep["layers"].get(name, 0) for rep in reps]
        layers[name] = values[0] if PER_LAYER[name] != "s" else statistics.median(values)
    traced_wall = statistics.median(rep["wall_s"] for rep in reps)
    layers["process.tracing_overhead_s"] = traced_wall - statistics.median(worker["untraced_wall_s"])
    print(f"traced repetitions {len(reps)}; traced wall_s {traced_wall:.4f} s; "
          f"sum of span self times {statistics.median(r['self_sum_s'] for r in reps):.4f} s")
    print(f"{'span':28s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}  (last repetition)")
    for name, calls, total, own in reps[-1]["spans"]:
        print(f"{name:28s} {calls:8d} {total:10.4f} {own:10.4f}")
    if worker["absent"]:
        print("absent layers (metrics read 0): " + ", ".join(worker["absent"]))
    for name, value in layers.items():
        print(f"{name} {value} {PER_LAYER[name]}")
    return {name: metric(value, PER_LAYER[name]) for name, value in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "multisecretary" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    env = child_env()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        write_dist(workload, work / "dist.json")
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = setup_probes(probes, work / "dist.json", env, deadline)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
            timeout=remaining(deadline))
        worker = json.loads(proc.stdout.strip().splitlines()[-1])
        setup += setup_probes(probes, work / "dist.json", env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(worker["env"], sort_keys=True))
    metrics = per_layer(worker) if args.trace else end_to_end(worker, setup)
    problems = worker["messages"] + worker.get("selftest", [])
    frac = worker["failed"] / worker["attempted"]
    print(f"failed_ops_frac {frac} ({worker['failed']} of {worker['attempted']} checked operations)")
    for line in problems[:20]:
        print("FAIL " + line)
    print(json.dumps({"correct": not problems, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload repeatedly in this process and report its figures as JSON.

Started by ``run.py`` with ``src`` on the path, so the process holds only this
workload and its ``ru_maxrss`` is the workload's peak.  Each repetition calls
``multisecretary.cli.main(argv)`` after ``evaluate.clear_caches()``.  With
``--trace 1`` the repetitions after the first third of the run are traced.
A repetition starts only when it is expected to end within ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from multisecretary import cli, evaluate

from tracing import ROOT_SPAN, Tracer
from workloads import WORKLOADS, load_reference

# Counts that must repeat exactly from one traced repetition to the next.
REPEATABLE_COUNTS = ("dp.cells", "dp.table_bytes", "evaluate.forward_state_steps",
                     "simulate.uniforms", "simulate.episode_steps", "cli.out_bytes")


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


def fits(start: float, limit: float, last: float) -> bool:
    """Whether one more repetition as long as the last ends within ``limit``."""
    return time.perf_counter() - start + last <= limit


class Runner:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.out = work / "out.csv"
        dist = work / "dist.json"
        self.argv = workload.argv(seed, str(dist), str(self.out))
        self.reference = load_reference()
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def repetition(self, main) -> float:
        """One checked CLI call; returns its wall time."""
        evaluate.clear_caches()
        self.out.unlink(missing_ok=True)
        start = time.perf_counter()
        rc = main(self.argv)
        wall = time.perf_counter() - start
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else ""
        check = self.workload.check(rc, text, self.seed, self.reference)
        self.attempted += check.attempted
        self.failed += check.failed
        self.messages.extend(check.messages)
        return wall


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, Path(args.work))
    result = {"env": environment(args.seed), "untraced_wall_s": []}
    start = time.perf_counter()
    untraced_for = args.seconds / 3 if args.trace else args.seconds
    walls = result["untraced_wall_s"]
    while not walls or fits(start, untraced_for, walls[-1]):
        walls.append(runner.repetition(cli.main))
        if "peak_rss_mib" not in result:
            # A user runs the command once per process; later repetitions
            # would add allocator fragmentation that depends on their count.
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        result.update(traced(runner, start, args.seconds))
    result.update(attempted=runner.attempted, failed=runner.failed, messages=runner.messages)
    return result


def traced(runner: Runner, start: float, seconds: float) -> dict:
    """At least two traced repetitions, so counts can be compared."""
    tracer = Tracer()
    tracer.install()
    main = tracer.wrap(ROOT_SPAN, cli.main)
    reps: list = []
    selftest: list = []
    try:
        while len(reps) < 2 or fits(start, seconds, reps[-1]["wall_s"]):
            tracer.reset()
            cpu = time.process_time()
            wall = runner.repetition(main)
            layers = tracer.layer_metrics()
            layers["process.cpu_s"] = time.process_time() - cpu
            layers["cli.out_bytes"] = runner.out.stat().st_size if runner.out.exists() else 0
            reps.append({"wall_s": wall, "self_sum_s": tracer.self_time_sum(),
                         "layers": layers, "spans": tracer.table()})
            if "evaluate._forward_value" not in tracer.absent and \
                    layers["evaluate.forward_calls"] != runner.workload.exact_cells:
                selftest.append(
                    f"repetition {len(reps)}: evaluate.forward_calls = "
                    f"{layers['evaluate.forward_calls']}, expected "
                    f"{runner.workload.exact_cells} (a cached value was reused)")
    finally:
        tracer.uninstall()
    for name in REPEATABLE_COUNTS:
        seen = {rep["layers"][name] for rep in reps}
        if len(seen) != 1:
            selftest.append(f"count {name} differs between traced repetitions: {sorted(seen)}")
    return {"traced": reps, "absent": tracer.absent, "selftest": selftest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory holding dist.json")
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

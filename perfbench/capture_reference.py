"""Capture the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Runs each workload's CLI command once at the reference seed, plus the
mc-sweep cells evaluated exactly, and writes ``reference.json``.  Re-capture
only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from multisecretary import cli

from workloads import (REFERENCE_PATH, REFERENCE_SEED, WORKLOADS, mc_sweep_exact_argv,
                       read_records, write_dist)


def run_cli(argv: list, out: Path) -> str:
    rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with status {rc}")
    return out.read_text(encoding="utf-8")


def cells(text: str) -> list:
    return [{"policy": p, "n": n, "k": k,
             **{key: row[key] for key in ("v_on", "v_off", "regret", "ci_halfwidth",
                                          "error_bound")}}
            for (p, n, k), row in sorted(read_records(text).items())]


def main() -> int:
    reference = {"reference_seed": REFERENCE_SEED}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "out.csv"

        def workload_output(name: str) -> str:
            workload = WORKLOADS[name]
            dist = work / f"{name}.json"
            write_dist(workload, dist)
            return run_cli(workload.argv(REFERENCE_SEED, str(dist), str(out)), out)

        reference["exact-growth"] = cells(workload_output("exact-growth"))
        at_seed = cells(workload_output("mc-sweep"))
        exact = cells(run_cli(mc_sweep_exact_argv(str(work / "mc-sweep.json"), str(out)), out))
        reference["mc-sweep"] = {"exact": exact, "at_reference_seed": at_seed}
        orbit = workload_output("orbit-diagnostics")
        reference["orbit-diagnostics"] = {
            "sha256": hashlib.sha256(orbit.encode()).hexdigest(),
            "bytes": len(orbit.encode()),
        }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: the CLI command each runs and the check of its output.

This module imports nothing from the package under test, so the benchmark's
parent process stays light and the set-up probes measure a cold import.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# MC regrets must match the captured ones, and the diagnostics CSV must be
# byte-identical, only at this seed; at any other seed the looser checks apply.
REFERENCE_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")

U5 = {"support": [2.0, 1.55, 1.1, 0.65, 0.2], "pmf": [0.2] * 5}
# Smallest mass 5/28: at n a multiple of 28 and ratio 11/28, k/n sits exactly on
# the mass point F̄(a_3), the regime where br/dp stay flat and ai, index grow.
MASSPOINT5 = {"support": [1.0, 0.8, 0.7, 0.5, 0.2],
              "pmf": [5 / 28, 6 / 28, 7 / 28, 5 / 28, 5 / 28]}

MC_REPS = 10_000
ORBIT_N = 1000
ORBIT_REPS = 40_000


@dataclass(frozen=True)
class Check:
    attempted: int
    failed: int
    messages: list


@dataclass(frozen=True)
class Workload:
    name: str
    dist: dict
    exact_cells: int                       # cells per repetition that need a forward pass
    argv: Callable[[int, str, str], list]  # (seed, dist path, out path) -> CLI argv
    check: Callable[[int, str, int, dict], Check]  # (rc, CSV text, seed, reference)


def exact_growth_argv(seed: int, dist: str, out: str) -> list:
    # The CLI sorts its cells, so the seed only reorders the lists it is given.
    rng = random.Random(seed)
    policies = ["br", "dp", "ai", "index"]
    n_list = ["4004", "16016"]
    rng.shuffle(policies)
    rng.shuffle(n_list)
    return ["sweep-n", "--dist", dist, "--n-list", ",".join(n_list), "--ratio", repr(11 / 28),
            "--policies", ",".join(policies), "--out", out]


def mc_sweep_argv(seed: int, dist: str, out: str) -> list:
    return ["sweep-k", "--dist", dist, "--n", "1000", "--k-range", "100:500:200",
            "--policies", "br,dp,ai", "--mc", "--reps", str(MC_REPS), "--seed", str(seed),
            "--out", out]


def mc_sweep_exact_argv(dist: str, out: str) -> list:
    """The same cells as mc-sweep, evaluated exactly (for the reference)."""
    return ["sweep-k", "--dist", dist, "--n", "1000", "--k-range", "100:500:200",
            "--policies", "br,dp,ai", "--out", out]


def orbit_argv(seed: int, dist: str, out: str) -> list:
    return ["diagnostics", "--dist", dist, "--n", str(ORBIT_N), "--k", "300", "--delta", "0.05",
            "--policy", "br", "--reps", str(ORBIT_REPS), "--seed", str(seed), "--out", out]


def read_records(text: str) -> dict:
    """Regret CSV rows keyed by (policy, n, k)."""
    lines = text.splitlines()
    if not lines:
        return {}
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key in ("v_on", "v_off", "regret", "ci_halfwidth", "error_bound"):
            row[key] = float(row[key])
        rows[(row["policy"], int(row["n"]), int(row["k"]))] = row
    return rows


def _cell_key(cell: dict) -> tuple:
    return (cell["policy"], cell["n"], cell["k"])


def _check_cells(rc: int, text: str, expected: list, judge) -> Check:
    """Judge each expected cell; a missing cell failed.  ``judge(row, ref)``
    returns an error message or None."""
    try:
        got = read_records(text)
    except (KeyError, ValueError) as exc:
        return Check(len(expected), len(expected), [f"unreadable CSV: {exc}"])
    messages = []
    for ref in expected:
        row = got.get(_cell_key(ref))
        why = "missing" if row is None else judge(row, ref)
        if why:
            messages.append(f"cell {_cell_key(ref)}: {why}")
    if rc != 0 and not messages:
        messages = [f"exit status {rc} with every cell present"] * len(expected)
    return Check(len(expected), len(messages), messages)


def check_exact_growth(rc: int, text: str, seed: int, reference: dict) -> Check:
    def judge(row, ref):
        if row["method"] != "exact":
            return f"method {row['method']!r}"
        for key in ("v_on", "v_off"):
            if abs(row[key] - ref[key]) > ref["error_bound"] + 1e-9 * abs(ref[key]):
                return f"{key} {row[key]!r} != reference {ref[key]!r}"
        return None

    return _check_cells(rc, text, reference["exact-growth"], judge)


def check_mc_sweep(rc: int, text: str, seed: int, reference: dict) -> Check:
    at_reference = {_cell_key(c): c for c in reference["mc-sweep"]["at_reference_seed"]}

    def judge(row, exact):
        if row["method"] != "mc":
            return f"method {row['method']!r}"
        if seed == REFERENCE_SEED:
            ref = at_reference[_cell_key(exact)]["regret"]
            if abs(row["regret"] - ref) > 1e-9 * abs(ref):
                return f"regret {row['regret']!r} != reference {ref!r} at the reference seed"
        slack = 3.0 * row["ci_halfwidth"] + exact["error_bound"] + 1e-9 * abs(exact["v_off"])
        if abs(row["regret"] - exact["regret"]) > slack:
            return (f"regret {row['regret']!r} is more than 3 CI half-widths from the exact "
                    f"{exact['regret']!r}")
        return None

    return _check_cells(rc, text, reference["mc-sweep"]["exact"], judge)


def check_orbit(rc: int, text: str, seed: int, reference: dict) -> Check:
    def fail(why):
        return Check(1, 1, [why])

    if rc != 0:
        return fail(f"exit status {rc}")
    if seed == REFERENCE_SEED:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != reference["orbit-diagnostics"]["sha256"]:
            return fail("CSV differs from the reference bytes at the reference seed")
    lines = text.splitlines()
    if not lines or lines[0] != "rep,tau0,j_tau0,tau,n_minus_tau":
        return fail("bad header")
    if len(lines) != ORBIT_REPS + 1:
        return fail(f"{len(lines) - 1} rows, expected {ORBIT_REPS}")
    m = len(U5["support"])
    for expect_rep, line in enumerate(lines[1:]):
        try:
            rep, tau0, j, tau, left = (int(x) for x in line.split(","))
        except ValueError:
            return fail(f"unreadable row {line!r}")
        if not (rep == expect_rep and 0 <= tau0 <= tau <= ORBIT_N and 1 <= j <= m + 1
                and left == ORBIT_N - tau):
            return fail(f"row violates 0 <= tau0 <= tau <= n, 1 <= j_tau0 <= m+1: {line!r}")
    return Check(1, 0, [])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-growth", MASSPOINT5, 8, exact_growth_argv, check_exact_growth),
        Workload("mc-sweep", U5, 0, mc_sweep_argv, check_mc_sweep),
        Workload("orbit-diagnostics", U5, 0, orbit_argv, check_orbit),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_dist(workload: Workload, path: Path) -> None:
    path.write_text(json.dumps(workload.dist) + "\n", encoding="utf-8")

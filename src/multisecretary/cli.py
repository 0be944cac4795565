"""Command-line front end for the experiment families.

Every command writes a CSV plus a JSON manifest alongside it; re-running a
command with the same inputs and seed reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .distribution import (
    AbilityDistribution,
    half_min_mass,
    load_distribution,
    new_distribution,
    thresholds,
)
from .errors import BadEpsilon, ModelError
from .evaluate import sweep, write_records
from .policies import POLICY_NAMES, make_policy
from .simulate import (
    RNG_FAMILY,
    check_reps,
    orbit_stats,
    ratio_mean_curve,
    run_episode,
)


def kleinberg_distribution(epsilon: float) -> AbilityDistribution:
    """Three-point instance on {3, 2, 1} whose middle mass shrinks with epsilon."""
    if not 0.0 < epsilon < 0.125:
        raise BadEpsilon(
            f"epsilon must lie in (0, 0.125) to keep the top mass positive, got {epsilon}"
        )
    return new_distribution(
        [3.0, 2.0, 1.0], [0.5 - 4.0 * epsilon, 2.0 * epsilon, 0.5 + 2.0 * epsilon]
    )


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _parse_policies(text: str) -> list[str]:
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ModelError("at least one policy name is required")
    for name in names:
        if name not in POLICY_NAMES and not name.startswith("matrix:"):
            raise ModelError(
                f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)} or matrix:<file>"
            )
    return names


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ModelError(f"expected A:B:STEP, got {text!r}")
    try:
        a, b, step = (int(p) for p in parts)
    except ValueError:
        raise ModelError(f"expected integers A:B:STEP, got {text!r}") from None
    if step <= 0 or b < a:
        raise ModelError(f"range {text!r} must have A <= B and STEP > 0")
    return list(range(a, b + 1, step))


def _parse_list(text: str, cast) -> list:
    try:
        values = [cast(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ModelError(f"expected comma-separated {cast.__name__} values, got {text!r}") from None
    if not values:
        raise ModelError(f"expected at least one {cast.__name__} value, got {text!r}")
    return values


def _check_seeds(seeds: list) -> list:
    if min(seeds) < 0:
        raise ModelError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds


def _write_manifest(out: str, command: str, dist: AbilityDistribution | None,
                    seed, grid, started: float) -> None:
    manifest = {
        "command": command,
        "dist_sha": dist.content_hash() if dist is not None else None,
        "seed": seed,
        "grid": grid,
        "version": __version__,
        "rng": RNG_FAMILY,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    with open(str(out) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_failures(failures) -> int:
    for (name, n, k), exc in failures:
        print(f"cell policy={name} n={n} k={k} failed: {exc}", file=sys.stderr)
    return 1 if failures else 0


def _sweep_mode(args) -> str:
    if args.mc:
        check_reps(args.reps)
        return "mc"
    return "exact"


def cmd_sweep_k(args) -> int:
    started = time.perf_counter()
    d = load_distribution(args.dist)
    ks = _parse_range(args.k_range)
    names = _parse_policies(args.policies)
    grid = [(args.n, k) for k in ks]
    mode = _sweep_mode(args)
    records, failures = sweep(d, names, grid, mode, args.reps, args.seed)
    write_records(records, args.out)
    _write_manifest(args.out, "sweep-k", d, args.seed,
                    {"n": args.n, "k_range": args.k_range, "policies": names, "mode": mode},
                    started)
    return _report_failures(failures)


def cmd_sweep_n(args) -> int:
    started = time.perf_counter()
    d = load_distribution(args.dist)
    ns = _parse_list(args.n_list, int)
    names = _parse_policies(args.policies)
    if not all(math.isfinite(args.ratio * n) for n in ns):
        raise ModelError(f"ratio * n must be finite, got ratio {args.ratio}")
    grid = [(n, round_half_up(args.ratio * n)) for n in ns]
    mode = _sweep_mode(args)
    records, failures = sweep(d, names, grid, mode, args.reps, args.seed)
    write_records(records, args.out)
    _write_manifest(args.out, "sweep-n", d, args.seed,
                    {"n_list": ns, "ratio": args.ratio, "k_list": [k for _, k in grid],
                     "policies": names, "mode": mode},
                    started)
    return _report_failures(failures)


def cmd_kleinberg(args) -> int:
    started = time.perf_counter()
    epsilons = _parse_list(args.epsilons, float)
    names = _parse_policies(args.policies)
    cells = []
    for eps in epsilons:  # every epsilon is checked before the first sweep
        d = kleinberg_distribution(eps)
        try:
            n = math.ceil(1.0 / eps**2)
        except (ZeroDivisionError, OverflowError):  # eps**2 underflows to 0, or 1/eps**2 to inf
            raise BadEpsilon(f"epsilon {eps!r} is too small: 1/epsilon^2 is not finite") from None
        cells.append((eps, d, n, math.ceil(n / 2)))
    records, failures = [], []
    for _, d, n, k in cells:
        got, failed = sweep(d, names, [(n, k)])
        records += got
        failures += failed
    write_records(records, args.out)
    grid_note = [{"epsilon": eps, "n": n, "k": k} for eps, _, n, k in cells]
    _write_manifest(args.out, "kleinberg", None, args.seed, grid_note, started)
    return _report_failures(failures)


def cmd_paths(args) -> int:
    started = time.perf_counter()
    d = load_distribution(args.dist)
    names = _parse_policies(args.policies)
    seeds = _check_seeds(_parse_list(args.seeds, int))
    base = str(args.out)
    stem, suffix = os.path.splitext(base)
    suffix = suffix or ".csv"
    for name in names:
        policy = make_policy(name, d, args.n, args.k)
        for seed in seeds:
            record = run_episode(d, policy, args.n, args.k, seed)
            path = f"{stem}_{name}_seed{seed}{suffix}"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("t,ability_index,decision,K_t,R_t\n")
                for t in range(1, args.n + 1):
                    ratio = f"{record.budget_path[t] / (args.n - t):.12g}" if t < args.n else ""
                    fh.write(
                        f"{t},{record.abilities[t - 1]},{int(record.decisions[t - 1])},"
                        f"{record.budget_path[t]},{ratio}\n"
                    )
    _write_manifest(base, "paths", d, seeds,
                    {"n": args.n, "k": args.k, "policies": names}, started)
    return 0


def cmd_ratio_mean(args) -> int:
    started = time.perf_counter()
    d = load_distribution(args.dist)
    names = _parse_policies(args.policies)
    check_reps(args.reps)
    curves = {
        name: ratio_mean_curve(
            d, make_policy(name, d, args.n, args.k), args.n, args.k, args.reps, args.seed
        )
        for name in sorted(names)
    }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("policy,t,mean_ratio,mean_budget\n")
        for name, (mean_ratio, mean_budget) in curves.items():
            for t in range(args.n):
                fh.write(f"{name},{t},{mean_ratio[t]:.12g},{mean_budget[t]:.12g}\n")
    _write_manifest(args.out, "ratio-mean", d, args.seed,
                    {"n": args.n, "k": args.k, "reps": args.reps, "policies": names}, started)
    return 0


def cmd_diagnostics(args) -> int:
    started = time.perf_counter()
    d = load_distribution(args.dist)
    check_reps(args.reps)
    policy = make_policy(args.policy, d, args.n, args.k)
    sample = orbit_stats(d, policy, args.n, args.k, args.delta, args.reps, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rep,tau0,j_tau0,tau,n_minus_tau\n")
        for rep in range(args.reps):
            fh.write(
                f"{rep},{sample.tau0[rep]},{sample.j_tau0[rep]},{sample.tau[rep]},"
                f"{args.n - sample.tau[rep]}\n"
            )
    _write_manifest(args.out, "diagnostics", d, args.seed,
                    {"n": args.n, "k": args.k, "delta": args.delta, "reps": args.reps,
                     "policy": args.policy},
                    started)
    return 0


def cmd_validate(args) -> int:
    d = load_distribution(args.dist)
    thr = thresholds(d)
    m = d.m
    payload = {
        "m": m,
        "support": [float(a) for a in d.support],
        "pmf": [float(f) for f in d.pmf],
        "survival": [float(s) for s in d.survival_values],
        "epsilon": half_min_mass(d),
        "mean": d.mean(),
        "thresholds": [float(t) if np.isfinite(t) else None for t in thr],
        "j0_intervals": [
            {"j": j, "from": float(thr[j - 1]),
             "to": float(thr[j]) if np.isfinite(thr[j]) else None}
            for j in range(1, m + 1)
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"m = {m}, mean = {d.mean():.6g}, epsilon = {half_min_mass(d):.6g}")
    print("  j      a_j      f_j   F̄(a_j)      T_j")
    for j in range(1, m + 1):
        print(
            f"{j:3d} {d.support[j - 1]:8.4g} {d.pmf[j - 1]:8.4g} "
            f"{d.survival_values[j - 1]:8.4g} {thr[j - 1]:8.4g}"
        )
    print(f"    F̄(a_{m + 1}) = 1, T_{m + 1} = inf")
    print("j0 by budget ratio k/n:")
    for j in range(1, m + 1):
        hi = f"{thr[j]:.6g}" if np.isfinite(thr[j]) else "inf"
        print(f"  [{thr[j - 1]:.6g}, {hi}) -> j0 = {j}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisecretary",
        description="Online selection policies for the finite-support multi-secretary problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dist=True):
        if dist:
            p.add_argument("--dist", required=True, help="distribution JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("sweep-k", help="regret versus budget at a fixed horizon")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-range", required=True, help="A:B:STEP, endpoints inclusive")
    p.add_argument("--policies", required=True, help="comma-separated policy names")
    p.add_argument("--mc", action="store_true", help="Monte Carlo instead of exact")
    p.add_argument("--reps", type=int, default=10_000)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("sweep-n", help="regret versus horizon at a fixed budget ratio")
    add_common(p)
    p.add_argument("--n-list", required=True, help="comma-separated horizons")
    p.add_argument("--ratio", type=float, required=True, help="k/n, rounded half-up")
    p.add_argument("--policies", required=True)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--reps", type=int, default=10_000)
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("kleinberg", help="regret on the shrinking-mass three-point family")
    add_common(p, dist=False)
    p.add_argument("--epsilons", required=True, help="comma-separated epsilons in (0, 0.125)")
    p.add_argument("--policies", default="dp,br")
    p.set_defaults(func=cmd_kleinberg)

    p = sub.add_parser("paths", help="single sample paths with shared random numbers")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--policies", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds, one file each")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("ratio-mean", help="averaged ratio and budget trajectories")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--policies", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.set_defaults(func=cmd_ratio_mean)

    p = sub.add_parser("diagnostics", help="orbit entry/exit times per replication")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--policy", default="br")
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("validate", help="print derived quantities of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in args:
            _check_seeds([args.seed])
        return args.func(args)
    except (ModelError, json.JSONDecodeError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

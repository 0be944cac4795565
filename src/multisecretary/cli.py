"""Command-line front end for the experiment families.

Every command but ``validate`` writes a CSV, and ``main`` writes a JSON
manifest alongside it; re-running a command with the same inputs and seed
reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .distribution import (
    half_min_mass,
    kleinberg_distribution,
    load_distribution,
    thresholds,
)
from .errors import BadEpsilon, ModelError
from .evaluate import ratio_mean_curve, sweep, write_csv, write_records
from .policies import POLICY_NAMES, make_policy
from .simulate import (
    RNG_FAMILY,
    check_reps,
    orbit_stats,
    orbit_thresholds,
    run_episode,
)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _parse_policies(text: str) -> list[str]:
    """The policy names of ``text``, the first of any repeats kept, in order;
    at most one ``matrix:`` policy, since each is named ``matrix``."""
    names = _parse_list(text, str)
    for name in names:
        if name not in POLICY_NAMES and not name.startswith("matrix:"):
            raise ModelError(
                f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)} or matrix:<file>"
            )
    matrices = [name for name in names if name.startswith("matrix:")]
    if len(matrices) > 1:
        raise ModelError(f"policies {matrices[0]!r} and {matrices[1]!r} would both write "
                         f"output named 'matrix'; give at most one matrix: policy")
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
    """The values of ``text``, the first of any repeats kept, in order."""
    try:
        values = list(dict.fromkeys(cast(p.strip()) for p in text.split(",") if p.strip()))
    except ValueError:
        raise ModelError(f"expected comma-separated {cast.__name__} values, got {text!r}") from None
    if not values:
        raise ModelError(f"expected at least one {cast.__name__} value, got {text!r}")
    return values


def _check_seeds(seeds: list) -> list:
    if min(seeds) < 0:
        raise ModelError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds


def _regret(out, names, runs, mode="exact", reps=10_000, seed=0) -> int:
    """The body of sweep-k, sweep-n and kleinberg once each has built its
    cells: sweep every (distribution, cells) pair of ``runs``, write all the
    records to ``out`` and list each failing cell; the exit status."""
    records, failures = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # RegretRecord fails a non-finite cell
        for d, cells in runs:
            got, failed = sweep(d, names, cells, mode, reps, seed)
            records += got
            failures += failed
    write_records(records, out)
    for (name, n, k), exc in failures:
        print(f"cell policy={name} n={n} k={k} failed: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_sweep_k(args):
    cells = [(args.n, k) for k in _parse_range(args.k_range)]
    mode = "mc" if args.mc else "exact"
    status = _regret(args.out, args.policies, [(args.dist, cells)], mode, args.reps, args.seed)
    seed = args.seed if mode == "mc" else None  # an exact sweep reads no seed
    return status, seed, {"n": args.n, "k_range": args.k_range, "policies": args.policies,
                          "mode": mode}


def cmd_sweep_n(args):
    ns = _parse_list(args.n_list, int)
    if not all(math.isfinite(args.ratio * n) for n in ns):
        raise ModelError(f"ratio * n must be finite, got ratio {args.ratio}")
    cells = [(n, round_half_up(args.ratio * n)) for n in ns]
    mode = "mc" if args.mc else "exact"
    status = _regret(args.out, args.policies, [(args.dist, cells)], mode, args.reps, args.seed)
    seed = args.seed if mode == "mc" else None
    return status, seed, {"n_list": ns, "ratio": args.ratio, "k_list": [k for _, k in cells],
                          "policies": args.policies, "mode": mode}


def cmd_kleinberg(args):
    epsilons = _parse_list(args.epsilons, float)
    runs, grid, eps_at = [], [], {}
    for eps in epsilons:  # every epsilon is checked before the first sweep
        d = kleinberg_distribution(eps)
        try:
            n = math.ceil(1.0 / eps**2)
        except (ZeroDivisionError, OverflowError):  # eps**2 underflows to 0, or 1/eps**2 to inf
            raise BadEpsilon(f"epsilon {eps!r} is too small: 1/epsilon^2 is not finite") from None
        if n in eps_at:  # their rows would share (policy, n, k)
            raise BadEpsilon(f"epsilons {eps_at[n]!r} and {eps!r} both give n={n}")
        eps_at[n] = eps
        k = math.ceil(n / 2)
        runs.append((d, [(n, k)]))
        grid.append({"epsilon": eps, "n": n, "k": k})
    return _regret(args.out, args.policies, runs), None, grid


def cmd_paths(args):
    seeds = _check_seeds(_parse_list(args.seeds, int))
    stem, suffix = os.path.splitext(str(args.out))
    suffix = suffix or ".csv"
    # every policy is built before the first is played; run_episode checks each cell
    for policy in [make_policy(name, args.dist, args.n, args.k) for name in args.policies]:
        for seed in seeds:
            record = run_episode(policy, args.n, args.k, seed)
            ratio = [f"{r:.12g}" for r in record.ratio_path[1:]] + [""]  # no R_n
            rows = (f"{t + 1},{record.abilities[t]},{int(record.decisions[t])},"
                    f"{record.budget_path[t + 1]},{ratio[t]}" for t in range(args.n))
            write_csv(f"{stem}_{policy.name}_seed{seed}{suffix}",
                      "t,ability_index,decision,K_t,R_t", rows)
    return 0, seeds, {"n": args.n, "k": args.k, "policies": args.policies}


def cmd_ratio_mean(args):
    # a spec sorts where its policy's name does, matrix:<file> as matrix
    policies = [make_policy(name, args.dist, args.n, args.k) for name in sorted(args.policies)]
    curves = {policy.name: ratio_mean_curve(policy, args.n, args.k) for policy in policies}
    write_csv(args.out, "policy,t,mean_ratio,mean_budget",
              (f"{name},{t},{mean_ratio[t]:.12g},{mean_budget[t]:.12g}"
               for name, (mean_ratio, mean_budget) in curves.items() for t in range(args.n)))
    return 0, None, {"n": args.n, "k": args.k, "policies": args.policies}


def cmd_diagnostics(args):
    orbit_thresholds(args.dist, args.delta)  # a bad delta exits before any policy is built
    policy = make_policy(args.policy, args.dist, args.n, args.k)
    sample = orbit_stats(policy, args.n, args.k, args.delta, args.reps, args.seed)
    rows = zip(sample.tau0.tolist(), sample.j_tau0.tolist(), sample.tau.tolist())
    write_csv(args.out, "rep,tau0,j_tau0,tau,n_minus_tau",
              (f"{rep},{tau0},{j},{tau},{args.n - tau}" for rep, (tau0, j, tau) in enumerate(rows)))
    return 0, args.seed, {"n": args.n, "k": args.k, "delta": args.delta, "reps": args.reps,
                          "policy": args.policy}


def cmd_validate(args) -> None:
    d = args.dist
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
        return
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisecretary",
        description="Online selection policies for the finite-support multi-secretary problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def option(*flags, **kwargs):
        """A parent parser holding one option, for the commands that share it."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kwargs)
        return p

    dist = option("--dist", required=True, help="distribution JSON file")
    out = option("--out", required=True, help="output CSV path")
    seed = option("--seed", type=int, default=0)
    n = option("--n", type=int, required=True)
    k = option("--k", type=int, required=True)
    policies = option("--policies", required=True, help="comma-separated policy names")
    mc = option("--mc", action="store_true", help="Monte Carlo instead of exact")
    mc_reps = option("--reps", type=int, default=10_000)

    p = sub.add_parser("sweep-k", parents=[dist, seed, out, n, policies, mc, mc_reps],
                       help="regret versus budget at a fixed horizon")
    p.add_argument("--k-range", required=True, help="A:B:STEP, endpoints inclusive")
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("sweep-n", parents=[dist, seed, out, policies, mc, mc_reps],
                       help="regret versus horizon at a fixed budget ratio")
    p.add_argument("--n-list", required=True, help="comma-separated horizons")
    p.add_argument("--ratio", type=float, required=True, help="k/n, rounded half-up")
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("kleinberg", parents=[out],
                       help="regret on the shrinking-mass three-point family")
    p.add_argument("--epsilons", required=True, help="comma-separated epsilons in (0, 0.125)")
    p.add_argument("--policies", default="dp,br")
    p.set_defaults(func=cmd_kleinberg)

    p = sub.add_parser("paths", parents=[dist, out, n, k, policies],
                       help="single sample paths with shared random numbers")
    p.add_argument("--seeds", required=True, help="comma-separated seeds, one file each")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("ratio-mean", parents=[dist, out, n, k, policies],
                       help="exact mean ratio and budget trajectories")
    p.set_defaults(func=cmd_ratio_mean)

    p = sub.add_parser("diagnostics", parents=[dist, seed, out, n, k],
                       help="orbit entry/exit times per replication")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--policy", default="br")
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("validate", parents=[dist], help="print derived quantities of a distribution")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    """Run one command.  The shared flags are checked first, cheapest first, so bad input
    exits 2 before any work: ``--seed``, ``--reps``, ``--out`` (its directory exists and it
    is no directory), then ``--dist`` is loaded and ``--policies`` parsed in place.  Each
    file-writing ``cmd_*`` returns its exit status, seed and grid for ``<out>.manifest.json``."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if "seed" in args:
            _check_seeds([args.seed])
        if "reps" in args:
            check_reps(args.reps)
        if "out" in args and os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
        if "out" in args and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        if "dist" in args:
            args.dist = load_distribution(args.dist)
        if "policies" in args:
            args.policies = _parse_policies(args.policies)
        written = args.func(args)
        if written is None:  # validate prints and writes no file
            return 0
        status, seed, grid = written
        manifest = {
            "command": args.command,
            "dist_sha": args.dist.content_hash() if "dist" in args else None,
            "seed": seed,
            "grid": grid,
            "version": __version__,
            "rng": RNG_FAMILY,
            "wall_time_s": round(time.perf_counter() - started, 3),
        }
        with open(str(args.out) + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return status
    except (ModelError, json.JSONDecodeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

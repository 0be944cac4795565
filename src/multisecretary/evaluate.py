"""Exact and Monte Carlo evaluation of policies against the offline benchmark.

The exact route propagates the budget distribution forward in time
(Chapman-Kolmogorov over the (t, budget) chain induced by any state-Markov
policy), integrating the policy's randomization in closed form through its
``rates`` hook; edge budget cells below a fixed share of ``TAIL_TOL`` are
trimmed, and what they could still earn is the record's ``error_bound``.
The Monte Carlo route pairs each sampled path's policy payoff with the
posterior sort on the same realization; a sweep's Monte Carlo cells at one
n share every block of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distribution import AbilityDistribution
from .errors import NonMarkovPolicy, ProbabilityDrift, check_pair
from .offline import offline_expectation
from .policies import make_policy
from .simulate import check_cell, paired_payoffs_cells

DRIFT_LIMIT = 1e-9
TAIL_TOL = 1e-12  # the forward window's total trimmed-mass budget

CSV_HEADER = "policy,n,k,method,v_on,v_off,regret,ci_halfwidth,error_bound"


def clear_caches() -> None:
    """Does nothing: the package keeps no cache.  Kept for callers that reset
    state between repetitions."""


@dataclass(frozen=True)
class RegretRecord:
    """One evaluated cell: policy value, offline benchmark, and their gap.

    For exact cells ``error_bound`` is the forward pass's window-truncation
    bound (the offline value omits nothing); for Monte Carlo cells it is 0
    and ``ci_halfwidth`` carries the sampling error.
    """

    policy: str
    n: int
    k: int
    method: str            # "exact" or "mc"
    v_on: float
    v_off: float
    regret: float
    ci_halfwidth: float = 0.0
    error_bound: float = 0.0


def _forward_value(d: AbilityDistribution, policy, n: int, k: int) -> tuple[float, float, float]:
    """Expected payoff of a state-Markov policy, the worst probability drift
    observed while propagating, and a bound on the payoff of trimmed mass.

    Only the budget window ``[lo, hi]`` that carries mass is propagated.
    Selection moves mass down one cell per step, so ``lo`` widens by one;
    edge cells holding less than ``TAIL_TOL / (n (k + 1))`` are then dropped,
    each adding ``a_1 * mass * min(budget, periods left)`` (the most that mass
    could still earn) to the truncation bound.  The returned value
    underestimates the untruncated one by at most that bound.

    Raises:
        ProbabilityDrift: at a check (every 512 steps and the last), the
            window holds a negative or non-finite cell, or its mass plus the
            dropped mass differs from 1 by more than ``DRIFT_LIMIT``.
    """
    if not hasattr(policy, "rates"):
        raise NonMarkovPolicy(
            f"policy {getattr(policy, 'name', policy)!r} exposes no selection-rate hook"
        )
    check_pair(n, k)
    policy.check(n, k)
    budgets = np.arange(k + 1)
    prob = np.zeros(k + 1)
    prob[k] = 1.0
    lo = hi = k
    trim_below = TAIL_TOL / (n * (k + 1)) if n else 0.0
    top = float(d.support[0])
    dropped = 0.0  # probability mass trimmed off the window
    truncation = 0.0
    value = 0.0
    comp = 0.0  # Kahan compensation for the payoff accumulator
    max_drift = 0.0
    for t_next in range(1, n + 1):
        sel, gain = policy.rates(t_next, n, budgets[lo : hi + 1])
        if lo == 0 and sel[0] != 0.0:
            raise NonMarkovPolicy(f"policy {policy.name!r} selects with zero budget")
        window = prob[lo : hi + 1]
        term = float(window @ gain) - comp
        total = value + term
        comp = (total - value) - term
        value = total
        move = window * sel
        window -= move
        if lo > 0:
            lo -= 1
            prob[lo:hi] += move
        else:
            prob[:hi] += move[1:]
        left = n - t_next
        while hi > lo and 0.0 <= prob[hi] < trim_below:
            mass = float(prob[hi])
            dropped += mass
            truncation += top * mass * min(hi, left)
            prob[hi] = 0.0
            hi -= 1
        while lo < hi and 0.0 <= prob[lo] < trim_below:
            mass = float(prob[lo])
            dropped += mass
            truncation += top * mass * min(lo, left)
            prob[lo] = 0.0
            lo += 1
        if t_next % 512 == 0 or t_next == n:
            window = prob[lo : hi + 1]
            drift = abs(float(window.sum()) + dropped - 1.0)
            if not drift <= DRIFT_LIMIT:
                raise ProbabilityDrift(
                    f"policy {policy.name!r} drifted {drift!r} from unit mass at t={t_next}"
                )
            if not np.all(np.isfinite(window)) or float(window.min()) < 0.0:
                raise ProbabilityDrift(
                    f"policy {policy.name!r} produced a negative or non-finite "
                    f"probability at t={t_next}"
                )
            max_drift = max(max_drift, drift)
    return value, max_drift, truncation


def exact_regret(d: AbilityDistribution, policy, n: int, k: int) -> RegretRecord:
    off = offline_expectation(d, n, k)
    v_on, _, truncation = _forward_value(d, policy, n, k)
    return RegretRecord(
        policy=policy.name,
        n=n,
        k=k,
        method="exact",
        v_on=v_on,
        v_off=off.value,
        regret=off.value - v_on,
        ci_halfwidth=0.0,
        error_bound=truncation,
    )


def _mc_record(name: str, n: int, k: int, online: np.ndarray, offline: np.ndarray) -> RegretRecord:
    reps = online.size
    diff = offline - online
    sd = float(np.std(diff, ddof=1)) if reps > 1 else 0.0
    return RegretRecord(
        policy=name,
        n=n,
        k=k,
        method="mc",
        v_on=float(np.mean(online)),
        v_off=float(np.mean(offline)),
        regret=float(np.mean(diff)),
        ci_halfwidth=1.96 * sd / math.sqrt(reps),
        error_bound=0.0,
    )


def _mc_cells(d: AbilityDistribution, n: int, cells, reps: int, seed: int) -> dict:
    """Monte Carlo records of the (policy, n, k) cells at one ``n``, from one
    pass whose blocks every cell shares; maps each cell to its record or
    exception.  Build and ``check_cell`` failures are reported before the
    pass; an exception inside it fails every cell it ran."""
    out, built = {}, []
    for cell in cells:
        try:
            policy = make_policy(cell[0], d, n, cell[2])
            check_cell(policy, n, cell[2], reps)
            built.append((cell, policy))
        except Exception as exc:
            out[cell] = exc
    try:
        got = paired_payoffs_cells(d, n, [(policy, cell[2]) for cell, policy in built], reps, seed)
        for (cell, policy), pair in zip(built, got):
            out[cell] = _mc_record(policy.name, n, cell[2], *pair)
    except Exception as exc:  # the pass itself failed: every cell it ran fails
        out.update((cell, exc) for cell, _ in built)
    return out


def sweep(
    d: AbilityDistribution,
    policy_names: Sequence[str],
    grid: Iterable[tuple[int, int]],
    mode: str = "exact",
    reps: int = 10_000,
    seed: int = 0,
) -> tuple[list[RegretRecord], list]:
    """Evaluate every (policy, n, k) cell; records and failures come in
    (policy, n, k) order.

    A cell that raises is skipped and the sweep goes on; returns the records
    and the failures as ``((policy, n, k), exception)`` pairs.  Exact cells
    run one at a time, so a DP table is freed before the next cell builds
    its own.  Monte Carlo cells run one pass per n: every policy of that n
    is built and checked first, and all of them step over each block of
    draws; an exception inside a pass fails every cell of that n.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    cells = sorted((name, n, k) for name in policy_names for (n, k) in grid)
    results = {}
    if mode == "exact":
        for cell in cells:
            name, n, k = cell
            try:
                results[cell] = exact_regret(d, make_policy(name, d, n, k), n, k)
            except Exception as exc:  # enumerate failing cells, keep going
                results[cell] = exc
    else:
        for n in sorted({cell[1] for cell in cells}):
            results.update(_mc_cells(d, n, [c for c in cells if c[1] == n], reps, seed))
    records = [results[c] for c in cells if not isinstance(results[c], Exception)]
    failures = [(c, results[c]) for c in cells if isinstance(results[c], Exception)]
    return records, failures


def format_record(rec: RegretRecord) -> str:
    floats = (rec.v_on, rec.v_off, rec.regret, rec.ci_halfwidth, rec.error_bound)
    return ",".join(
        [rec.policy, str(rec.n), str(rec.k), rec.method] + [f"{x:.12g}" for x in floats]
    )


def write_records(records: Sequence[RegretRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(format_record(rec) + "\n")

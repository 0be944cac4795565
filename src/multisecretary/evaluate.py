"""Exact and Monte Carlo evaluation of policies against the offline benchmark.

The exact route propagates the budget distribution forward in time
(Chapman-Kolmogorov over the (t, budget) chain induced by any state-Markov
policy), integrating the policy's randomization in closed form through its
``rates`` hook.  The Monte Carlo route pairs each sampled path's policy
payoff with the posterior sort on the same realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distribution import AbilityDistribution
from .errors import InfeasiblePair, NonMarkovPolicy
from .offline import OfflineValue, offline_expectation
from .policies import make_policy
from .simulate import paired_payoffs

DRIFT_LIMIT = 1e-9

CSV_HEADER = "policy,n,k,method,v_on,v_off,regret,ci_halfwidth,error_bound"

_offline_cache: dict = {}
_value_cache: dict = {}


def clear_caches() -> None:
    _offline_cache.clear()
    _value_cache.clear()


def _cached_offline(d: AbilityDistribution, n: int, k: int, tail_tol: float) -> OfflineValue:
    key = (d.content_hash(), n, k, tail_tol)
    got = _offline_cache.get(key)
    if got is None:
        got = offline_expectation(d, n, k, tail_tol)
        _offline_cache[key] = got
    return got


@dataclass(frozen=True)
class RegretRecord:
    """One evaluated cell: policy value, offline benchmark, and their gap."""

    policy: str
    n: int
    k: int
    method: str            # "exact" or "mc"
    v_on: float
    v_off: float
    regret: float
    ci_halfwidth: float = 0.0
    error_bound: float = 0.0


def _forward_value(d: AbilityDistribution, policy, n: int, k: int) -> tuple[float, float]:
    """Expected payoff of a state-Markov policy, plus the worst probability
    drift observed while propagating (must stay below DRIFT_LIMIT)."""
    if not hasattr(policy, "rates"):
        raise NonMarkovPolicy(
            f"policy {getattr(policy, 'name', policy)!r} exposes no selection-rate hook"
        )
    if n < 0 or not 0 <= k <= n:
        raise InfeasiblePair(f"(n={n}, k={k}) is not a feasible pair")
    budgets = np.arange(k + 1)
    prob = np.zeros(k + 1)
    prob[k] = 1.0
    value = 0.0
    comp = 0.0  # Kahan compensation for the payoff accumulator
    max_drift = 0.0
    for t_next in range(1, n + 1):
        sel, gain = policy.rates(t_next, n, budgets)
        if sel[0] != 0.0:
            raise NonMarkovPolicy(f"policy {policy.name!r} selects with zero budget")
        term = float(prob @ gain) - comp
        total = value + term
        comp = (total - value) - term
        value = total
        move = prob * sel
        prob -= move
        prob[:-1] += move[1:]
        if t_next % 512 == 0 or t_next == n:
            drift = abs(float(prob.sum()) - 1.0)
            max_drift = max(max_drift, drift)
            if drift > DRIFT_LIMIT:
                prob /= prob.sum()
    return value, max_drift


def exact_policy_value(d: AbilityDistribution, policy, n: int, k: int) -> float:
    """V_on of the policy, computed exactly (no sampling)."""
    cache_key = getattr(policy, "cache_key", None)
    if cache_key is not None:
        key = (d.content_hash(), cache_key, n, k)
        got = _value_cache.get(key)
        if got is not None:
            return got
    value, _ = _forward_value(d, policy, n, k)
    if cache_key is not None:
        _value_cache[key] = value
    return value


def exact_regret(
    d: AbilityDistribution, policy, n: int, k: int, tail_tol: float = 1e-12
) -> RegretRecord:
    off = _cached_offline(d, n, k, tail_tol)
    v_on = exact_policy_value(d, policy, n, k)
    return RegretRecord(
        policy=policy.name,
        n=n,
        k=k,
        method="exact",
        v_on=v_on,
        v_off=off.value,
        regret=off.value - v_on,
        ci_halfwidth=0.0,
        error_bound=off.error_bound,
    )


def mc_regret(
    d: AbilityDistribution, policy, n: int, k: int, reps: int, seed: int
) -> RegretRecord:
    """Paired estimator: average of (offline - online) over shared paths.

    Pathwise dominance of the posterior sort makes every summand
    non-negative, so the estimate is too.
    """
    online, offline = paired_payoffs(d, policy, n, k, reps, seed)
    diff = offline - online
    sd = float(np.std(diff, ddof=1)) if reps > 1 else 0.0
    return RegretRecord(
        policy=policy.name,
        n=n,
        k=k,
        method="mc",
        v_on=float(np.mean(online)),
        v_off=float(np.mean(offline)),
        regret=float(np.mean(diff)),
        ci_halfwidth=1.96 * sd / math.sqrt(reps),
        error_bound=0.0,
    )


def sweep(
    d: AbilityDistribution,
    policy_names: Sequence[str],
    grid: Iterable[tuple[int, int]],
    mode: str = "exact",
    reps: int = 10_000,
    seed: int = 0,
    tail_tol: float = 1e-12,
) -> tuple[list[RegretRecord], list]:
    """Evaluate every (policy, n, k) cell in (policy, n, k) order.

    A cell that raises is skipped and the sweep goes on; returns the records
    and the failures as ``((policy, n, k), exception)`` pairs.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")

    # A policy lives only inside its cell, so a DP cut table is freed before
    # the next cell builds its own.
    def run(name, n, k):
        policy = make_policy(name, d, n, k)
        if mode == "exact":
            return exact_regret(d, policy, n, k, tail_tol)
        return mc_regret(d, policy, n, k, reps, seed)

    records, failures = [], []
    for cell in sorted((name, n, k) for name in policy_names for (n, k) in grid):
        try:
            records.append(run(*cell))
        except Exception as exc:  # enumerate failing cells, keep going
            failures.append((cell, exc))
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

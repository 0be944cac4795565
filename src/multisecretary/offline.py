"""Offline posterior-sort benchmark and its exact expectation.

The offline solver sees the whole realization, sorts it, and keeps the k
largest values.  If Z_j counts the arrivals of rank <= j, the sort keeps
s_1 + ... + s_j = min(Z_j, k) of them, and Z_j ~ Binomial(n, F̄(a_{j+1})).
Summing by parts, the value is sum_j (a_j - a_{j+1}) min(Z_j, k) with
a_{m+1} = 0, so its expectation needs one capped binomial mean per ability
level.  Each mean's binomial tail is truncated at a caller-controlled
tolerance and the omitted part is carried in an error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .distribution import AbilityDistribution
from .errors import CountMismatch, InfeasiblePair, check_pair


@dataclass(frozen=True, eq=False)
class OfflineResult:
    """Counts selected per ability by the posterior sort, and their value."""

    s: np.ndarray
    payoff: float


@dataclass(frozen=True, eq=False)
class OfflineValue:
    """Exact expected offline value with per-ability expected selections.

    ``error_bound`` caps the bias of binomial tail truncation: the omitted
    part of each capped mean E[min(Z_j, k)], weighted by a_j - a_{j+1}.  It
    is at most ``a_1 * n * tail_tol`` and is 0 at ``tail_tol=0``.
    """

    value: float
    per_ability: np.ndarray
    error_bound: float


def offline_sort(d: AbilityDistribution, counts, k: int) -> OfflineResult:
    """Greedy top-down selection: s_1 + ... + s_j = min(z_1 + ... + z_j, k).

    This is the unique optimum of the offline knapsack with unit weights, so
    no LP machinery is needed.
    """
    z = np.asarray(counts, dtype=np.int64)
    if z.ndim != 1 or np.any(z < 0):
        raise CountMismatch("counts must be a 1-D sequence of non-negative integers")
    if z.size != d.m:
        raise CountMismatch(f"expected {d.m} counts, got {z.size}")
    if k < 0:
        raise InfeasiblePair(f"budget must be >= 0, got {k}")
    s = np.diff(np.minimum(np.cumsum(z), k), prepend=0)
    return OfflineResult(s=s, payoff=float(d.support @ s))


def offline_sort_batch(d: AbilityDistribution, counts: np.ndarray, k: int) -> np.ndarray:
    """Posterior-sort payoffs for a (reps, m) matrix of count rows."""
    remaining = np.full(counts.shape[0], float(k))
    payoff = np.zeros(counts.shape[0])
    for j in range(d.m):
        take = np.minimum(counts[:, j], remaining)
        payoff += d.support[j] * take
        remaining -= take
    return payoff


def _lower_quantile(n: int, p: float, tol: float) -> int:
    if tol <= 0.0:
        return 0
    return max(int(binom.ppf(tol, n, p)) - 1, 0)


def _upper_quantile(n: int, p: float, tol: float) -> int:
    if tol <= 0.0:
        return n
    return min(int(binom.isf(tol, n, p)) + 1, n)


def _capped_mean(N: int, q: float, c: int, tol: float) -> tuple[float, float]:
    """E[min(Z, c)] for Z ~ Binomial(N, q) and an integer 1 <= c < N.

    Returns (value, omitted-tail error bound).  The short side of the cap is
    summed explicitly so the work stays proportional to the binomial's
    plausible window rather than to N.
    """
    mu = N * q
    if c <= mu:
        zlo = _lower_quantile(N, q, tol)
        zs = np.arange(zlo, c)
        shortfall = float(np.sum((c - zs) * binom.pmf(zs, N, q))) if zs.size else 0.0
        err = c * tol if zlo > 0 else 0.0
        return c - shortfall, err
    zhi = _upper_quantile(N, q, tol)
    zs = np.arange(c + 1, zhi + 1)
    overshoot = float(np.sum((zs - c) * binom.pmf(zs, N, q))) if zs.size else 0.0
    err = (N - c) * tol if zhi < N else 0.0
    return mu - overshoot, err


def offline_expectation(
    d: AbilityDistribution, n: int, k: int, tail_tol: float = 1e-12
) -> OfflineValue:
    """Exact E[offline value] = sum_j (a_j - a_{j+1}) E[min(Z_j, k)].

    Z_j ~ Binomial(n, F̄(a_{j+1})) counts the arrivals of rank <= j, and
    a_{m+1} = 0.  Z_m = n, so E[min(Z_m, k)] = k exactly; each other level
    is one capped binomial mean whose tails omit at most ``tail_tol`` of
    probability, so ``error_bound`` <= a_1 n ``tail_tol``.
    """
    check_pair(n, k)
    if not 0.0 <= tail_tol <= 1e-9:
        raise InfeasiblePair(f"tail_tol must lie in [0, 1e-9], got {tail_tol}")
    if k == 0:
        return OfflineValue(value=0.0, per_ability=np.zeros(d.m), error_bound=0.0)
    if k == n:
        per = n * d.pmf
        return OfflineValue(value=float(d.support @ per), per_ability=per, error_bound=0.0)

    capped = np.full(d.m, float(k))  # capped[j-1] = E[min(Z_j, k)]
    err = np.zeros(d.m)
    for j in range(1, d.m):
        capped[j - 1], err[j - 1] = _capped_mean(n, float(d.survival_values[j]), k, tail_tol)
    gaps = d.support - np.append(d.support[1:], 0.0)
    return OfflineValue(
        value=float(gaps @ capped),
        per_ability=np.diff(capped, prepend=0.0),
        error_bound=float(gaps @ err),
    )


def offline_expected_value(
    d: AbilityDistribution, n: int, k: int, tail_tol: float = 1e-12
) -> float:
    return offline_expectation(d, n, k, tail_tol).value


def dr_solution(d: AbilityDistribution, n: int, k: int) -> tuple[np.ndarray, float]:
    """Deterministic relaxation: replace counts by their means and sort.

    s*_j = min(n f_j, (k - n F̄(a_j))_+); the value upper-bounds the exact
    offline expectation.
    """
    check_pair(n, k)
    s = np.minimum(n * d.pmf, np.maximum(k - n * d.survival_values[: d.m], 0.0))
    return s, float(d.support @ s)

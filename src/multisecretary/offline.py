"""Offline posterior-sort benchmark and its exact expectation.

The offline solver sees the whole realization, sorts it, and keeps the k
largest values.  Its expected value is computed exactly by conditioning on
the number of higher-ranked arrivals, with binomial tails truncated at a
caller-controlled tolerance and the omitted mass folded into a conservative
error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import binom

from .distribution import AbilityDistribution
from .errors import CountMismatch, InfeasiblePair


@dataclass(frozen=True, eq=False)
class RealizationCounts:
    """Per-ability arrival counts z_1..z_m for one realized sequence."""

    z: np.ndarray
    n: int

    @classmethod
    def of(cls, z: Sequence[int]) -> "RealizationCounts":
        arr = np.asarray(z, dtype=np.int64)
        if arr.ndim != 1 or np.any(arr < 0):
            raise CountMismatch("counts must be a 1-D sequence of non-negative integers")
        return cls(z=arr, n=int(arr.sum()))


@dataclass(frozen=True, eq=False)
class OfflineResult:
    """Counts selected per ability by the posterior sort, and their value."""

    s: np.ndarray
    payoff: float


@dataclass(frozen=True, eq=False)
class OfflineValue:
    """Exact expected offline value with per-ability expected selections.

    ``error_bound`` is a conservative cap on the bias introduced by binomial
    tail truncation ((omitted mass) * n per ability, weighted by a_j).
    """

    value: float
    per_ability: np.ndarray
    error_bound: float


def offline_sort(d: AbilityDistribution, counts, k: int) -> OfflineResult:
    """Greedy top-down selection: s_j = min(z_j, (k - sum_{i<j} z_i)_+).

    This is the unique optimum of the offline knapsack with unit weights, so
    no LP machinery is needed.
    """
    if isinstance(counts, RealizationCounts):
        z = counts.z
    else:
        z = RealizationCounts.of(counts).z
    if z.size != d.m:
        raise CountMismatch(f"expected {d.m} counts, got {z.size}")
    if k < 0:
        raise InfeasiblePair(f"budget must be >= 0, got {k}")
    s = np.empty(d.m, dtype=np.int64)
    remaining = int(k)
    for j in range(d.m):
        take = min(int(z[j]), remaining)
        s[j] = take
        remaining -= take
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
    """E[min(Z, c)] for Z ~ Binomial(N, q) and integer c >= 1.

    Returns (value, omitted-tail error bound).  The short side of the cap is
    summed explicitly so the work stays proportional to the binomial's
    plausible window rather than to N.
    """
    if c >= N:
        return N * q, 0.0
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
    """Exact E[offline value] via conditioning.

    For each ability j, the number of strictly better arrivals is
    B ~ Binomial(n, F̄(a_j)) and, given B = b, the own-count is
    Binomial(n - b, f_j / (1 - F̄(a_j))).  The double sum runs over binomial
    windows that omit at most ``tail_tol`` of probability per truncation.
    """
    if n < 0 or not 0 <= k <= max(n, 0):
        raise InfeasiblePair(f"(n={n}, k={k}) is not a feasible pair")
    if not 0.0 <= tail_tol <= 1e-9:
        raise InfeasiblePair(f"tail_tol must lie in [0, 1e-9], got {tail_tol}")
    m = d.m
    per = np.zeros(m)
    if n == 0 or k == 0:
        return OfflineValue(value=0.0, per_ability=per, error_bound=0.0)
    if k >= n:
        per[:] = n * d.pmf
        return OfflineValue(value=float(d.support @ per), per_ability=per, error_bound=0.0)

    tail_mass = np.cumsum(d.pmf[::-1])[::-1]  # tail_mass[j-1] = P(X <= a_j)
    count_err = np.zeros(m)
    for j in range(1, m + 1):
        p_above = float(d.survival_values[j - 1])
        q = min(float(d.pmf[j - 1] / tail_mass[j - 1]), 1.0)
        b_lo = _lower_quantile(n, p_above, 0.5 * tail_tol)
        b_hi = _upper_quantile(n, p_above, 0.5 * tail_tol)
        b_cap = min(b_hi, k - 1)  # terms with b >= k have a zero cap exactly
        if b_lo > 0:
            count_err[j - 1] += 0.5 * tail_tol * n
        if b_hi < min(n, k - 1):
            count_err[j - 1] += 0.5 * tail_tol * n
        if b_cap < b_lo:
            continue
        bs = np.arange(b_lo, b_cap + 1)
        weights = binom.pmf(bs, n, p_above)
        total = 0.0
        for b, w in zip(bs, weights):
            if w == 0.0:
                continue
            val, err = _capped_mean(n - int(b), q, k - int(b), tail_tol)
            total += w * val
            count_err[j - 1] += w * err
        per[j - 1] = total
    return OfflineValue(
        value=float(d.support @ per),
        per_ability=per,
        error_bound=float(d.support @ count_err),
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
    if n < 0 or not 0 <= k <= max(n, 0):
        raise InfeasiblePair(f"(n={n}, k={k}) is not a feasible pair")
    s = np.minimum(n * d.pmf, np.maximum(k - n * d.survival_values[: d.m], 0.0))
    return s, float(d.support @ s)

"""Offline posterior-sort benchmark and its exact expectation.

The offline solver sees the whole realization, sorts it, and keeps the k
largest values.  ``offline_sort_batch`` runs this sort on the rank counts of
a block of replications, one row each: going down the ranks, it keeps all
of a rank's arrivals while budget is left, so the kept counts satisfy
s_1 + ... + s_j = min(z_1 + ... + z_j, k), the unique optimum of the offline
knapsack with unit weights.

If Z_j counts the arrivals of rank <= j, then Z_j ~ Binomial(n, F̄(a_{j+1})).
Summing by parts, the value is sum_j (a_j - a_{j+1}) min(Z_j, k) with
a_{m+1} = 0, so its expectation needs one capped binomial mean per ability
level.  ``capped_mean`` sums each from pmf weights built outward from the
mode until they leave the normal range, and bounds the mass it leaves out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import AbilityDistribution
from .errors import InfeasiblePair, check_pair

_TINY = np.finfo(float).tiny  # the smallest normal double


@dataclass(frozen=True, eq=False)
class OfflineValue:
    """Expected offline value, and a bound on the error that the binomial
    mass left out of its capped means can cause (float rounding aside)."""

    value: float
    error_bound: float


def offline_sort_batch(d: AbilityDistribution, counts: np.ndarray, k: int) -> np.ndarray:
    """Posterior-sort payoffs for a (reps, m) matrix of count rows."""
    remaining = np.full(counts.shape[0], float(k))
    payoff = np.zeros(counts.shape[0])
    for j in range(d.m):
        take = np.minimum(counts[:, j], remaining)
        payoff += d.support[j] * take
        remaining -= take
    return payoff


def capped_mean(n: int, q: float, k: int) -> tuple[float, float]:
    """E[min(Z, k)] for Z ~ Binomial(n, q), and a bound on its omitted mass.

    The pmf weights start at 1 at the mode and go outward by the ratios
    pmf(z + 1)/pmf(z) = (n - z) q / ((z + 1)(1 - q)), a chunk of O(sigma)
    cells at a time, until they fall below the smallest normal double or
    reach 0 or n; they are normalised by their sum.  Only the small side is
    summed: the mean is nq - E[(Z - k)+] when k >= nq and k - E[(k - Z)+]
    otherwise.

    The pmf is log-concave, so the ratios fall going outward, and the weights
    past the last normal one w, whose next ratio is r, sum to at most
    w r / (1 - r).  That omitted mass over the weights' sum, times the cap
    of the summed term (n - k or k), bounds the error it can cause.
    """
    check_pair(n, k)
    if not 0.0 <= q <= 1.0:
        raise InfeasiblePair(f"need 0 <= q <= 1, got q={q!r}")
    if q == 1.0:
        return float(k), 0.0
    over = k >= n * q
    sign = 1.0 if over else -1.0
    mode = min(int((n + 1) * q), n)
    odds = q / (1.0 - q)
    # weights fall below the normal range about 38 sigma from the mode
    step = 16 + int(40.0 * math.sqrt(n * q * (1.0 - q)))
    total, small, omitted = 1.0, max(sign * (mode - k), 0.0), 0.0
    for up in (True, False):
        z, w = mode, 1.0
        while z < n if up else z > 0:
            if up:
                zs = np.arange(z + 1, min(z + step, n) + 1, dtype=float)
                ratios = (n - zs + 1.0) / zs * odds
            else:
                zs = np.arange(z - 1, max(z - step, 0) - 1, -1, dtype=float)
                ratios = (zs + 1.0) / (n - zs) / odds
            ws = w * np.cumprod(ratios)
            total += float(ws.sum())
            small += float(np.maximum(sign * (zs - k), 0.0) @ ws)
            if ws[-1] < _TINY:
                kept = np.count_nonzero(ws >= _TINY)
                r = float(ratios[kept])
                omitted += (float(ws[kept - 1]) if kept else w) * r / (1.0 - r)
                break
            z, w = int(zs[-1]), float(ws[-1])
    mean = (n * q if over else float(k)) - small / total
    return mean, (n - k if over else k) * omitted / total


def offline_expectation(d: AbilityDistribution, n: int, k: int) -> OfflineValue:
    """E[offline value] = sum_j (a_j - a_{j+1}) E[min(Z_j, k)].

    Z_j ~ Binomial(n, q_j) with q_j = F̄(a_{j+1}) counts the arrivals of rank
    <= j, and a_{m+1} = 0.  Z_m = n, so E[min(Z_m, k)] = k; for j < m the
    mean and its bound come from ``capped_mean``, and ``error_bound`` sums
    the bounds with the same weights a_j - a_{j+1}.
    """
    check_pair(n, k)
    capped = np.full(d.m, float(k))
    bounds = np.zeros(d.m)
    for j, q in enumerate(d.survival_values[1 : d.m]):
        capped[j], bounds[j] = capped_mean(n, float(q), k)
    gaps = d.support - np.append(d.support[1:], 0.0)
    return OfflineValue(value=float(gaps @ capped), error_bound=float(gaps @ bounds))

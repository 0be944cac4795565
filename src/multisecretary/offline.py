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
level, and each has a closed form in two binomial distribution functions.
Nothing is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import AbilityDistribution
from .errors import check_pair


@dataclass(frozen=True, eq=False)
class OfflineValue:
    """Exact expected offline value with per-ability expected selections.

    ``error_bound`` is always 0.0: the closed form omits no probability mass.
    """

    value: float
    per_ability: np.ndarray
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


def offline_expectation(d: AbilityDistribution, n: int, k: int) -> OfflineValue:
    """Exact E[offline value] = sum_j (a_j - a_{j+1}) E[min(Z_j, k)].

    Z_j ~ Binomial(n, q_j) with q_j = F̄(a_{j+1}) counts the arrivals of rank
    <= j, and a_{m+1} = 0.  Z_m = n, so E[min(Z_m, k)] = k; for j < m,
    z C(n, z) = n C(n-1, z-1) gives the closed form
    E[min(Z_j, k)] = n q_j P(Binomial(n-1, q_j) <= k-1) + k P(Z_j > k).
    """
    check_pair(n, k)
    if k == 0:
        return OfflineValue(value=0.0, per_ability=np.zeros(d.m), error_bound=0.0)
    if k == n:
        per = n * d.pmf
        return OfflineValue(value=float(d.support @ per), per_ability=per, error_bound=0.0)

    from scipy.stats import binom  # imported here: scipy.stats costs about a second to load

    q = d.survival_values[1 : d.m]
    capped = np.append(n * q * binom.cdf(k - 1, n - 1, q) + k * binom.sf(k, n, q), float(k))
    gaps = d.support - np.append(d.support[1:], 0.0)
    return OfflineValue(
        value=float(gaps @ capped),
        per_ability=np.diff(capped, prepend=0.0),
        error_bound=0.0,
    )


"""Optimal online value and policy via backward induction on the budget state.

The value function depends on the accrued ability only additively, so the
recursion runs over (periods-to-go, residual budget) alone:

    g_l(kappa) = sum_j f_j * max(a_j + g_{l-1}(kappa - 1), g_{l-1}(kappa)),

with g_0 = 0 and g_l(0) = 0.  The optimal rule selects ability a_j exactly
when a_j >= h_l(kappa) = g_{l-1}(kappa) - g_{l-1}(kappa - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import AbilityDistribution
from .errors import IndexOutOfRange, InfeasiblePair, InstanceTooLarge, TableMismatch

# Ties a_j == h_l(kappa) select; the relative slack absorbs float noise in h.
TIE_TOL_SCALE = 1e-12


@dataclass(frozen=True, eq=False)
class DPTable:
    """Backward-induction output for one (distribution, n, k) instance.

    ``g_final`` is always present (the row g_n, so ``value`` = g_n(k)).
    ``g`` holds the full (n+1, k+1) value table in mode "full"; ``cuts``
    holds, per (periods-to-go, budget), how many of the top abilities the
    optimal rule accepts (modes "full" and "policy").
    """

    dist_hash: str
    n: int
    k: int
    g_final: np.ndarray
    g: np.ndarray | None = None
    cuts: np.ndarray | None = None

    @property
    def value(self) -> float:
        return float(self.g_final[self.k])


def solve(d: AbilityDistribution, n: int, k: int, mode: str = "policy") -> DPTable:
    """Fill the g recursion bottom-up.

    mode: "value" keeps only the final row, "policy" additionally keeps the
    acceptance cuts, "full" also keeps the whole float table (k*n floats,
    ~400 MB at n=1e4, k=5e3).
    """
    if n < 0 or not 0 <= k <= n:
        raise InfeasiblePair(f"(n={n}, k={k}) is not a feasible pair")
    if mode not in ("value", "policy", "full"):
        raise ValueError(f"unknown mode {mode!r}")

    m = d.m
    a = d.support
    f = d.pmf
    ascending = a[::-1]
    tie_tol = TIE_TOL_SCALE * float(a[0])

    g_table = np.zeros((n + 1, k + 1)) if mode == "full" else None
    cuts = np.zeros((n + 1, k + 1), dtype=np.int16) if mode in ("policy", "full") else None

    g_prev = np.zeros(k + 1)
    g_new = np.zeros(k + 1)
    tmp = np.empty(max(k, 1))
    for ell in range(1, n + 1):
        if k >= 1:
            if cuts is not None:
                h = g_prev[1:] - g_prev[:-1]
                cuts[ell, 1:] = m - np.searchsorted(ascending, h - tie_tol, side="left")
            acc = g_new[1:]
            acc[:] = 0.0
            for j in range(m):
                np.add(g_prev[:-1], a[j], out=tmp[:k])
                np.maximum(tmp[:k], g_prev[1:], out=tmp[:k])
                acc += f[j] * tmp[:k]
        g_new[0] = 0.0
        if g_table is not None:
            g_table[ell] = g_new
        g_prev, g_new = g_new, g_prev
    g_final = g_prev.copy()
    g_final.flags.writeable = False
    return DPTable(
        dist_hash=d.content_hash(), n=n, k=k, g_final=g_final, g=g_table, cuts=cuts
    )


def optimal_value(d: AbilityDistribution, n: int, k: int) -> float:
    """g_n(k) with O(k) memory."""
    return solve(d, n, k, mode="value").value


def accept_threshold(table: DPTable, ell: int, kappa: int) -> float:
    """Marginal value h_l(kappa) = g_{l-1}(kappa) - g_{l-1}(kappa - 1)."""
    if table.g is None:
        raise TableMismatch("threshold queries need a table solved with mode='full'")
    if not (1 <= ell <= table.n and 1 <= kappa <= table.k):
        raise IndexOutOfRange(f"(ell={ell}, kappa={kappa}) outside table of (n={table.n}, k={table.k})")
    return float(table.g[ell - 1, kappa] - table.g[ell - 1, kappa - 1])


def full_value_check(d: AbilityDistribution, n: int, k: int, w: float) -> float:
    """Direct recursion on (periods-to-go, accrued ability, budget).

    Test oracle for the additive decomposition; the returned v_n(w, k) must
    equal w + g_n(k).  Guarded to small n because the w-state space grows
    combinatorially.
    """
    if n > 12:
        raise InstanceTooLarge(f"full recursion is guarded to n <= 12, got {n}")
    if n < 0 or not 0 <= k <= n:
        raise InfeasiblePair(f"(n={n}, k={k}) is not a feasible pair")
    a = d.support
    f = d.pmf
    memo: dict[tuple[int, int, float], float] = {}

    def v(ell: int, kappa: int, w_now: float) -> float:
        if ell == 0 or kappa == 0:
            return w_now
        key = (ell, kappa, w_now)
        got = memo.get(key)
        if got is not None:
            return got
        total = 0.0
        for j in range(d.m):
            take = v(ell - 1, kappa - 1, w_now + a[j])
            skip = v(ell - 1, kappa, w_now)
            total += f[j] * max(take, skip)
        memo[key] = total
        return total

    return v(n, k, float(w))

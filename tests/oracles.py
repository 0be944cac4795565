"""Independent brute-force oracles used only by the test suite.

Nothing here reuses the library's evaluators: expectations are taken by
explicit enumeration of ability sequences, the optimum by recursion over
full histories (no budget-state reduction) or by the g recursion on the
whole value table, in floats or exact rationals (the library recurses on
the marginal value instead), and policy selection probabilities are
recomputed from their defining formulas.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.stats import binom

from multisecretary import InfeasiblePair, ModelError, TableMismatch, cutoff_time, thresholds
from multisecretary.errors import check_pair

BOUNDARY_TOL = 1e-12  # same closed-left tie slack the library documents


class InstanceTooLarge(ModelError):
    """A brute-force check was requested for an instance beyond its size guard."""


def all_sequences(m: int, n: int) -> np.ndarray:
    """All m^n ability-rank sequences as a (m^n, n) array of 1-based ranks."""
    grids = np.meshgrid(*([np.arange(1, m + 1)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int16)


def sequence_probs(d, seqs: np.ndarray) -> np.ndarray:
    return np.prod(np.asarray(d.pmf)[seqs - 1], axis=1)


def greedy_payoffs(d, seqs: np.ndarray, k: int) -> np.ndarray:
    """Posterior-sort payoff per sequence, top rank first."""
    payoff = np.zeros(seqs.shape[0])
    remaining = np.full(seqs.shape[0], float(k))
    for j in range(1, d.m + 1):
        z = (seqs == j).sum(axis=1)
        take = np.minimum(z, remaining)
        payoff += d.support[j - 1] * take
        remaining -= take
    return payoff


def enum_offline_value(d, n: int, k: int) -> float:
    """E[offline value] by full m^n sequence enumeration."""
    seqs = all_sequences(d.m, n)
    return float(sequence_probs(d, seqs) @ greedy_payoffs(d, seqs, k))


def exact_offline_value(support, pmf, n: int, k: int) -> Fraction:
    """E[offline value] in exact rationals, by conditioning each rank j on
    the number b of better arrivals.

    B ~ Binomial(n, F̄(a_j)) and, given B = b, the own count is
    Binomial(n - b, f_j / (1 - F̄(a_j))), of which the sort keeps at most
    (k - b)_+.  The two binomials multiply into one trinomial weight, and
    every (b, own count) term is summed: nothing is truncated.  Each value is
    taken as ``Fraction(x)``, and the masses must sum to exactly 1 (dyadic
    masses do).
    """
    a = [Fraction(x) for x in support]
    f = [Fraction(x) for x in pmf]
    if sum(f) != 1:
        raise InfeasiblePair("masses must sum to exactly 1 as rationals")
    denom = math.lcm(*(x.denominator for x in f))
    w = [int(x * denom) for x in f]
    total = Fraction(0)
    above = 0  # denom * F̄(a_j)
    for aj, wj in zip(a, w):
        rest = denom - above - wj
        kept = 0  # denom**n * E[s_j]
        for b in range(min(n, k - 1) + 1):
            for y in range(1, n - b + 1):
                weight = math.comb(n, b) * math.comb(n - b, y)
                kept += weight * above**b * wj**y * rest ** (n - b - y) * min(y, k - b)
        total += aj * Fraction(kept, denom**n)
        above += wj
    return total


def enum_optimal_value(d, n: int, k: int) -> float:
    """Optimal online value by recursion over full histories.

    The continuation value is computed per ability prefix, so decisions may
    depend on the whole history; this checks the budget-state reduction
    rather than assuming it.
    """
    a = tuple(float(x) for x in d.support)
    f = tuple(float(x) for x in d.pmf)
    m = d.m
    sys.setrecursionlimit(100_000)

    @lru_cache(maxsize=None)
    def best(prefix: tuple, kappa: int) -> float:
        if len(prefix) == n:
            return 0.0
        total = 0.0
        for j in range(m):
            skip = best(prefix + (j,), kappa)
            if kappa > 0:
                take = a[j] + best(prefix + (j,), kappa - 1)
                total += f[j] * max(take, skip)
            else:
                total += f[j] * skip
        return total

    value = best((), k)
    best.cache_clear()
    return value


def br_prob_table(d, n: int, k: int):
    """Per-period (m, k+1) selection probabilities of the budget-ratio rule,
    rebuilt from the midpoint-threshold definition."""
    sv = np.concatenate(([0.0], np.cumsum(np.asarray(d.pmf))))
    m = d.m
    thresholds = [0.0] + [0.5 * (sv[j - 1] + sv[j]) for j in range(2, m + 1)]

    def table(t_next: int) -> np.ndarray:
        p = np.zeros((m, k + 1))
        denom = n - t_next + 1
        for kappa in range(1, k + 1):
            r = kappa / denom
            bucket = 1
            for j in range(2, m + 1):
                if r >= thresholds[j - 1] - BOUNDARY_TOL:
                    bucket = j
            p[:bucket, kappa] = 1.0
        return p

    return table


def ai_prob_table(d, n: int, k: int):
    """Adaptive-index probabilities (r - F̄(a_j))/f_j clamped to [0, 1]."""
    sv = np.concatenate(([0.0], np.cumsum(np.asarray(d.pmf))))
    m = d.m

    def table(t_next: int) -> np.ndarray:
        p = np.zeros((m, k + 1))
        denom = n - t_next + 1
        for kappa in range(1, k + 1):
            r = kappa / denom
            if r >= 1.0:
                p[:, kappa] = 1.0
                continue
            for j in range(1, m + 1):
                p[j - 1, kappa] = min(max((r - sv[j - 1]) / d.pmf[j - 1], 0.0), 1.0)
        return p

    return table


def index_prob_table(d, n: int, k: int):
    """Non-adaptive index probabilities at ratio k/n, constant over time."""
    sv = np.concatenate(([0.0], np.cumsum(np.asarray(d.pmf))))
    m = d.m
    ratio = k / n
    pivot = 1
    for j in range(1, m + 1):
        if sv[j - 1] <= ratio + BOUNDARY_TOL:
            pivot = j
    frac = min(max((ratio - sv[pivot - 1]) / d.pmf[pivot - 1], 0.0), 1.0)
    if frac < BOUNDARY_TOL:
        frac = 0.0
    elif 1.0 - frac < BOUNDARY_TOL:
        frac = 1.0
    col = np.zeros(m)
    col[: pivot - 1] = 1.0
    col[pivot - 1] = frac

    def table(t_next: int) -> np.ndarray:
        p = np.zeros((m, k + 1))
        p[:, 1:] = col[:, None]
        return p

    return table


def threshold_bucket(thr, ratio):
    """The unique j with T_j <= ratio < T_{j+1} (closed-left intervals).

    Accepts a scalar or an array; ratios within ``BOUNDARY_TOL`` of a
    threshold count as having reached it.
    """
    interior = thr[1:-1]
    idx = np.searchsorted(interior, np.asarray(ratio) + BOUNDARY_TOL, side="right") + 1
    if np.isscalar(ratio):
        return int(idx)
    return idx


def action_index_j0(d, n: int, k: int) -> int:
    """The ability level where the offline solution's marginal activity sits.

    Piecewise in k/n: below f_1 + f_2/2 it is 1, above 1 - f_m/2 it is m, and
    in between it is the j whose threshold interval [T_j, T_{j+1}) contains
    k/n.  The interval form is used directly since the two coincide.
    """
    check_pair(n, k, min_n=1)
    return threshold_bucket(thresholds(d), k / n)


def drift_at_state(d, thr, n: int, t: int, budget: int, j_anchor: int) -> float:
    """Analytic one-step mean increment of the deviation Y under the
    budget-ratio rule: T_anchor - F̄(a_{b+1}) with b the active bucket.

    Inside the anchor's orbit the difference telescopes, so those branches
    return exactly -f/2 (ratio at or above the anchor) or +f/2 (below);
    with no budget left nothing is selected and the drift is T_anchor.
    """
    if t >= n or budget < 0:
        raise InfeasiblePair(f"need t < n and budget >= 0, got t={t}, budget={budget}")
    if not 1 <= j_anchor <= thr.size:
        raise InfeasiblePair(f"anchor index {j_anchor} outside [1, {thr.size}]")
    if budget == 0:
        return float(thr[j_anchor - 1])
    bucket = threshold_bucket(thr, budget / (n - t))
    if bucket == j_anchor:
        return -0.5 * float(d.pmf[j_anchor - 1])
    if bucket == j_anchor - 1:
        return 0.5 * float(d.pmf[j_anchor - 1])
    return float(thr[j_anchor - 1] - d.survival_values[bucket])


def ai_ratio_increment_mean(d, n: int, t: int, budget: int) -> float:
    """Closed-form one-step conditional mean of the ratio increment under
    the adaptive-index rule, summed over the m possible arrivals.

    Zero whenever budget/(n-t) <= 1 and at least two periods remain.
    """
    remaining = n - t
    if remaining < 2:
        raise InfeasiblePair("the increment needs at least two remaining periods")
    ratio = budget / remaining
    if budget <= 0:
        probs = np.zeros(d.m)
    elif ratio >= 1.0:
        probs = np.ones(d.m)
    else:
        probs = np.clip((ratio - d.survival_values[: d.m]) / d.pmf, 0.0, 1.0)
    select_mean = float(d.pmf @ probs)
    return (budget - select_mean) / (remaining - 1) - ratio


def enum_policy_value(d, n: int, k: int, prob_table) -> float:
    """Exact policy value by enumerating every ability sequence and folding
    the decision randomness backward along each fixed sequence."""
    seqs = all_sequences(d.m, n)
    value_to_go = np.zeros((seqs.shape[0], k + 1))
    for t_next in range(n, 0, -1):
        p_t = prob_table(t_next)
        j0 = seqs[:, t_next - 1] - 1
        p = p_t[j0, :]
        shifted = np.zeros_like(value_to_go)
        shifted[:, 1:] = value_to_go[:, :-1]
        gains = np.asarray(d.support)[j0][:, None]
        value_to_go = p * (gains + shifted) + (1.0 - p) * value_to_go
    return float(sequence_probs(d, seqs) @ value_to_go[:, k])


def rank_counts_loop(ranks: np.ndarray, m: int) -> np.ndarray:
    """(reps, m) count of each rank 1..m per row of a (reps, n) rank matrix,
    one comparison pass per rank."""
    counts = np.empty((ranks.shape[0], m), dtype=np.int64)
    for j in range(1, m + 1):
        counts[:, j - 1] = (ranks == j).sum(axis=1)
    return counts


def sample_searchsorted(d, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF ranks by binary search: 1 + the number of cumulative
    masses F̄(a_2), ..., F̄(a_{m+1}) at or below each u."""
    return (np.searchsorted(d.survival_values[1:], u, side="right") + 1).astype(np.int16)


def orbit_scan_passes(paths: np.ndarray, thr, delta: float, n: int):
    """tau0/j/tau of each row of a (reps, n+1) matrix of budget paths, with
    one full-array pass per threshold: the nearest T_j of every ratio by
    distance (ties to the smaller j), then the entry test on that distance."""
    m = thr.size - 1
    t_cut = min(cutoff_time(n, delta), n - 1)
    ratio = paths[:, :n] / (n - np.arange(n))
    best = np.full(ratio.shape, np.inf)
    best_j = np.zeros(ratio.shape, dtype=np.int16)
    for j in range(1, m + 1):
        dist = np.abs(ratio - thr[j - 1])
        closer = dist < best
        best[closer] = dist[closer]
        best_j[closer] = j
    hit = best <= delta / 2.0
    hit[:, t_cut:] = True
    tau0 = np.argmax(hit, axis=1)
    rows = np.arange(paths.shape[0])
    j_tau0 = np.where(tau0 == t_cut, m + 1, best_j[rows, tau0]).astype(np.int16)

    anchor = np.where(j_tau0 <= m, thr[np.minimum(j_tau0, m) - 1], np.inf)
    out = np.abs(ratio - anchor[:, None]) > delta
    cols = np.arange(n)
    out |= cols >= t_cut
    out &= cols > tau0[:, None]
    tau = np.argmax(out, axis=1)
    tau = np.where(j_tau0 == m + 1, tau0, tau)  # cutoff branch: tau = tau0
    return tau0, j_tau0, tau


def max_integer_selection(support, z, k: int) -> float:
    """Brute-force maximum of sum(a_j s_j) over feasible integer selections."""
    best = 0.0
    for s in product(*(range(int(zj) + 1) for zj in z)):
        if sum(s) <= k:
            best = max(best, float(np.dot(support, s)))
    return best


@dataclass(frozen=True, eq=False)
class ReferenceTable:
    """The whole float value table: ``g[l, kappa]`` = g_l(kappa)."""

    n: int
    k: int
    g: np.ndarray


def reference_table(d, n: int, k: int) -> ReferenceTable:
    """The g recursion itself, in floats, every (periods-to-go, budget) row kept."""
    a, f = d.support, d.pmf
    g = np.zeros((n + 1, k + 1))
    for ell in range(1, n + 1):
        prev = g[ell - 1]
        for j in range(d.m):
            g[ell, 1:] += f[j] * np.maximum(prev[:-1] + a[j], prev[1:])
    return ReferenceTable(n=n, k=k, g=g)


def exact_value_table(support, pmf, n: int, k: int) -> list:
    """The g recursion in exact rationals; ``g[l][kappa]`` = g_l(kappa).

    Each support point and mass is taken as ``Fraction(x)``: floats give the
    instance the library computes on, decimal strings the one they round.
    """
    a = [Fraction(x) for x in support]
    f = [Fraction(x) for x in pmf]
    g = [[Fraction(0)] * (k + 1)]
    for _ in range(n):
        prev = g[-1]
        g.append([Fraction(0)] + [
            sum(fj * max(aj + prev[kappa - 1], prev[kappa]) for aj, fj in zip(a, f))
            for kappa in range(1, k + 1)
        ])
    return g


def accept_threshold(table, ell: int, kappa: int) -> float:
    """Marginal value h_l(kappa) = g_{l-1}(kappa) - g_{l-1}(kappa - 1)."""
    if not isinstance(table, ReferenceTable):
        raise TableMismatch(
            "threshold queries need a reference g table; a solved DPTable keeps breakpoints only"
        )
    if not (1 <= ell <= table.n and 1 <= kappa <= table.k):
        raise IndexError(f"(ell={ell}, kappa={kappa}) outside table of (n={table.n}, k={table.k})")
    return float(table.g[ell - 1, kappa] - table.g[ell - 1, kappa - 1])


def accept_cut(table, ell: int, kappa: int) -> int:
    """How many of the top abilities a solved DPTable accepts in this state."""
    if not (1 <= ell <= table.n and 0 <= kappa <= table.k):
        raise IndexError(f"(ell={ell}, kappa={kappa}) outside table of (n={table.n}, k={table.k})")
    return int(np.searchsorted(table.breakpoints[ell], kappa, side="right"))


def full_value_check(d, n: int, k: int, w: float) -> float:
    """Direct recursion on (periods-to-go, accrued ability, budget).

    The returned v_n(w, k) must equal w + g_n(k), which checks the additive
    decomposition.  Guarded to small n because the w-state space grows
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


def binomial_overshoot(n: int, p: float, k: float) -> float:
    """Exact E[(B - k)_+] for B ~ Binomial(n, p), by direct pmf summation."""
    if not 0.0 <= p <= 1.0 or k < 0:
        raise InfeasiblePair(f"need 0 <= p <= 1 and k >= 0, got p={p}, k={k}")
    b = np.arange(n + 1)
    return float(np.sum(np.maximum(b - k, 0.0) * binom.pmf(b, n, p)))


def binomial_undershoot(n: int, p: float, k: float) -> float:
    """Exact E[(k - B)_+] for B ~ Binomial(n, p), by direct pmf summation."""
    if not 0.0 <= p <= 1.0 or k < 0:
        raise InfeasiblePair(f"need 0 <= p <= 1 and k >= 0, got p={p}, k={k}")
    b = np.arange(n + 1)
    return float(np.sum(np.maximum(k - b, 0.0) * binom.pmf(b, n, p)))

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import time

import numpy as np

from multisecretary import (
    dr_solution,
    exact_regret,
    half_min_mass,
    make_policy,
    offline_expectation,
    orbit_stats,
    simulate_paths,
    solve,
    thresholds,
)
from multisecretary.cli import kleinberg_distribution
from multisecretary.evaluate import _forward_value
from multisecretary.offline import offline_sort_batch
from oracles import (
    ai_prob_table,
    ai_ratio_increment_mean,
    binomial_overshoot,
    binomial_undershoot,
    br_prob_table,
    drift_at_state,
    enum_offline_value,
    enum_optimal_value,
    enum_policy_value,
    full_value_check,
    index_prob_table,
    threshold_bucket,
)


def gate(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def linear_fit_r2(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    return slope, 1.0 - float(resid @ resid) / float(total @ total)


def test_criterion_1_brute_force_equivalence(small_family):
    started = time.perf_counter()
    worst = {"offline": 0.0, "dp": 0.0, "br": 0.0, "ai": 0.0, "index": 0.0}
    tables = {"br": br_prob_table, "ai": ai_prob_table, "index": index_prob_table}
    for d in small_family:
        for n in range(1, 9):
            for k in range(0, n + 1):
                worst["offline"] = max(
                    worst["offline"],
                    abs(offline_expectation(d, n, k).value - enum_offline_value(d, n, k)),
                )
                worst["dp"] = max(
                    worst["dp"], abs(solve(d, n, k).value - enum_optimal_value(d, n, k))
                )
                for name, table in tables.items():
                    got = _forward_value(d, make_policy(name, d, n, k), n, k)[0]
                    want = enum_policy_value(d, n, k, table(d, n, k))
                    worst[name] = max(worst[name], abs(got - want))
    elapsed = time.perf_counter() - started
    ok = all(v <= 1e-9 for v in worst.values()) and elapsed < 120
    gate(1, ok, f"max |exact - enumeration| = {max(worst.values()):.2e} "
                f"(offline/dp/br/ai/index), {elapsed:.1f}s")


def test_criterion_2_bellman_identities(uniform3, uniform5, masspoint5):
    worst_h = 0.0
    for d in (uniform3, uniform5, masspoint5):
        h_2 = solve(d, 1, 1).value - solve(d, 1, 0).value
        worst_h = max(worst_h, abs(h_2 - d.mean()))
    worst_v = 0.0
    n, k = 12, 5
    base = solve(uniform3, n, k).value
    for w in (0.0, 0.25, 1.0, 3.75, 10.5, 123.0):
        worst_v = max(worst_v, abs(full_value_check(uniform3, n, k, w) - (w + base)))
    ok = worst_h <= 1e-10 and worst_v <= 1e-10
    gate(2, ok, f"|h_2(1) - E[X]| <= {worst_h:.2e}, |v(w) - (w + g)| <= {worst_v:.2e}")


def test_criterion_3_bounded_regret_flat_in_n(uniform5):
    horizons = (500, 1000, 2000, 4000)
    spreads = {}
    for name in ("br", "dp"):
        started = time.perf_counter()
        regrets = []
        for n in horizons:
            k = int(round(0.30 * n))
            regrets.append(exact_regret(uniform5, make_policy(name, uniform5, n, k), n, k).regret)
        elapsed = time.perf_counter() - started
        spreads[name] = (max(regrets) / min(regrets), regrets, elapsed)
        assert elapsed < 300
    ok = all(ratio <= 1.5 for ratio, _, _ in spreads.values())
    detail = "; ".join(
        f"{name}: regrets {['%.4f' % r for r in regs]} spread x{ratio:.3f} ({sec:.0f}s)"
        for name, (ratio, regs, sec) in spreads.items()
    )
    gate(3, ok, detail)


def test_criterion_4_nonadaptive_sqrt_regret(uniform5):
    horizons = np.array([500, 1000, 2000, 4000])
    regrets = []
    for n in horizons:
        k = n // 2
        regrets.append(exact_regret(uniform5, make_policy("index", uniform5, n, k), n, k).regret)
    slope, _ = linear_fit_r2(np.log(horizons), np.log(regrets))
    ok = 0.40 <= slope <= 0.60
    gate(4, ok, f"index-policy log-log slope = {slope:.3f}, regrets {['%.3f' % r for r in regrets]}")


def test_criterion_5_adaptive_index_grows_br_flat(uniform10):
    ratio = 0.7  # survival value of the 0.6 support point
    regret = {}
    for name in ("ai", "br"):
        for n in (2000, 8000):
            k = int(round(ratio * n))
            regret[name, n] = exact_regret(
                uniform10, make_policy(name, uniform10, n, k), n, k
            ).regret
    growth = regret["ai", 8000] / regret["ai", 2000]
    br_change = abs(regret["br", 8000] - regret["br", 2000]) / regret["br", 2000]
    ok = growth >= 1.5 and br_change <= 0.25
    gate(5, ok, f"ai regret x{growth:.2f} from n=2000 to n=8000, br change {100 * br_change:.1f}%")


def test_criterion_6_kleinberg_example():
    # (a) regret grows linearly in 1/epsilon under the optimal policy
    epsilons = np.array([0.05, 0.04, 0.03, 0.025, 0.02])
    dp_regrets = []
    for eps in epsilons:
        d = kleinberg_distribution(eps)
        n = math.ceil(1.0 / eps**2)
        k = math.ceil(n / 2)
        dp_regrets.append(exact_regret(d, make_policy("dp", d, n, k), n, k).regret)
    dp_regrets = np.array(dp_regrets)
    inv = 1.0 / epsilons
    increasing = bool(np.all(np.diff(dp_regrets) > 0))  # epsilons listed decreasing
    _, r2 = linear_fit_r2(inv, dp_regrets)

    # (b) the budget-ratio regret peaks near the threshold budget k = n * T_2
    started = time.perf_counter()
    d = kleinberg_distribution(0.01)
    n = 10_000
    ks = list(range(4300, 5101, 100))
    br_regrets = [
        exact_regret(d, make_policy("br", d, n, k), n, k).regret for k in ks
    ]
    argmax_k = ks[int(np.argmax(br_regrets))]
    elapsed = time.perf_counter() - started
    ok = increasing and r2 >= 0.9 and 4500 <= argmax_k <= 4900 and elapsed < 1800
    gate(6, ok, f"dp regret increasing={increasing}, R2={r2:.3f}; "
                f"br argmax k={argmax_k} in [4500, 4900] ({elapsed:.0f}s)")


def test_criterion_7_martingale_and_drift_identities(uniform5, masspoint5, uniform3):
    # both one-step means come from the rates hook of the policy the engine
    # plays: ai's ratio increment (kappa - sel)/(l - 1) - kappa/l and br's
    # deviation drift T_j - sel; each must equal its closed form
    dists = (uniform5, masspoint5, uniform3)
    ai = [make_policy("ai", d, 1, 1) for d in dists]
    rng = np.random.default_rng(2024)
    worst_inc = worst_gap = 0.0
    for _ in range(10_000):
        i = rng.integers(3)
        d = dists[i]
        n = int(rng.integers(10, 5000))
        t = int(rng.integers(0, n - 1))
        budget = int(rng.integers(0, n - t + 1))  # ratio <= 1
        sel = ai[i].rates(t + 1, n, np.array([budget]))[0][0]
        want = ai_ratio_increment_mean(d, n, t, budget)
        worst_inc = max(worst_inc, abs(want))
        worst_gap = max(worst_gap, abs((budget - sel) / (n - t - 1) - budget / (n - t) - want))

    drift_exact = True
    checked = 0
    for d in dists:
        thr = thresholds(d)
        br = {n: make_policy("br", d, n, n) for n in (1000, 4000)}
        for j in range(2, d.m + 1):
            anchor = thr[j - 1]
            for n, t in ((1000, 250), (4000, 1777)):
                target = anchor * (n - t)
                for budget in range(int(target) - 2, int(target) + 4):
                    if budget <= 0:
                        continue
                    r = budget / (n - t)
                    if abs(r - anchor) > half_min_mass(d) / 2:
                        continue
                    got = drift_at_state(d, thr, n, t, budget, j)
                    sel = br[n].rates(t + 1, n, np.array([budget]))[0][0]
                    worst_gap = max(worst_gap, abs(anchor - sel - got))
                    bucket = threshold_bucket(thr, r)
                    if bucket == j:
                        drift_exact &= got == -0.5 * d.pmf[j - 1]
                    elif bucket == j - 1:
                        drift_exact &= got == 0.5 * d.pmf[j - 1]
                    else:
                        continue
                    checked += 1
    ok = worst_inc <= 1e-12 and worst_gap <= 1e-15 and drift_exact and checked > 50
    gate(7, ok, f"max |ratio increment| = {worst_inc:.2e} over 1e4 states; "
                f"drift exact on {checked} in-orbit states: {drift_exact}; "
                f"max |rates - closed form| = {worst_gap:.2e}")


def test_criterion_8_pathwise_dominance_and_feasibility(uniform5, uniform3, masspoint5):
    total = 0
    violations = 0
    n = 80
    reps = 6_700
    for d in (uniform5, uniform3, masspoint5):
        for name in ("br", "dp", "ai", "index", "take-top"):
            k = 28
            policy = make_policy(name, d, n, k)
            payoffs, counts, paths = simulate_paths(d, policy, n, k, reps, seed=8080)
            total += reps
            selected = k - paths[:, -1]
            violations += int(np.sum(selected > k))
            violations += int(np.sum(paths < 0))
            violations += int(np.sum(np.diff(paths, axis=1) > 0))
            off = offline_sort_batch(d, counts, k)
            violations += int(np.sum(off < payoffs - 1e-9))
    ok = violations == 0 and total >= 100_000
    gate(8, ok, f"{total} episodes across 5 policies x 3 distributions, {violations} violations")


def test_criterion_9_binomial_tail_bound():
    worst_ratio = 0.0
    cases = 0
    for n in (10, 100, 1000, 5000):
        for p in np.arange(0.0, 1.001, 0.1):
            for margin in (0.05, 0.1, 0.25):
                k_hi = math.ceil((p + margin) * n)
                if k_hi <= n:
                    actual = k_hi / n - p
                    bound = 1.0 / (4.0 * actual)
                    worst_ratio = max(worst_ratio, binomial_overshoot(n, p, k_hi) / bound)
                    cases += 1
                k_lo = math.floor((p - margin) * n)
                if k_lo >= 0:
                    actual = p - k_lo / n
                    bound = 1.0 / (4.0 * actual)
                    worst_ratio = max(worst_ratio, binomial_undershoot(n, p, k_lo) / bound)
                    cases += 1
    ok = worst_ratio <= 1.0 and cases > 100
    gate(9, ok, f"max (tail expectation / bound) = {worst_ratio:.3f} over {cases} cases")


def test_criterion_10_dr_sandwich(uniform5, masspoint5):
    sandwich_ok = True
    plateau_ok = True
    for d in (uniform5, masspoint5):
        eps_prime = half_min_mass(d) / 2
        cap = d.support[0] * d.m / (4 * eps_prime)
        for n in (200, 800):
            for k in range(0, n + 1, max(n // 20, 1)):
                off = offline_expectation(d, n, k)
                _, dr = dr_solution(d, n, k)
                sandwich_ok &= off.value <= dr + off.error_bound + 1e-9
            sv = d.survival_values
            for j in range(1, d.m + 1):
                lo = sv[j - 1] + eps_prime
                hi = sv[j] - eps_prime
                if lo > hi:
                    continue
                k = int(round(n * (lo + hi) / 2))
                off = offline_expectation(d, n, k)
                _, dr = dr_solution(d, n, k)
                plateau_ok &= dr - off.value <= cap + 1e-9
    ok = sandwich_ok and plateau_ok
    gate(10, ok, f"V_off <= DR everywhere: {sandwich_ok}; plateau gap <= a1*m/(4*eps'): {plateau_ok}")


def test_criterion_11_stopping_time_boundedness(uniform5):
    delta = half_min_mass(uniform5) / 2
    means = {}
    for n in (1000, 2000):
        k = int(round(0.30 * n))
        policy = make_policy("br", uniform5, n, k)
        sample = orbit_stats(uniform5, policy, n, k, delta, reps=10_000, seed=1111)
        means[n] = float(np.mean(n - sample.tau))
    rel_change = abs(means[2000] - means[1000]) / means[1000]
    cap = 4.0 / delta
    ok = rel_change < 0.20 and means[1000] < cap and means[2000] < cap
    gate(11, ok, f"mean(n - tau): n=1000 -> {means[1000]:.1f}, n=2000 -> {means[2000]:.1f} "
                 f"(change {100 * rel_change:.1f}%, cap {cap:.0f})")

from fractions import Fraction

import numpy as np
import pytest

from multisecretary import (
    BadDelta,
    DimensionMismatch,
    InfeasiblePair,
    NonAdaptiveMatrix,
    NonAdaptivePolicy,
    TableMismatch,
    cutoff_time,
    episode_stream,
    half_min_mass,
    make_policy,
    new_distribution,
    orbit_diagnostics,
    orbit_stats,
    ratio_mean_curve,
    run_episode,
    simulate_paths,
    thresholds,
)
from multisecretary import simulate
from multisecretary.dp import TIE_TOL_SCALE
from multisecretary.evaluate import _forward_value
from multisecretary.simulate import (
    MAX_REPS,
    SCRATCH_REPS,
    _orbit_scan,
    _rank_counts,
    block_keys,
    check_cell,
    paired_payoffs_cells,
)
from oracles import (
    ai_prob_table,
    br_prob_table,
    drift_at_state,
    exact_value_table,
    index_prob_table,
    orbit_scan_passes,
    rank_counts_loop,
    sample_searchsorted,
    threshold_bucket,
)

ORACLE_TABLES = {"br": br_prob_table, "ai": ai_prob_table, "index": index_prob_table}


def m_grid(m: int):
    """The uniform m-point grid on [2, 0.2]."""
    return new_distribution(np.linspace(2.0, 0.2, m), [1.0 / m] * m)


def seedsequence_keys(seed: int, reps) -> np.ndarray:
    return np.array([np.random.SeedSequence(seed, spawn_key=(rep,)).generate_state(2, np.uint64)
                     for rep in reps])


class TestBlockKeys:
    # one to seven 32-bit seed words; SeedSequence pads fewer than four
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**200]

    def test_every_rep_to_1e5_at_the_reference_seed(self):
        reps = range(100_001)
        np.testing.assert_array_equal(block_keys(1, reps), seedsequence_keys(1, reps))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_equal_seedsequence_spawn_keys(self, seed):
        for reps in (range(0, 100_001, 10), range(2**31 - 2, 2**31 + 2), range(MAX_REPS - 3, MAX_REPS)):
            np.testing.assert_array_equal(block_keys(seed, reps), seedsequence_keys(seed, reps))

    @pytest.mark.parametrize("seed", [1, 2**200])
    def test_block_rows_replay_episode_stream(self, masspoint5, seed):
        # 70 reps take two scratch fills of one Philox, restarted per row
        d, n, reps = masspoint5, 40, range(5, 75)
        ranks, u, counts = simulate._draw_block(
            d, seed, reps, n, np.empty((SCRATCH_REPS, 2 * n)), True)
        for col, rep in enumerate(reps):
            want = episode_stream(seed, rep).random(2 * n)
            np.testing.assert_array_equal(u[:, col], want[1::2])
            np.testing.assert_array_equal(ranks[:, col], sample_searchsorted(d, want[0::2]))
        np.testing.assert_array_equal(counts, rank_counts_loop(ranks.T, d.m))

    def test_negative_seed_raises_before_any_row(self, uniform5, monkeypatch):
        def draw(*args):
            raise AssertionError("a row was drawn")

        monkeypatch.setattr(simulate, "_uniform_block", draw)
        with pytest.raises(ValueError):
            block_keys(-1, range(3))
        with pytest.raises(ValueError):
            simulate_paths(uniform5, make_policy("br", uniform5, 10, 3), 10, 3, 4, seed=-1)

    def test_reps_beyond_one_spawn_word_rejected(self, uniform5):
        policy = make_policy("br", uniform5, 10, 3)
        check_cell(policy, 10, 3, MAX_REPS)
        with pytest.raises(InfeasiblePair):
            check_cell(policy, 10, 3, MAX_REPS + 1)
        with pytest.raises(InfeasiblePair):
            orbit_stats(uniform5, policy, 10, 3, 0.05, MAX_REPS + 1, seed=1)
        # a rep past one spawn word would wrap in block_keys' uint32 cast
        rec = run_episode(uniform5, policy, 10, 3, 1, rep=MAX_REPS - 1)
        assert rec.seed_ref == (1, MAX_REPS - 1)
        for rep in (-1, MAX_REPS):
            with pytest.raises(InfeasiblePair):
                run_episode(uniform5, policy, 10, 3, 1, rep=rep)


class TestEpisodes:
    def test_zero_budget_never_selects(self, uniform5):
        policy = make_policy("br", uniform5, 50, 0)
        rec = run_episode(uniform5, policy, 50, 0, 1)
        assert not rec.decisions.any() and rec.payoff == 0.0

    def test_full_budget_takes_everything(self, uniform5):
        policy = make_policy("dp", uniform5, 50, 50)
        rec = run_episode(uniform5, policy, 50, 50, 1)
        assert rec.decisions.all()
        assert rec.payoff == pytest.approx(
            float(np.sum(uniform5.support[rec.abilities - 1])), abs=1e-9
        )

    def test_common_random_numbers_across_policies(self, uniform5):
        n, k = 400, 120
        recs = [
            run_episode(uniform5, make_policy(name, uniform5, n, k), n, k, 77)
            for name in ("br", "dp", "ai")
        ]
        np.testing.assert_array_equal(recs[0].abilities, recs[1].abilities)
        np.testing.assert_array_equal(recs[0].abilities, recs[2].abilities)

    def test_budget_identities(self, masspoint5):
        policy = make_policy("ai", masspoint5, 80, 30)
        rec = run_episode(masspoint5, policy, 80, 30, 5, 3)
        assert rec.seed_ref == (5, 3)
        want = sample_searchsorted(masspoint5, episode_stream(5, 3).random(160)[0::2])
        np.testing.assert_array_equal(rec.abilities, want)
        np.testing.assert_array_equal(
            np.diff(rec.budget_path), -rec.decisions.astype(np.int64)
        )
        assert rec.decisions.sum() <= 30


class TestBatchConsistency:
    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index"])
    def test_engine_replays_oracle_decisions(self, masspoint5, name):
        # every decision of the batch engine must follow the policy's
        # defining rule, recomputed outside the library from the same draws
        d = masspoint5
        n, k, reps, seed = 70, 25, 20, 99
        payoffs, counts, paths = simulate_paths(d, make_policy(name, d, n, k), n, k, reps, seed)
        if name == "dp":
            g = exact_value_table(d.support, d.pmf, n, k)
            tie_tol = Fraction(TIE_TOL_SCALE * float(d.support[0]))
        else:
            table = ORACLE_TABLES[name](d, n, k)
        for rep in range(reps):
            u = episode_stream(seed, rep).random(2 * n)
            abilities = d.sample_many(u[0::2])
            decisions = paths[rep, 1:] < paths[rep, :-1]
            for t_next in range(1, n + 1):
                j, kappa = int(abilities[t_next - 1]), int(paths[rep, t_next - 1])
                if kappa == 0:
                    want = False
                elif name == "dp":
                    ell = n - t_next + 1
                    h = g[ell - 1][kappa] - g[ell - 1][kappa - 1]
                    want = Fraction(float(d.support[j - 1])) >= h - tie_tol
                else:
                    want = u[2 * t_next - 1] < table(t_next)[j - 1, kappa]
                assert decisions[t_next - 1] == want, (rep, t_next)
            assert payoffs[rep] == pytest.approx(
                float(np.sum(d.support[abilities[decisions] - 1])), abs=1e-9
            )
            np.testing.assert_array_equal(counts[rep], np.bincount(abilities, minlength=d.m + 1)[1:])

    def test_ratio_mean_single_rep_is_the_path(self, uniform5):
        n, k, seed = 60, 18, 12
        policy = make_policy("br", uniform5, n, k)
        mean_ratio, mean_budget = ratio_mean_curve(uniform5, policy, n, k, 1, seed)
        rec = run_episode(uniform5, policy, n, k, seed)
        np.testing.assert_allclose(mean_ratio, rec.ratio_path, atol=1e-12)
        np.testing.assert_allclose(mean_budget, rec.budget_path[:n], atol=1e-12)

    def test_paired_payoffs_reproducible(self, uniform5):
        policy = make_policy("br", uniform5, 50, 15)
        a = paired_payoffs_cells(uniform5, 50, [(policy, 15)], 64, seed=2)[0]
        b = paired_payoffs_cells(uniform5, 50, [(policy, 15)], 64, seed=2)[0]
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("n,k", [(10, 11), (10, -1), (0, 0)])
    def test_infeasible_pair_raises(self, uniform5, n, k):
        # the engine checked only reps and paired k > n with the offline sort
        policy = make_policy("ai", uniform5, 10, 5)
        with pytest.raises(InfeasiblePair):
            paired_payoffs_cells(uniform5, n, [(policy, k)], 8, seed=1)

    @pytest.mark.parametrize("n,k,reps", [(10, 11, 8), (10, -1, 8), (0, 0, 8), (10, 5, 0)])
    def test_every_entry_point_checks_before_drawing(self, uniform5, monkeypatch, n, k, reps):
        def draw(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(simulate, "_draw_block", draw)
        policy = make_policy("ai", uniform5, 10, 5)
        calls = [
            lambda: paired_payoffs_cells(uniform5, n, [(policy, 5), (policy, k)], reps, seed=1),
            lambda: simulate_paths(uniform5, policy, n, k, reps, seed=1),
            lambda: ratio_mean_curve(uniform5, policy, n, k, reps, seed=1),
            lambda: orbit_stats(uniform5, policy, n, k, 0.05, reps, seed=1),
            lambda: run_episode(uniform5, policy, n, k, 1, rep=reps - 1),
        ]
        for call in calls:
            with pytest.raises(InfeasiblePair):
                call()

    @pytest.mark.parametrize("name,n,k,error", [
        ("dp", 11, 5, TableMismatch),
        ("dp", 10, 6, TableMismatch),
        ("matrix", 12, 5, DimensionMismatch),
    ])
    def test_policy_for_another_cell_raises_before_work(
        self, uniform5, monkeypatch, name, n, k, error
    ):
        # the hooks once raised these, after one block or forward step was done
        if name == "dp":
            policy = make_policy("dp", uniform5, 10, 5)
        else:
            policy = NonAdaptivePolicy(uniform5, NonAdaptiveMatrix.of(np.full((5, 10), 0.5)), name)
        work = []
        draw, rates = simulate._draw_block, policy.rates
        monkeypatch.setattr(simulate, "_draw_block", lambda *a: work.append("draw") or draw(*a))
        monkeypatch.setattr(policy, "rates", lambda *a: work.append("rates") or rates(*a))
        calls = [
            lambda: paired_payoffs_cells(uniform5, n, [(policy, k)], 8, seed=1),
            lambda: simulate_paths(uniform5, policy, n, k, 8, seed=1),
            lambda: ratio_mean_curve(uniform5, policy, n, k, 8, seed=1),
            lambda: orbit_stats(uniform5, policy, n, k, 0.05, 8, seed=1),
            lambda: run_episode(uniform5, policy, n, k, 1),
            lambda: _forward_value(uniform5, policy, n, k),
        ]
        for call in calls:
            with pytest.raises(error):
                call()
            assert work == []


class TestRankCounts:
    def test_bincount_matches_loop_at_m200(self):
        d = new_distribution(np.linspace(2.0, 0.2, 200), [1 / 200] * 200)
        ranks = d.sample_many(np.random.default_rng(3).random((150, 300)))
        got = _rank_counts(ranks, d.m)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, rank_counts_loop(ranks, d.m))

    def test_engine_counts_match_loop_at_m200(self, monkeypatch):
        # 150 reps in blocks of 128 take three scratch fills, the last partial
        d = new_distribution(np.linspace(2.0, 0.2, 200), [1 / 200] * 200)
        n, k, reps, seed = 300, 90, 150, 8
        assert SCRATCH_REPS < reps < 3 * SCRATCH_REPS
        monkeypatch.setattr(simulate, "CHUNK", 128)
        _, counts, _ = simulate_paths(d, make_policy("ai", d, n, k), n, k, reps, seed)
        ranks = np.stack([d.sample_many(episode_stream(seed, rep).random(2 * n)[0::2])
                          for rep in range(reps)])
        np.testing.assert_array_equal(counts, rank_counts_loop(ranks, d.m))


class TestOrbit:
    def test_start_on_threshold_enters_immediately(self, uniform5):
        n, k = 1000, 300  # k/n = 0.30 = T_2
        policy = make_policy("br", uniform5, n, k)
        rec = run_episode(uniform5, policy, n, k, 8)
        diag = orbit_diagnostics(rec, uniform5, delta=0.05)
        assert diag.tau0 == 0 and diag.j_tau0 == 2
        assert diag.tau0 <= diag.tau <= n

    def test_initial_deviation_bound(self, uniform5):
        n, k, delta = 1000, 340, 0.05
        policy = make_policy("br", uniform5, n, k)
        for rep in range(10):
            rec = run_episode(uniform5, policy, n, k, 21, rep)
            diag = orbit_diagnostics(rec, uniform5, delta)
            if diag.j_tau0 <= uniform5.m:
                assert abs(diag.y_path[0]) <= delta / 2 * (n - diag.tau0) + 1e-9

    def test_cutoff_branch_on_short_horizon(self, uniform5):
        # with n - ceil(2/delta) - 1 <= 0 the sentinel fires at time zero
        policy = make_policy("br", uniform5, 30, 10)
        rec = run_episode(uniform5, policy, 30, 10, 2)
        diag = orbit_diagnostics(rec, uniform5, delta=0.05)
        assert diag.j_tau0 == uniform5.m + 1
        assert diag.tau == diag.tau0 == cutoff_time(30, 0.05) == 0
        assert diag.y_path.size == 0

    def test_jump_bound_up_to_cutoff(self, uniform5):
        n, k, delta = 500, 150, 0.05
        policy = make_policy("br", uniform5, n, k)
        t_cut = cutoff_time(n, delta)
        for rep in range(5):
            rec = run_episode(uniform5, policy, n, k, 31, rep)
            jumps = np.abs(np.diff(rec.ratio_path))
            assert np.all(jumps[: t_cut + 1] <= delta / 2 + 1e-12)

    def test_bad_delta(self, uniform5):
        # one rule for both: 0 < delta < half the minimal mass (0.1 on u5);
        # orbit_diagnostics once took delta up to the smallest threshold gap
        policy = make_policy("br", uniform5, 100, 30)
        rec = run_episode(uniform5, policy, 100, 30, 0)
        for delta in (half_min_mass(uniform5), 0.15, 0.0):
            with pytest.raises(BadDelta):
                orbit_stats(uniform5, policy, 100, 30, delta, 10, seed=0)
            with pytest.raises(BadDelta):
                orbit_diagnostics(rec, uniform5, delta)

    def test_stats_batch_matches_single(self, uniform5):
        n, k, delta, reps, seed = 600, 180, 0.05, 8, 44
        policy = make_policy("br", uniform5, n, k)
        sample = orbit_stats(uniform5, policy, n, k, delta, reps, seed)
        for rep in range(reps):
            rec = run_episode(uniform5, policy, n, k, seed, rep)
            diag = orbit_diagnostics(rec, uniform5, delta)
            assert sample.tau0[rep] == diag.tau0
            assert sample.j_tau0[rep] == diag.j_tau0
            assert sample.tau[rep] == diag.tau


class TestOrbitScanOracle:
    @pytest.mark.parametrize("m", [5, 50, 200])
    @pytest.mark.parametrize("name", ["br", "ai"])
    def test_simulated_paths(self, m, name):
        d = m_grid(m)
        thr = thresholds(d)
        delta = 0.9 * half_min_mass(d)
        n, k, reps = 1200, 360, 48
        _, _, paths = simulate_paths(d, make_policy(name, d, n, k), n, k, reps, seed=m)
        got = _orbit_scan(np.ascontiguousarray(paths.T), thr, delta, n)
        want = orbit_scan_passes(paths, thr, delta, n)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert np.any(got[1] <= m) and np.any(got[2] > got[0])

    @pytest.mark.parametrize("m,half", [(5, 2.0**-5), (50, 2.0**-8), (200, 2.0**-10)])
    def test_hand_built_boundaries(self, m, half):
        # at t with n - t a power of two the ratio of budget r * (n - t) is r
        # exactly, so a path can put it on T_j +- delta/2 (entry) or T_j +- delta
        # (exit), and one ulp either side
        d = m_grid(m)
        thr = thresholds(d)
        delta = 2.0 * half
        assert delta < half_min_mass(d)
        n = 8192
        t_in, t_out = n - 4096, n - 2048
        t_cut = cutoff_time(n, delta)
        assert t_out < t_cut
        far = 0.5 * (thr[0] + thr[1])  # more than delta from every T_j
        left = n - np.arange(n + 1.0)

        def path(marks):
            ratio = np.full(n + 1, far)
            for t, r in marks:
                ratio[t] = r
            return ratio * left

        def around(x):
            return [r for r in (np.nextafter(x, -1.0), x, np.nextafter(x, 2.0)) if r >= 0.0]

        columns, exact = [], 0
        for j in sorted({1, 2, m // 2, m}):
            anchor = thr[j - 1]
            for r in around(anchor + half) + around(anchor - half):
                columns.append(path([(t_in, r)]))
                exact += abs(r - anchor) == half
            for r in around(anchor + delta) + around(anchor - delta):
                columns.append(path([(slice(t_in, t_out), anchor), (t_out, r)]))
        # cut off first: a hit at t_cut, or an entry just before it
        anchor = thr[1]
        columns += [path([]), path([(t_cut, anchor)]), path([(slice(t_cut - 1, None), anchor)])]
        paths = np.stack(columns, axis=1)
        got = _orbit_scan(paths, thr, delta, n)
        want = orbit_scan_passes(paths.T, thr, delta, n)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert exact > 0  # the entry test's boundary is probed exactly
        tau0, j_tau0, tau = got
        assert set(tau0.tolist()) >= {t_in, t_cut} and np.all(j_tau0[-3:-1] == m + 1)
        assert set(tau.tolist()) >= {t_in + 1, t_out, t_out + 1}


class TestDrift:
    def test_analytic_values_in_orbit(self, masspoint5):
        # br's drift T_j - sel from its rates hook is the closed form, which
        # is exactly -f_j/2 at or above the anchor and +f_j/2 below it
        d = masspoint5
        thr = thresholds(d)
        n = 1000
        br = make_policy("br", d, n, n)

        def drift(t, budget, j):
            sel = br.rates(t + 1, n, np.array([budget]))[0][0]
            closed = drift_at_state(d, thr, n, t, budget, j)
            assert abs(thr[j - 1] - sel - closed) <= 1e-15
            return closed

        for j in range(2, d.m + 1):
            t = 400
            anchor = thr[j - 1]
            above = int(np.ceil(anchor * (n - t) + 1))
            below = int(np.floor(anchor * (n - t) - 1))
            assert drift(t, above, j) == -0.5 * d.pmf[j - 1]
            assert drift(t, below, j) == 0.5 * d.pmf[j - 1]
        assert drift(100, 0, 3) == thr[3 - 1]

    def test_empirical_drift_matches_analytic(self, uniform5):
        # conditional means of Y increments inside the orbit, by sign of Y
        d = uniform5
        n, k, delta, reps, seed = 1000, 300, 0.05, 400, 606
        thr = thresholds(d)
        policy = make_policy("br", d, n, k)
        _, _, paths = simulate_paths(d, policy, n, k, reps, seed)
        t_cut = cutoff_time(n, delta)
        anchor = thr[2 - 1]
        times = np.arange(n)
        up, down = [], []
        for row in paths:
            ratio = row[:n] / (n - times)
            y = row[:n] - anchor * (n - times)
            bucket = threshold_bucket(thr, ratio)  # tie rule matches the policy's
            ok = (np.abs(ratio - anchor) <= delta) & (row[:n] > 0) & (times < t_cut)
            inc = (row[1 : n + 1] - anchor * (n - times - 1)) - y
            up.extend(inc[ok & (bucket == 2)])
            down.extend(inc[ok & (bucket == 1)])
        for data, want in ((np.array(up), -0.1), (np.array(down), 0.1)):
            se = data.std(ddof=1) / np.sqrt(data.size)
            assert abs(data.mean() - want) <= 3 * se

    def test_ai_increments_center_on_zero(self, uniform5):
        # stopped-ratio increments over >= 1e5 eligible steps
        d = uniform5
        n, k, reps, seed = 500, 150, 300, 17
        policy = make_policy("ai", d, n, k)
        _, _, paths = simulate_paths(d, policy, n, k, reps, seed)
        times = np.arange(n - 1)
        ratios = paths[:, : n - 1] / (n - times)
        nxt = paths[:, 1:n] / (n - times - 1)
        eligible = ratios <= 1.0
        inc = (nxt - ratios)[eligible]
        assert inc.size >= 100_000
        se = inc.std(ddof=1) / np.sqrt(inc.size)
        assert abs(inc.mean()) <= 3 * se


class TestMeanCurves:
    def test_br_and_dp_hug_the_same_threshold(self, uniform5):
        n, k, reps, seed = 1000, 300, 400, 9
        curves = {}
        for name in ("br", "dp"):
            policy = make_policy(name, uniform5, n, k)
            curves[name], _ = ratio_mean_curve(uniform5, policy, n, k, reps, seed)
        gap = np.abs(curves["br"] - curves["dp"])[: n - 50]
        assert gap.max() < 0.025  # half the orbit width at delta = eps/2


class TestCutoff:
    def test_formula_and_clamp(self):
        assert cutoff_time(1000, 0.05) == 1000 - 41
        assert cutoff_time(10, 0.05) == 0

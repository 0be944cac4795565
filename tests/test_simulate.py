import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from multisecretary import (
    AdaptiveIndexPolicy,
    BadDelta,
    BreakpointPolicy,
    DimensionMismatch,
    InfeasiblePair,
    NonAdaptivePolicy,
    TableMismatch,
    cutoff_time,
    half_min_mass,
    make_policy,
    new_distribution,
    orbit_stats,
    ratio_mean_curve,
    run_episode,
    sweep,
    thresholds,
)
from multisecretary import simulate
from multisecretary.dp import TIE_TOL_SCALE
from multisecretary.evaluate import exact_regret
from multisecretary.simulate import (
    MAX_REPS,
    SCRATCH_REPS,
    _rank_counts,
    block_keys,
    check_cell,
)
from oracles import (
    ai_prob_table,
    br_prob_table,
    drift_at_state,
    episode_stream,
    exact_value_table,
    index_prob_table,
    orbit_scan_chunks,
    orbit_scan_passes,
    rank_counts_loop,
    sample_searchsorted,
    simulate_paths,
    threshold_bucket,
)

ORACLE_TABLES = {"br": br_prob_table, "ai": ai_prob_table, "index": index_prob_table}


def m_grid(m: int):
    """The uniform m-point grid on [2, 0.2]."""
    return new_distribution(np.linspace(2.0, 0.2, m), [1.0 / m] * m)


def seedsequence_keys(seed: int, reps) -> np.ndarray:
    return np.array([np.random.SeedSequence(seed, spawn_key=(rep,)).generate_state(2, np.uint64)
                     for rep in reps])


def pass_rows(policy, n, k, reps, seed, monkeypatch):
    """The (n, len(reps)) ranks and decision uniforms a path pass over the
    stack ``(policy, [k])`` steps over, window by window, and the rank
    counts of a payoff pass over the same replications."""
    stepped, step_block = [], simulate._step_block

    def spy(d, n, stacks, ranks, u, lo, paths):
        stepped.append(u)
        step_block(d, n, stacks, ranks, u, lo, paths)

    monkeypatch.setattr(simulate, "_step_block", spy)
    ranks = np.empty((n, len(reps)), dtype=np.int16)
    u = np.empty((n, len(reps)))
    for rows, chunk, lo, _ in simulate._blocks(n, [(policy, [k])], reps, seed, paths=True):
        ranks[lo : lo + len(chunk), rows] = chunk
        u[lo : lo + len(chunk), rows] = stepped[-1]
    counts = np.empty((len(reps), policy.dist.m), dtype=np.int64)
    for rows, block_counts, _ in simulate._blocks(n, [(policy, [k])], reps, seed):
        counts[rows] = block_counts
    return ranks, u, counts


def assert_stats_rows_scan_episodes(policy, n, k, reps, seed, delta=0.05):
    """Each row of ``orbit_stats`` is the chunk-by-chunk ``_orbit_scan`` of
    that replication's ``run_episode`` path against the policy's thresholds."""
    sample = orbit_stats(policy, n, k, delta, reps, seed)
    thr = thresholds(policy.dist)
    for rep in range(reps):
        path = run_episode(policy, n, k, seed, rep).budget_path[:, None]
        got = [int(a[0]) for a in orbit_scan_chunks(path, thr, delta, n)]
        assert got == [sample.tau0[rep], sample.j_tau0[rep], sample.tau[rep]]


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

    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 2**200])
    def test_block_rows_replay_episode_stream(self, masspoint5, monkeypatch, seed, window):
        # a Philox emits its doubles four at a time: windows of one to three
        # periods (two to six doubles) leave each stream at every offset into
        # a counter's four, and the last of 40 periods is a partial window at
        # three.  70 reps take blocks of 48 + 22, in groups of 16 + 16 + 16
        # and 16 + 6; the second block reuses the first's leading generators
        monkeypatch.setattr(simulate, "WINDOW", window)
        monkeypatch.setattr(simulate, "CHUNK", 48)
        monkeypatch.setattr(simulate, "SCRATCH_REPS", 16)
        d, n, k, reps = masspoint5, 40, 15, range(5, 75)
        ranks, u, counts = pass_rows(make_policy("ai", d, n, k), n, k, reps, seed, monkeypatch)
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
            simulate_paths(make_policy("br", uniform5, 10, 3), 10, 3, 4, seed=-1)

    def test_reps_beyond_one_spawn_word_rejected(self, uniform5):
        policy = make_policy("br", uniform5, 10, 3)
        check_cell(policy, 10, 3, MAX_REPS)
        with pytest.raises(InfeasiblePair):
            check_cell(policy, 10, 3, MAX_REPS + 1)
        with pytest.raises(InfeasiblePair):
            orbit_stats(policy, 10, 3, 0.05, MAX_REPS + 1, seed=1)
        # a rep past one spawn word would wrap in block_keys' uint32 cast
        rec = run_episode(policy, 10, 3, 1, rep=MAX_REPS - 1)
        want = sample_searchsorted(uniform5, episode_stream(1, MAX_REPS - 1).random(20)[0::2])
        np.testing.assert_array_equal(rec.abilities, want)
        for rep in (-1, MAX_REPS):
            with pytest.raises(InfeasiblePair):
                run_episode(policy, 10, 3, 1, rep=rep)


class TestWindows:
    # a pass draws each block WINDOW periods at a time, each column's
    # generator going on with its replication's stream: no byte depends on
    # the window size

    @pytest.mark.parametrize("n", [1, 4, 5, 6, 37, 64, 65])
    @pytest.mark.parametrize("window", [5, 16, 64])
    def test_window_rows_replay_episode_stream(self, uniform5, monkeypatch, window, n):
        # horizons one short of, at and one past a window or two; 73 reps
        # from rep 7 take blocks of 32 + 32 + 9
        monkeypatch.setattr(simulate, "WINDOW", window)
        monkeypatch.setattr(simulate, "CHUNK", 32)
        k, reps, seed = n // 3, range(7, 80), 11
        ranks, u, counts = pass_rows(make_policy("ai", uniform5, n, k), n, k, reps, seed, monkeypatch)
        for col, rep in enumerate(reps):
            want = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=(rep,)))).random(2 * n)
            np.testing.assert_array_equal(u[:, col], want[1::2])
            np.testing.assert_array_equal(ranks[:, col], sample_searchsorted(uniform5, want[0::2]))
        np.testing.assert_array_equal(counts, rank_counts_loop(ranks.T, uniform5.m))

    def outputs(self, d, n, k, reps, seed):
        ai = make_policy("ai", d, n, k)
        records, failures = sweep(d, ["br", "dp", "ai"], [(n, k), (n, k // 2)], "mc", reps, seed)
        assert failures == []
        sample = orbit_stats(ai, n, k, 0.05, reps, seed)
        return (records, *simulate_paths(ai, n, k, reps, seed),
                sample.tau0, sample.j_tau0, sample.tau,
                run_episode(ai, n, k, seed, rep=reps - 1).budget_path)

    @pytest.mark.parametrize("window", [5, 64, 100])
    def test_results_equal_at_every_window(self, uniform5, monkeypatch, window):
        # at 5 and 100 periods a path pass's chunks no longer start at
        # multiples of 64, and n = 200 ends in a partial window at all three
        monkeypatch.setattr(simulate, "CHUNK", 128)
        n, k, reps, seed = 200, 60, 300, 3
        want = self.outputs(uniform5, n, k, reps, seed)
        monkeypatch.setattr(simulate, "WINDOW", window)
        got = self.outputs(uniform5, n, k, reps, seed)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(a, b)


class TestEpisodes:
    def test_zero_budget_never_selects(self, uniform5):
        policy = make_policy("br", uniform5, 50, 0)
        rec = run_episode(policy, 50, 0, 1)
        assert not rec.decisions.any()

    def test_full_budget_takes_everything(self, uniform5):
        policy = make_policy("dp", uniform5, 50, 50)
        rec = run_episode(policy, 50, 50, 1)
        assert rec.decisions.all()

    def test_common_random_numbers_across_policies(self, uniform5):
        n, k = 400, 120
        recs = [
            run_episode(make_policy(name, uniform5, n, k), n, k, 77)
            for name in ("br", "dp", "ai")
        ]
        np.testing.assert_array_equal(recs[0].abilities, recs[1].abilities)
        np.testing.assert_array_equal(recs[0].abilities, recs[2].abilities)

    def test_budget_identities(self, masspoint5):
        policy = make_policy("ai", masspoint5, 80, 30)
        rec = run_episode(policy, 80, 30, 5, 3)
        want = sample_searchsorted(masspoint5, episode_stream(5, 3).random(160)[0::2])
        np.testing.assert_array_equal(rec.abilities, want)
        np.testing.assert_array_equal(
            np.diff(rec.budget_path), -rec.decisions.astype(np.int64)
        )
        assert rec.decisions.sum() <= 30


class TestEpisodeIsPathRow:
    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index"])
    def test_run_episode_is_row_rep_of_simulate_paths(self, masspoint5, monkeypatch, name):
        # reps 127 and 128 end and start a block of simulate_paths
        d, n, k, reps, seed = masspoint5, 60, 20, 300, 13
        monkeypatch.setattr(simulate, "CHUNK", 128)
        policy = make_policy(name, d, n, k)
        payoffs, counts, paths = simulate_paths(policy, n, k, reps, seed)
        for rep in (0, 127, 128, 299):
            rec = run_episode(policy, n, k, seed, rep)
            np.testing.assert_array_equal(rec.budget_path, paths[rep])
            np.testing.assert_array_equal(np.bincount(rec.abilities, minlength=d.m + 1)[1:],
                                          counts[rep])
            np.testing.assert_array_equal(
                rec.abilities, sample_searchsorted(d, episode_stream(seed, rep).random(2 * n)[0::2]))
            # the payoff pass sums period by period, left to right
            assert np.cumsum(d.support[rec.abilities - 1] * rec.decisions)[-1] == payoffs[rep]


class TestBatchConsistency:
    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index"])
    def test_engine_replays_oracle_decisions(self, masspoint5, name):
        # every decision of the batch engine must follow the policy's
        # defining rule, recomputed outside the library from the same draws
        d = masspoint5
        n, k, reps, seed = 70, 25, 20, 99
        payoffs, counts, paths = simulate_paths(make_policy(name, d, n, k), n, k, reps, seed)
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

    def test_paired_payoffs_reproducible(self, uniform5):
        runs = [sweep(uniform5, ["br", "ai"], [(50, 15), (50, 25)], "mc", 64, seed=2)
                for _ in range(2)]
        assert runs[0] == runs[1] and len(runs[0][0]) == 4

    @pytest.mark.parametrize("n,k", [(10, 11), (10, -1), (0, 0)])
    def test_infeasible_pair_raises(self, uniform5, monkeypatch, n, k):
        # the engine checked only reps and paired k > n with the offline sort
        drawn = []
        monkeypatch.setattr(simulate, "_uniform_block", lambda *a: drawn.append(a))
        records, failures = sweep(uniform5, ["ai", "br"], [(n, k)], "mc", 8, seed=1)
        assert records == [] and drawn == []
        assert [cell for cell, _ in failures] == [("ai", n, k), ("br", n, k)]
        assert all(isinstance(exc, InfeasiblePair) for _, exc in failures)

    @pytest.mark.parametrize("n,k,reps", [(10, 11, 8), (10, -1, 8), (0, 0, 8), (10, 5, 0)])
    def test_every_entry_point_checks_before_drawing(self, uniform5, monkeypatch, n, k, reps):
        def work(*args):
            raise AssertionError("a block was drawn or a rate asked for")

        monkeypatch.setattr(simulate, "_draw_window", work)
        policy = make_policy("ai", uniform5, 10, 5)
        monkeypatch.setattr(policy, "rates", work)
        calls = [
            lambda: simulate_paths(policy, n, k, reps, seed=1),
            lambda: orbit_stats(policy, n, k, 0.05, reps, seed=1),
            lambda: run_episode(policy, n, k, 1, rep=reps - 1),
        ]
        if reps:  # the exact curve reads no reps
            calls.append(lambda: ratio_mean_curve(policy, n, k))
        for call in calls:
            with pytest.raises(InfeasiblePair):
                call()
        records, failures = sweep(uniform5, ["ai"], [(n, k)], "mc", reps, seed=1)
        assert records == [] and isinstance(failures[0][1], InfeasiblePair)

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
            policy = NonAdaptivePolicy(uniform5, np.full((5, 10), 0.5), name)
        work = []
        draw, rates = simulate._draw_window, policy.rates
        monkeypatch.setattr(simulate, "_draw_window", lambda *a: work.append("draw") or draw(*a))
        monkeypatch.setattr(policy, "rates", lambda *a: work.append("rates") or rates(*a))
        calls = [
            lambda: simulate_paths(policy, n, k, 8, seed=1),
            lambda: ratio_mean_curve(policy, n, k),
            lambda: orbit_stats(policy, n, k, 0.05, 8, seed=1),
            lambda: run_episode(policy, n, k, 1),
            lambda: exact_regret(policy, n, k),
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
        # 150 reps in blocks of 128 take three scratch fills per window, the
        # last partial, and 300 periods two windows, whose counts add up
        d = new_distribution(np.linspace(2.0, 0.2, 200), [1 / 200] * 200)
        n, k, reps, seed = 300, 90, 150, 8
        assert SCRATCH_REPS < reps < 3 * SCRATCH_REPS
        monkeypatch.setattr(simulate, "CHUNK", 128)
        _, counts, _ = simulate_paths(make_policy("ai", d, n, k), n, k, reps, seed)
        ranks = np.stack([d.sample_many(episode_stream(seed, rep).random(2 * n)[0::2])
                          for rep in range(reps)])
        np.testing.assert_array_equal(counts, rank_counts_loop(ranks, d.m))


class TestOrbit:
    def test_start_on_threshold_enters_immediately(self, uniform5):
        n, k = 1000, 300  # k/n = 0.30 = T_2
        policy = make_policy("br", uniform5, n, k)
        sample = orbit_stats(policy, n, k, 0.05, 1, seed=8)
        assert sample.tau0[0] == 0 and sample.j_tau0[0] == 2
        assert sample.tau0[0] <= sample.tau[0] <= n

    def test_initial_deviation_bound(self, uniform5):
        n, k, delta, reps, seed = 1000, 340, 0.05, 10, 21
        policy = make_policy("br", uniform5, n, k)
        thr = thresholds(uniform5)
        sample = orbit_stats(policy, n, k, delta, reps, seed)
        assert np.any(sample.j_tau0 <= uniform5.m)
        for rep in range(reps):
            tau0, j = int(sample.tau0[rep]), int(sample.j_tau0[rep])
            if j <= uniform5.m:
                budget = run_episode(policy, n, k, seed, rep).budget_path[tau0]
                assert abs(budget - thr[j - 1] * (n - tau0)) <= delta / 2 * (n - tau0) + 1e-9

    def test_cutoff_branch_on_short_horizon(self, uniform5):
        # with n - ceil(2/delta) - 1 <= 0 the sentinel fires at time zero
        policy = make_policy("br", uniform5, 30, 10)
        sample = orbit_stats(policy, 30, 10, 0.05, 1, seed=2)
        assert sample.j_tau0[0] == uniform5.m + 1
        assert sample.tau[0] == sample.tau0[0] == cutoff_time(30, 0.05) == 0

    def test_jump_bound_up_to_cutoff(self, uniform5):
        n, k, delta = 500, 150, 0.05
        policy = make_policy("br", uniform5, n, k)
        t_cut = cutoff_time(n, delta)
        for rep in range(5):
            rec = run_episode(policy, n, k, 31, rep)
            jumps = np.abs(np.diff(rec.ratio_path))
            assert np.all(jumps[: t_cut + 1] <= delta / 2 + 1e-12)

    def test_bad_delta(self, uniform5):
        # one rule: 0 < delta < half the minimal mass (0.1 on u5); 0.15 lies
        # below the smallest threshold gap (0.2) and still raises
        policy = make_policy("br", uniform5, 100, 30)
        for delta in (half_min_mass(uniform5), 0.15, 0.0):
            with pytest.raises(BadDelta):
                orbit_stats(policy, 100, 30, delta, 10, seed=0)

    def test_stats_batch_matches_single(self, uniform5):
        assert_stats_rows_scan_episodes(make_policy("br", uniform5, 600, 180), 600, 180, 8, 44)

    def test_stats_match_scan_of_masspoint_dp_paths(self, masspoint5):
        # the thresholds scanned are those of the policy's own distribution
        assert_stats_rows_scan_episodes(make_policy("dp", masspoint5, 500, 196), 500, 196, 6, 9)


class TestOrbitScanOracle:
    @pytest.mark.parametrize("m", [5, 50, 200])
    @pytest.mark.parametrize("name", ["br", "ai"])
    def test_simulated_paths(self, m, name):
        d = m_grid(m)
        thr = thresholds(d)
        delta = 0.9 * half_min_mass(d)
        n, k, reps = 1200, 360, 48
        _, _, paths = simulate_paths(make_policy(name, d, n, k), n, k, reps, seed=m)
        got = orbit_scan_chunks(np.ascontiguousarray(paths.T), thr, delta, n)
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
        got = orbit_scan_chunks(paths, thr, delta, n)
        want = orbit_scan_passes(paths.T, thr, delta, n)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert exact > 0  # the entry test's boundary is probed exactly
        tau0, j_tau0, tau = got
        assert set(tau0.tolist()) >= {t_in, t_cut} and np.all(j_tau0[-3:-1] == m + 1)
        assert set(tau.tolist()) >= {t_in + 1, t_out, t_out + 1}


class TestOrbitEntryChunks:
    # the entry search reads _ENTRY_ROWS periods at a time and drops each
    # column once it has entered: entries on either side of every chunk
    # boundary, at t = 0 and at t_cut - 1, and none at all, must come out as
    # the one-pass oracle finds them

    @pytest.mark.parametrize("m", [5, 50])
    @pytest.mark.parametrize("chunks", [0.5, 4.25])
    def test_entries_around_chunk_boundaries(self, m, chunks):
        d = m_grid(m)
        thr = thresholds(d)
        delta = 0.9 * half_min_mass(d)
        rows = simulate._ENTRY_ROWS
        t_cut = int(chunks * rows)
        n = t_cut + math.ceil(2.0 / delta) + 1
        assert cutoff_time(n, delta) == t_cut
        far = 0.5 * (thr[0] + thr[1])  # more than delta from every T_j
        left = n - np.arange(n + 1.0)
        anchors = [thr[j - 1] for j in sorted({1, 2, m // 2, m})]
        entries = {0, t_cut - 1} | {b + off for b in range(rows, t_cut, rows) for off in (-1, 0, 1)}
        columns = []
        for i, t_in in enumerate(sorted(entries)):
            anchor = anchors[i % len(anchors)]
            for stay in (1, rows + 2):  # leave at once, or stay past the next boundary
                ratio = np.full(n + 1, far)
                ratio[t_in : t_in + stay] = anchor
                columns.append(ratio * left)
        columns.append(far * left)  # no entry: the cutoff branch
        paths = np.stack(columns, axis=1)
        got = orbit_scan_chunks(paths, thr, delta, n)
        want = orbit_scan_passes(paths.T, thr, delta, n)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        tau0, j_tau0, _ = got
        assert set(tau0.tolist()) == entries | {t_cut}
        assert j_tau0[-1] == m + 1 and np.all(j_tau0[:-1] <= m)


class TestOrbitExitChunks:
    # the ratios and the exit test are computed _ENTRY_ROWS periods at a time:
    # exits on either side of every chunk boundary, at t_cut - 1, after an
    # entry in the last (partial) chunk, after a re-entry, and none at all
    # must come out as the one-pass oracle finds them

    @pytest.mark.parametrize("m", [5, 50])
    @pytest.mark.parametrize("chunks", [0.5, 4.25])
    def test_exits_around_chunk_boundaries(self, m, chunks):
        d = m_grid(m)
        thr = thresholds(d)
        delta = 0.9 * half_min_mass(d)
        rows = simulate._ENTRY_ROWS
        t_cut = int(chunks * rows)
        n = t_cut + math.ceil(2.0 / delta) + 1
        assert cutoff_time(n, delta) == t_cut
        far = 0.5 * (thr[0] + thr[1])  # more than delta from every T_j
        left = n - np.arange(n + 1.0)
        anchors = [thr[j - 1] for j in sorted({1, 2, m // 2, m})]
        exits = {t_cut - 1} | {b + off for b in range(rows, t_cut, rows) for off in (-1, 0, 1)}
        spans = [(t_in, t_out) for t_out in sorted(exits) for t_in in (0, t_out - 1)]
        spans += [(t_cut - 2, t_cut - 1), (t_cut - 2, n + 1)]  # enter in the last chunk
        columns, want_tau = [], []
        for i, (t_in, t_out) in enumerate(spans):
            anchor = anchors[i % len(anchors)]
            ratio = np.full(n + 1, far)
            ratio[t_in:t_out] = anchor
            columns.append(ratio * left)
            want_tau.append(min(t_out, t_cut))
            if t_out + 2 < t_cut:  # re-enter after the exit: the first exit counts
                ratio[t_out + 1 : t_out + rows] = anchor
                columns.append(ratio * left)
                want_tau.append(t_out)
        for ratio in (np.full(n + 1, far), np.where(np.arange(n + 1) < t_cut, far, thr[1])):
            columns.append(ratio * left)  # no entry before the cutoff
            want_tau.append(t_cut)
        paths = np.stack(columns, axis=1)
        got = orbit_scan_chunks(paths, thr, delta, n)
        want = orbit_scan_passes(paths.T, thr, delta, n)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        tau0, j_tau0, tau = got
        assert tau.tolist() == want_tau
        assert set(tau.tolist()) >= exits
        assert np.all(j_tau0[-2:] == m + 1) and np.all(j_tau0[:-2] <= m)


class TestWorkingSet:
    # a pass holds one set of block buffers, and a pass whose policies are
    # all deterministic stores no decision uniforms

    @pytest.mark.parametrize("name,limit_mib", [("br", 12), ("ai", 19)])
    def test_orbit_stats_peak_allocation(self, uniform5, name, limit_mib):
        n, k, reps = 1000, 300, 3 * simulate.CHUNK + 5
        policy = make_policy(name, uniform5, n, k)
        tracemalloc.start()
        try:
            orbit_stats(policy, n, k, 0.05, reps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    def test_orbit_stats_peak_does_not_grow_with_n(self, uniform5):
        # a pass holds WINDOW periods of a block at any n: ten times the
        # horizon may not raise the peak by half (a pass that draws each
        # block whole peaks at about 10 and 93 MiB here)
        def peak(n):
            policy = make_policy("br", uniform5, n, n * 3 // 10)
            tracemalloc.start()
            try:
                orbit_stats(policy, n, n * 3 // 10, 0.05, 128, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # a process's first draw imports numpy.random
        assert peak(40_000) <= 1.5 * peak(4000)

    def test_orbit_stats_holds_no_whole_path(self, uniform5):
        # a path pass holds WINDOW periods of draws plus one window of
        # _ENTRY_ROWS + 1 budget rows, not a block's (n + 1)-row int32 path,
        # which alone would add 31 MiB
        n, k = 8000, 2400
        policy = make_policy("br", uniform5, n, k)
        tracemalloc.start()
        try:
            orbit_stats(policy, n, k, 0.05, simulate.CHUNK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_deterministic_pass_gets_no_uniforms(self, uniform5, monkeypatch):
        n, k, reps = 50, 15, 40
        seen = []
        for cls in (BreakpointPolicy, AdaptiveIndexPolicy):
            def spy(self, left, budgets, abilities, u, _decide=cls.decide_batch):
                seen.append((self.name, u is None))
                return _decide(self, left, budgets, abilities, u)

            monkeypatch.setattr(cls, "decide_batch", spy)
        sweep(uniform5, ["br", "dp"], [(n, k)], "mc", reps, seed=1)
        assert set(seen) == {("br", True), ("dp", True)}
        seen.clear()
        sweep(uniform5, ["br", "dp", "ai"], [(n, k)], "mc", reps, seed=1)
        assert set(seen) == {("br", False), ("dp", False), ("ai", False)}

    def test_blocks_refill_one_read_only_set(self, uniform5, monkeypatch):
        # every block, the partial last one too, and every window of it
        # refills the same buffers and yields read-only views of them,
        # records included; a path pass yields one window of budgets per
        # chunk of _ENTRY_ROWS periods, a payoff pass one record per block
        monkeypatch.setattr(simulate, "CHUNK", 128)
        monkeypatch.setattr(simulate, "WINDOW", 32)
        monkeypatch.setattr(simulate, "_ENTRY_ROWS", 16)
        n, k, reps = 40, 12, 300  # two full blocks and a partial one, of 32 + 8 periods
        policy = make_policy("ai", uniform5, n, k)
        stepped, step_block = [], simulate._step_block

        def spy(d, n, stacks, ranks, u, lo, paths):
            stepped.append((lo, ranks, u))
            step_block(d, n, stacks, ranks, u, lo, paths)

        monkeypatch.setattr(simulate, "_step_block", spy)
        counts, payoffs = [], []
        for _, block_counts, (payoff,) in simulate._blocks(n, [(policy, [k])], range(reps), 1):
            counts.append(block_counts)
            payoffs.append(payoff)
        payoff_steps = stepped[:]
        stepped.clear()
        starts, ranks, windows = [], [], []
        for _, chunk, lo, (window,) in simulate._blocks(
                n, [(policy, [k])], range(reps), 1, paths=True):
            starts.append(lo)
            ranks.append(chunk)
            windows.append(window)
        widths = [128, 128, 44]
        assert [(c.shape, c.dtype) for c in counts] == [((w, uniform5.m), np.int64) for w in widths]
        assert [(p.shape, p.dtype) for p in payoffs] == [((1, w), np.float64) for w in widths]
        # a payoff pass steps a window at once, a path pass a chunk at a time
        assert [(lo, r.shape, u.shape) for lo, r, u in payoff_steps] == [
            (lo, (rows, w), (rows, w)) for w in widths for lo, rows in ((0, 32), (32, 8))]
        assert [lo for lo, _, _ in stepped] == starts == [0, 16, 32] * 3
        assert [r.shape for r in ranks] == [(rows, w) for w in widths for rows in (16, 16, 8)]
        assert [(p.shape, p.dtype) for p in windows] == [
            ((rows, 1, w), np.int32) for w in widths for rows in (17, 17, 9)]
        # the first chunk of every window reuses the same rows
        first_rows = [[u for _, _, u in payoff_steps], [u for lo, _, u in stepped if lo != 16],
                      [r for r, lo in zip(ranks, starts) if lo != 16]]
        for views in (counts, payoffs, windows, *first_rows):
            assert not any(a.flags.writeable for a in views)
            assert all(np.shares_memory(views[0], a) for a in views)
        for record in (payoffs[2], windows[-1], counts[1], ranks[-1]):
            with pytest.raises(ValueError, match="read-only"):
                record[0] = 0

    def test_blocks_draw_from_their_cells_distribution(self, masspoint5, monkeypatch):
        # a pass takes no distribution: given only a masspoint5 stack, it
        # draws masspoint5's ranks
        monkeypatch.setattr(simulate, "CHUNK", 128)
        n, k, reps, seed = 30, 10, 200, 7
        stack = (make_policy("br", masspoint5, n, k), [k])
        ranks = np.empty((n, reps), dtype=np.int16)
        for rows, chunk, lo, _ in simulate._blocks(n, [stack], range(reps), seed, paths=True):
            ranks[lo : lo + len(chunk), rows] = chunk
        for rep in range(reps):
            u = episode_stream(seed, rep).random(2 * n)
            np.testing.assert_array_equal(ranks[:, rep], sample_searchsorted(masspoint5, u[0::2]))


class TestPathWindows:
    # a path pass yields each block's budgets one window of _ENTRY_ROWS + 1
    # rows at a time; each window starts where the last one ended, and the
    # windows of a block chain into the paths whose decisions earn the
    # payoff pass's payoffs

    @pytest.mark.parametrize("name", ["br", "ai"])
    def test_windows_chain_into_the_payoff_paths(self, uniform5, monkeypatch, name):
        monkeypatch.setattr(simulate, "CHUNK", 128)
        n, k, reps, seed = 200, 60, 300, 3  # windows of 65, 65, 65 and 9 rows
        policy = make_policy(name, uniform5, n, k)
        rows_per = simulate._ENTRY_ROWS
        payoffs = np.empty(reps)
        for rows, _, (payoff,) in simulate._blocks(n, [(policy, [k])], range(reps), seed):
            payoffs[rows] = payoff[0]
        ranks = np.empty((n, reps), dtype=np.int16)
        paths = np.empty((n + 1, reps), dtype=np.int64)
        starts, last = [], None
        for rows, chunk, lo, (window,) in simulate._blocks(
                n, [(policy, [k])], range(reps), seed, paths=True):
            starts.append(lo)
            ranks[lo : lo + len(chunk), rows] = chunk
            assert window.shape == (min(rows_per, n - lo) + 1, 1, rows.stop - rows.start)
            first = np.full(window.shape[2], k) if lo == 0 else last
            np.testing.assert_array_equal(window[0, 0], first)
            last = window[-1, 0].copy()
            paths[lo : lo + len(window), rows] = window[:, 0]
        assert starts == [0, 64, 128, 192] * 3
        taken = paths[:-1] - paths[1:]
        assert set(np.unique(taken)) <= {0, 1}
        gains = uniform5.support[ranks - 1] * taken
        np.testing.assert_array_equal(np.cumsum(gains, axis=0)[-1], payoffs)


class TestStoredUniformsChangeNoDraw:
    # storing the decision uniforms or not must leave every stream as it is:
    # br and dp play the same episodes with ai in the pass or without it

    def test_paired_payoffs_with_and_without_ai(self, uniform5, monkeypatch):
        monkeypatch.setattr(simulate, "CHUNK", 128)
        n, k, reps, seed = 60, 18, 300, 4
        alone, _ = sweep(uniform5, ["br", "dp"], [(n, k)], "mc", reps, seed)
        joined, _ = sweep(uniform5, ["br", "dp", "ai"], [(n, k)], "mc", reps, seed)
        assert len(alone) == 2 and alone == [r for r in joined if r.policy != "ai"]

    def test_simulate_paths_with_stored_uniforms(self, uniform5, monkeypatch):
        monkeypatch.setattr(simulate, "CHUNK", 128)
        n, k, reps, seed = 60, 18, 300, 4
        br = make_policy("br", uniform5, n, k)
        plain = simulate_paths(br, n, k, reps, seed)
        monkeypatch.setattr(BreakpointPolicy, "randomized", True)
        stored = simulate_paths(br, n, k, reps, seed)
        for a, b in zip(plain, stored):
            np.testing.assert_array_equal(a, b)


class TestPayoffFreePasses:
    # orbit_stats steps without summing payoffs: its budgets must be those of
    # simulate_paths, which sums them

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("name", ["br", "ai"])
    def test_same_budgets_without_payoffs(self, uniform5, monkeypatch, name, seed):
        monkeypatch.setattr(simulate, "CHUNK", 128)
        n, k, delta, reps = 400, 136, 0.05, 300
        policy = make_policy(name, uniform5, n, k)
        _, _, paths = simulate_paths(policy, n, k, reps, seed)
        seen = []
        step_block = simulate._step_block

        def spy(d, n, stacks, ranks, u, lo, paths):
            seen.append((lo, lo + len(ranks), paths, [record.shape for _, _, record in stacks]))
            step_block(d, n, stacks, ranks, u, lo, paths)

        monkeypatch.setattr(simulate, "_step_block", spy)
        sample = orbit_stats(policy, n, k, delta, reps, seed)
        # a path pass over three blocks of six chunks each, up to the cutoff
        # (359 of 400 periods), whose one stack holds a window of budgets and
        # no payoffs
        rows, t_cut = simulate._ENTRY_ROWS, cutoff_time(n, delta)
        assert seen == [(lo, min(lo + rows, t_cut), True, [(rows + 1, 1, w)])
                        for w in (128, 128, 44) for lo in range(0, t_cut, rows)]
        want = orbit_scan_passes(paths, thresholds(uniform5), delta, n)
        got = (sample.tau0, sample.j_tau0, sample.tau)
        assert [a.dtype for a in got] == [np.int64, np.int16, np.int64]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestDrift:
    def test_analytic_values_in_orbit(self, masspoint5):
        # br's drift T_j - sel from its rates hook is the closed form, which
        # is exactly -f_j/2 at or above the anchor and +f_j/2 below it
        d = masspoint5
        thr = thresholds(d)
        n = 1000
        br = make_policy("br", d, n, n)

        def drift(t, budget, j):
            sel = br.rates(np.array([n - t]), np.array([budget]))[0][0, 0]
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
        _, _, paths = simulate_paths(policy, n, k, reps, seed)
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
        _, _, paths = simulate_paths(policy, n, k, reps, seed)
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
        n, k = 1000, 300
        curves = {}
        for name in ("br", "dp"):
            policy = make_policy(name, uniform5, n, k)
            curves[name], _ = ratio_mean_curve(policy, n, k)
        gap = np.abs(curves["br"] - curves["dp"])[: n - 50]
        assert gap.max() < 0.025  # half the orbit width at delta = eps/2


class TestCutoff:
    def test_formula_and_clamp(self):
        assert cutoff_time(1000, 0.05) == 1000 - 41
        assert cutoff_time(10, 0.05) == 0

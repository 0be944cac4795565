import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisecretary import (
    BreakpointPolicy,
    DimensionMismatch,
    InfeasiblePair,
    ModelError,
    NonAdaptivePolicy,
    TableMismatch,
    index_matrix,
    make_policy,
    new_distribution,
    run_episode,
    solve,
    take_top_matrix,
    thresholds,
)
from multisecretary.distribution import RATIO_TIE_TOL, partial_means
from multisecretary.evaluate import exact_regret
from multisecretary import policies
from multisecretary.policies import _ratio_breakpoints
from oracles import ai_ratio_increment_mean, threshold_bucket


def decide(policy, left, budget, ability, u=0.0):
    """One decision of ``policy`` in a single state, through ``decide_batch``."""
    sel = policy.decide_batch(
        left, np.array([budget]), np.array([ability], dtype=np.int16), np.array([u])
    )
    return bool(sel[0])


class TestBudgetRatio:
    def test_bucket_two_at_threshold(self, uniform5):
        br = make_policy("br", uniform5, 1000, 300)
        # K/(n-t) = 3/10 = 0.30 sits exactly on T_2: select rank 2, skip rank 3
        assert decide(br, 10, 3, 2)
        assert not decide(br, 10, 3, 3)

    def test_no_budget_rejects(self, uniform5):
        br = make_policy("br", uniform5, 1000, 300)
        assert not decide(br, 1000, 0, 1)

    def test_budget_covers_remaining_selects_all(self, uniform5):
        br = make_policy("br", uniform5, 1000, 300)
        assert decide(br, 500, 500, uniform5.m)

    def test_selection_probability_is_survival(self, masspoint5):
        # P(select | bucket j) = F̄(a_{j+1}) through the rates hook
        pol = make_policy("br", masspoint5, 100, 50)
        thr = thresholds(masspoint5)
        budgets = np.arange(51)
        (sel,), _ = pol.rates(np.array([70]), budgets)
        for kappa in range(1, 51):
            bucket = threshold_bucket(thr, kappa / 70)
            assert sel[kappa] == masspoint5.survival_values[bucket]
        assert sel[0] == 0.0


def assert_table_is_ratio_rule(values, n):
    """``kappa >= bp[l, j - 1]`` iff kappa >= 1 and kappa/l + tol >= T_j, at
    every l in 1..n and kappa in 0..n."""
    bp = _ratio_breakpoints(np.asarray(values, dtype=float), n)
    assert bp.shape == (n + 1, len(values)) and np.all(bp[0] == n + 1)
    kappa = np.arange(n + 1)[:, None]
    for ell in range(1, n + 1):
        want = (kappa >= 1) & (kappa / ell + RATIO_TIE_TOL >= np.asarray(values))
        np.testing.assert_array_equal(kappa >= bp[ell], want, err_msg=f"l={ell}")


@st.composite
def near_ties(draw):
    """n and thresholds: up to 3 drawn at random and 40 within 8 ulps of a
    ratio kappa/l + tol, where ceil alone misses the float test in about 1 %."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = rng.integers(0, n + 1, 40) / rng.integers(1, n + 1, 40) + RATIO_TIE_TOL
    near = (ties.view(np.int64) + rng.integers(-8, 9, 40)).view(np.float64)
    return n, draw(st.lists(st.floats(0.0, 1.0), max_size=3)) + near.tolist()


@st.composite
def ratio_instances(draw):
    m = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    d = new_distribution(np.arange(m, 0, -1.0), [w / sum(weights) for w in weights])
    return d, draw(st.integers(1, 300))


def assert_br_is_bucket_rule(d, n):
    """br's decide_batch and rates equal the threshold-bucket rule in every
    (l, kappa, rank) cell, budgets 0..n."""
    br = make_policy("br", d, n, n // 2)
    thr = thresholds(d)
    gain = partial_means(d)
    kappa = np.repeat(np.arange(n + 1), d.m)
    ranks = np.tile(np.arange(1, d.m + 1, dtype=np.int16), n + 1)
    live = kappa > 0
    budgets = np.arange(n + 1)
    for left in range(1, n + 1):
        bucket = threshold_bucket(thr, budgets / left)
        got = br.decide_batch(left, kappa, ranks, None)
        np.testing.assert_array_equal(got, live & (ranks <= np.repeat(bucket, d.m)))
        (sel,), (g,) = br.rates(np.array([left]), budgets)
        np.testing.assert_array_equal(sel, np.where(budgets > 0, d.survival_values[bucket], 0.0))
        np.testing.assert_array_equal(g, np.where(budgets > 0, gain[bucket], 0.0))


class TestRatioBreakpoints:
    @settings(max_examples=150, deadline=None)
    @given(near_ties())
    def test_table_is_the_float_ratio_test(self, inst):
        assert_table_is_ratio_rule(inst[1], inst[0])

    @pytest.mark.parametrize("ell,t,want", [
        (7, 0.4285714285724286, 4),  # ceil((T - tol) l) alone gives 3
        (85063, 0.6369631919881155, 54182),  # and 54183 here
    ])
    def test_ceiling_rounds_across_the_test(self, ell, t, want):
        bp = _ratio_breakpoints(np.array([0.0, t]), ell)
        assert bp[ell, 1] == want
        assert want / ell + RATIO_TIE_TOL >= t > (want - 1) / ell + RATIO_TIE_TOL

    @pytest.mark.parametrize("cells", [1, 12, 8191, 10**9])  # 1, 2, 1638 rows, one block
    def test_row_blocks_change_nothing(self, masspoint5, monkeypatch, cells):
        values = thresholds(masspoint5)[: masspoint5.m]
        want = _ratio_breakpoints(values, 1000)
        monkeypatch.setattr(policies, "_BLOCK_CELLS", cells)
        got = _ratio_breakpoints(values, 1000)
        assert got.dtype == np.int64 and not got.flags.writeable
        np.testing.assert_array_equal(got, want)

    def test_build_holds_no_table_sized_temporaries(self, masspoint5):
        # the int64 table is 0.61 MiB; whole-table float temporaries took the peak to 2.0 MiB
        values = thresholds(masspoint5)[: masspoint5.m]
        tracemalloc.start()
        _ratio_breakpoints(values, 16016)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=60, deadline=None)
    @given(ratio_instances())
    def test_br_matches_bucket_rule(self, inst):
        assert_br_is_bucket_rule(*inst)

    @pytest.mark.parametrize("dist", ["uniform5", "masspoint5", "uniform10"])
    @pytest.mark.parametrize("n", [1000, 1120])
    def test_br_matches_bucket_rule_named(self, request, dist, n):
        assert_br_is_bucket_rule(request.getfixturevalue(dist), n)

    def test_other_horizon_raises(self, uniform5):
        br = make_policy("br", uniform5, 100, 30)
        with pytest.raises(TableMismatch):
            exact_regret(br, 101, 30)


class TestDpDecide:
    def test_mean_rule_two_to_go(self, uniform5):
        dp = BreakpointPolicy(solve(uniform5, 1000, 500), "dp")
        # h_2(1) = E[X] = 1.10: ranks up to the mean ability are taken
        assert decide(dp, 2, 1, 3)
        assert not decide(dp, 2, 1, 4)

    def test_no_budget(self, uniform5):
        dp = BreakpointPolicy(solve(uniform5, 10, 5), "dp")
        assert not decide(dp, 8, 0, 1)

    def test_last_period_takes_anything(self, uniform5):
        dp = BreakpointPolicy(solve(uniform5, 10, 5), "dp")
        assert decide(dp, 1, 1, uniform5.m)

    def test_table_mismatch(self, uniform5):
        dp = BreakpointPolicy(solve(uniform5, 10, 5), "dp")
        for n, k in ((11, 5), (10, 6)):
            with pytest.raises(TableMismatch):
                run_episode(dp, n, k, 1)
            with pytest.raises(TableMismatch):
                exact_regret(dp, n, k)

    def test_disagrees_with_br_near_horizon_end(self):
        # two to go, one budget unit: the optimal rule keeps only values at or
        # above the mean, while the ratio rule still takes the middle rank
        d = new_distribution([10.0, 1.5, 1.0], [0.2, 0.4, 0.4])
        dp = BreakpointPolicy(solve(d, 100, 60), "dp")
        br = make_policy("br", d, 100, 60)
        state = (2, 1, 2)  # ratio 1/2, ability 1.5 < mean 3.0
        assert decide(br, *state)
        assert not decide(dp, *state)


class TestAdaptiveIndex:
    def test_fractional_branch(self, uniform3):
        # ratio 1/2, middle rank: select probability (1/2 - 1/3)/(1/3) = 1/2
        ai = make_policy("ai", uniform3, 1000, 500)
        assert decide(ai, 500, 250, 2, u=0.49)
        assert not decide(ai, 500, 250, 2, u=0.51)

    def test_saturated_ratio_takes_everything(self, uniform3):
        ai = make_policy("ai", uniform3, 1000, 500)
        assert decide(ai, 100, 100, 3, u=0.999999)

    def test_no_budget(self, uniform3):
        ai = make_policy("ai", uniform3, 1000, 500)
        assert not decide(ai, 1000, 0, 1)

    def test_stopped_ratio_increment_is_zero(self, masspoint5):
        # E[R_{t+1} - R_t] = (kappa - sel)/(l - 1) - kappa/l from the rates
        # hook the engine plays, against the closed form over every arrival
        ai = make_policy("ai", masspoint5, 10, 5)
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(10, 3000))
            t = int(rng.integers(0, n - 1))
            budget = int(rng.integers(0, n - t + 1))  # ratio <= 1
            sel = ai.rates(np.array([n - t]), np.array([budget]))[0][0, 0]
            inc = (budget - sel) / (n - t - 1) - budget / (n - t)
            want = ai_ratio_increment_mean(masspoint5, n, t, budget)
            assert abs(inc - want) <= 1e-15
            assert abs(want) <= 1e-12

    def test_increment_needs_two_periods(self, masspoint5):
        # the closed form divides by the l - 1 periods left after this one
        with pytest.raises(InfeasiblePair):
            ai_ratio_increment_mean(masspoint5, 10, 9, 1)


class TestIndexMatrix:
    def test_half_budget_three_point(self, uniform3):
        mat = index_matrix(uniform3, 10, 5)
        np.testing.assert_allclose(mat[:, 0], [1.0, 0.5, 0.0], atol=1e-12)
        assert np.all(mat == mat[:, :1])  # time-constant

    def test_zero_budget_all_zero(self, masspoint5):
        assert np.all(index_matrix(masspoint5, 20, 0) == 0.0)

    def test_full_budget_all_ones(self, masspoint5):
        assert np.all(index_matrix(masspoint5, 20, 20) == 1.0)

    def test_infeasible(self, uniform3):
        with pytest.raises(InfeasiblePair):
            index_matrix(uniform3, 5, 6)

    def test_ratio_below_a_survival_value_snaps_to_zero(self):
        # 0.1 + 0.2 rounds above 3/10, so the pivot's fraction comes out
        # negative, -8e-17; it snaps to 0, never below
        mat = index_matrix(new_distribution([3.0, 2.0, 1.0], [0.1, 0.2, 0.7]), 10, 3)
        assert mat[:, 0].tolist() == [1.0, 1.0, 0.0]


class TestTakeTopMatrix:
    def test_zero_horizon_is_an_infeasible_pair(self, uniform3):
        # take-top once raised a message of its own, "horizon must be >= 1"
        with pytest.raises(InfeasiblePair, match=r"^\(n=0, k=0\) is not a feasible pair$"):
            take_top_matrix(uniform3, 0)


class TestNonAdaptive:
    def test_all_ones_selects_first_k(self, uniform3):
        policy = NonAdaptivePolicy(uniform3, np.ones((3, 12)), "matrix")
        assert not policy.p.flags.writeable
        rec = run_episode(policy, 12, 4, 3)
        assert rec.decisions[:4].all() and not rec.decisions[4:].any()

    def test_caller_matrix_stays_writeable(self, uniform3):
        # the policy once marked the caller's own array read-only
        a = np.full((3, 12), 0.5)
        policy = NonAdaptivePolicy(uniform3, a, "matrix")
        a[0, 0] = 0.0
        assert policy.p[0, 0] == 0.5 and not policy.p.flags.writeable

    def test_take_top_selects_only_top(self, uniform3):
        policy = make_policy("take-top", uniform3, 30, 10)
        rec = run_episode(policy, 30, 10, 4)
        assert np.all(rec.abilities[rec.decisions] == 1)

    def test_all_zero_never_selects(self, uniform3):
        policy = NonAdaptivePolicy(uniform3, np.zeros((3, 12)), "matrix")
        assert not decide(policy, 8, 4, 1, u=0.0)

    def test_dimension_mismatch(self, uniform3, uniform5):
        policy = NonAdaptivePolicy(uniform3, take_top_matrix(uniform3, 10), "take-top")
        with pytest.raises(DimensionMismatch):
            run_episode(policy, 12, 4, 1)
        with pytest.raises(DimensionMismatch):
            exact_regret(policy, 12, 4)
        # a rank beyond the matrix rows cannot reach decide_batch: the
        # matrix must have one row per ability of the distribution
        with pytest.raises(DimensionMismatch):
            NonAdaptivePolicy(uniform5, take_top_matrix(uniform3, 10), "take-top")

    def test_entry_validation(self, uniform3):
        for p in ([[0.5, 1.2]] * 3, [[0.5, -0.1]] * 3, [[0.5, np.nan]] * 3):
            with pytest.raises(ModelError, match="probabilities in"):
                NonAdaptivePolicy(uniform3, p, "matrix")
        with pytest.raises(DimensionMismatch, match="2-D"):
            NonAdaptivePolicy(uniform3, [0.5, 0.5, 0.5], "matrix")
        # no entry plays n = 0, so a matrix with no periods fails when built,
        # as a ModelError and not the bare ValueError of an empty min()
        with pytest.raises(DimensionMismatch, match="no periods"):
            NonAdaptivePolicy(uniform3, np.zeros((3, 0)), "matrix")

    @pytest.mark.parametrize("dist", ["uniform5", "masspoint5"])
    @pytest.mark.parametrize("name", ["index", "take-top"])
    def test_time_constant_rules_state_their_rates(self, request, dist, name):
        # the evaluator once found these rules by their class and read the
        # private per-period arrays; now each rule states its own pair
        d = request.getfixturevalue(dist)
        n, k = 40, 13
        policy = make_policy(name, d, n, k)
        s, g = policy.constant_rates
        assert type(s) is float and type(g) is float
        if name == "take-top":
            assert (s, g) == pytest.approx((d.pmf[0], d.pmf[0] * d.support[0]), rel=1e-15)
        else:  # the deterministic relaxation at ratio k/n
            want = (k / n, np.interp(k / n, d.survival_values, partial_means(d)))
            assert (s, g) == pytest.approx(want, rel=1e-14)
        # the pair is what ``rates`` gives at every live (period, budget) cell
        sel, gain = policy.rates(np.arange(n, 0, -1), np.arange(1, k + 1))
        assert np.all(sel == s) and np.all(gain == g)

    def test_constant_column_matrix_states_its_rates(self, masspoint5):
        col = np.array([1.0, 0.5, 0.25, 0.0, 0.0])
        policy = NonAdaptivePolicy(masspoint5, np.tile(col[:, None], (1, 30)), "matrix")
        want = (masspoint5.pmf @ col, (masspoint5.pmf * masspoint5.support) @ col)
        assert policy.constant_rates == pytest.approx(want, rel=1e-15)

    def test_time_varying_matrix_states_none(self, masspoint5):
        p = np.tile(np.linspace(0.9, 0.1, masspoint5.m)[:, None], (1, 30))
        p[0, -1] = 0.5  # constant but for the last period
        assert NonAdaptivePolicy(masspoint5, p, "matrix").constant_rates is None

    def test_index_decides_only_its_own_budget(self, uniform5):
        # index's matrix comes from k/n, so at another k it would return the
        # value of a different rule; take-top's matrix serves every k
        n, k = 40, 12
        index = make_policy("index", uniform5, n, k)
        index.check(n, k)
        for other in (k - 1, k + 1):
            with pytest.raises(TableMismatch, match="built for k=12"):
                index.check(n, other)
        with pytest.raises(TableMismatch):
            exact_regret(index, n, k + 1)
        with pytest.raises(TableMismatch):
            run_episode(index, n, k - 1, 0)
        take_top = make_policy("take-top", uniform5, n, k)
        for other in (0, k + 1, n):
            take_top.check(n, other)


class TestFeasibility:
    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index", "take-top"])
    def test_budget_never_overspent(self, masspoint5, name):
        n, k = 60, 20
        policy = make_policy(name, masspoint5, n, k)
        for rep in range(20):
            rec = run_episode(policy, n, k, 17, rep)
            assert rec.decisions.sum() <= k
            assert np.all(rec.budget_path >= 0)
            assert np.all(np.diff(rec.budget_path) <= 0)

    @pytest.mark.parametrize("name", ["br", "dp", "index"])
    @pytest.mark.parametrize("n,k", [(-1, 0), (5, 6)])
    def test_table_policies_reject_infeasible_pairs(self, masspoint5, name, n, k):
        with pytest.raises(InfeasiblePair):
            make_policy(name, masspoint5, n, k)


class TestFactory:
    def test_matrix_file_roundtrip(self, uniform3, tmp_path):
        path = tmp_path / "mat.csv"
        np.savetxt(path, np.full((3, 8), 0.25), delimiter=",")
        policy = make_policy(f"matrix:{path}", uniform3, 8, 3)
        assert policy.name == "matrix"
        with pytest.raises(DimensionMismatch):
            make_policy(f"matrix:{path}", uniform3, 9, 3)

    def test_unknown_name(self, uniform3):
        with pytest.raises(ModelError):
            make_policy("greedy", uniform3, 5, 2)

    def test_matrix_naming_no_file(self, uniform3):
        # np.loadtxt("") once raised FileNotFoundError(" not found."), a message with no name
        with pytest.raises(ModelError, match="names no file"):
            make_policy("matrix:", uniform3, 5, 2)

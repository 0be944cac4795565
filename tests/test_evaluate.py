import json
import math
import warnings

import numpy as np
import pytest

from multisecretary import (
    AdaptiveIndexPolicy,
    BreakpointPolicy,
    DimensionMismatch,
    InfeasiblePair,
    ModelError,
    NonAdaptivePolicy,
    NonMarkovPolicy,
    ProbabilityDrift,
    TableMismatch,
    exact_regret,
    make_policy,
    new_distribution,
    offline_expectation,
    ratio_mean_curve,
    solve,
    sweep,
    take_top_matrix,
    write_records,
)
from multisecretary import cli, dp, evaluate, simulate
from multisecretary.dp import TIE_TOL_SCALE
from multisecretary.evaluate import (
    CSV_HEADER,
    RegretRecord,
    TAIL_TOL,
    _forward_value,
    _window_pass,
    format_record,
)
from multisecretary.offline import offline_sort_batch
from multisecretary.simulate import CHUNK
from oracles import (
    ai_prob_table,
    br_prob_table,
    capped_budget_means,
    dp_prob_table,
    enum_policy_value,
    exact_budget_means,
    exact_constant_rate_value,
    forward_value_per_period,
    index_prob_table,
    simulate_paths,
)


def mc_cell(d, name, n, k, reps, seed):
    """The Monte Carlo record of one (policy, n, k) cell: a one-cell sweep."""
    records, failures = sweep(d, [name], [(n, k)], mode="mc", reps=reps, seed=seed)
    assert failures == []
    return records[0]


class TestExactPolicyValue:
    def test_single_period_accept_all(self, masspoint5):
        for name in ("br", "dp", "ai"):
            policy = make_policy(name, masspoint5, 1, 1)
            got = _forward_value(policy, 1, 1)[0]
            assert got == pytest.approx(masspoint5.mean(), abs=1e-12)

    @pytest.mark.parametrize("dist,n,k", [
        pytest.param("uniform5", *nk, id=f"{nk[0]}-{nk[1]}")
        for nk in ((6, 3), (30, 11), (200, 57), (500, 150))
    ] + [pytest.param("masspoint5", 16016, 6292, id="masspoint5-16016-6292")])
    def test_dp_forward_matches_backward(self, request, dist, n, k):
        d = request.getfixturevalue(dist)
        policy = make_policy("dp", d, n, k)
        forward = _forward_value(policy, n, k)[0]
        assert forward == pytest.approx(solve(d, n, k).value, abs=1e-10)

    def test_br_matches_path_enumeration(self, uniform3):
        policy = make_policy("br", uniform3, 6, 3)
        got = _forward_value(policy, 6, 3)[0]
        want = enum_policy_value(uniform3, 6, 3, br_prob_table(uniform3, 6, 3))
        assert got == pytest.approx(want, abs=1e-9)

    def test_ai_matches_path_enumeration(self, uniform3):
        policy = make_policy("ai", uniform3, 6, 3)
        got = _forward_value(policy, 6, 3)[0]
        want = enum_policy_value(uniform3, 6, 3, ai_prob_table(uniform3, 6, 3))
        assert got == pytest.approx(want, abs=1e-9)

    def test_index_matches_path_enumeration(self, masspoint5):
        policy = make_policy("index", masspoint5, 5, 2)
        got = _forward_value(policy, 5, 2)[0]
        want = enum_policy_value(masspoint5, 5, 2, index_prob_table(masspoint5, 5, 2))
        assert got == pytest.approx(want, abs=1e-9)

    def test_dp_dominates_every_policy(self, masspoint5):
        n, k = 90, 33
        best = solve(masspoint5, n, k).value
        for name in ("br", "ai", "index", "take-top"):
            policy = make_policy(name, masspoint5, n, k)
            assert _forward_value(policy, n, k)[0] <= best + 1e-10

    def test_monotone_in_budget(self, masspoint5):
        n = 80
        for name in ("br", "dp", "ai"):
            values = [
                _forward_value(make_policy(name, masspoint5, n, k), n, k)[0]
                for k in range(0, n + 1, 8)
            ]
            assert all(a <= b + 1e-10 for a, b in zip(values, values[1:]))

    def test_probability_drift_stays_tiny(self, uniform5):
        policy = make_policy("br", uniform5, 2000, 600)
        _, drift, _ = _forward_value(policy, 2000, 600)
        assert drift < 1e-9

    def test_non_markov_rejected(self, uniform5):
        class Opaque:  # no rates hook and no dist: the hook check comes first
            name = "opaque"

        for call in (exact_regret, ratio_mean_curve):
            with pytest.raises(NonMarkovPolicy):
                call(Opaque(), 5, 2)

    def test_infeasible(self, uniform5):
        with pytest.raises(InfeasiblePair):
            exact_regret(make_policy("br", uniform5, 5, 2), 5, 6)


class _BrokenRates:
    """Budget-ratio stand-in whose live-cell selection rate is overridden; it
    answers a block of periods with one row per period, as ``rates`` must."""

    name = "broken"

    def __init__(self, d, rate):
        self.inner = make_policy("br", d, 40, 12)
        self.dist = d
        self.rate = rate

    def check(self, n, k):
        self.inner.check(n, k)

    def rates(self, left, budgets):
        sel, gain = self.inner.rates(left, budgets)
        return np.where(budgets > 0, self.rate, np.zeros_like(sel)), gain


class TestForwardWindow:
    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index"])
    def test_window_matches_full_pass_within_bound(self, masspoint5, name):
        n, k = 4004, 1573
        policy = make_policy(name, masspoint5, n, k)
        value, drift, bound = _window_pass(policy, n, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "TAIL_TOL", 0.0)
            full, _, untrimmed = _window_pass(policy, n, k)
        assert untrimmed == 0.0
        assert 0.0 < bound < 2 * masspoint5.support[0] * 1e-12
        assert abs(value - full) <= bound + 4 * np.spacing(full)
        assert drift <= 1e-9
        rec = exact_regret(policy, n, k)
        assert rec.regret >= -rec.error_bound

    def test_bound_reaches_error_bound(self, masspoint5):
        n, k = 400, 157
        policy = make_policy("br", masspoint5, n, k)
        _, _, bound = _forward_value(policy, n, k)
        rec = exact_regret(policy, n, k)
        off = offline_expectation(masspoint5, n, k)
        assert bound > 0.0
        assert rec.error_bound == off.error_bound + bound

    def test_zero_tail_tol_trims_nothing_and_matches_forward_value(self, masspoint5, monkeypatch):
        n, k = 400, 157
        policy = make_policy("ai", masspoint5, n, k)
        trimmed = exact_regret(policy, n, k)
        monkeypatch.setattr(evaluate, "TAIL_TOL", 0.0)
        full = exact_regret(policy, n, k)
        assert full.error_bound == 0.0 < trimmed.error_bound
        assert full.v_on == _forward_value(policy, n, k)[0]

    def test_policies_sharing_a_name_are_evaluated_apart(self, uniform5):
        # a take-top matrix named "index" once reused the index policy's value
        n, k = 200, 60
        index = make_policy("index", uniform5, n, k)
        take_top = NonAdaptivePolicy(uniform5, take_top_matrix(uniform5, n), "index")
        first = _forward_value(index, n, k)[0]
        second = _forward_value(take_top, n, k)[0]
        assert second < first - 1.0

    @pytest.mark.parametrize("rate", [np.nan, 1.5])
    def test_invalid_rates_raise_probability_drift(self, uniform5, rate):
        # NaN rates once returned value nan; rates above one kept the total
        # mass at 1 through negative cells and returned a finite value
        with pytest.raises(ProbabilityDrift):
            _forward_value(_BrokenRates(uniform5, rate), 40, 12)


def constant_rule(name, d, n, k):
    """index, take-top, or ``matrix``: one fixed column repeated over n periods."""
    if name == "matrix":
        column = np.linspace(0.9, 0.1, d.m)
        return NonAdaptivePolicy(d, np.tile(column[:, None], (1, n)), "matrix")
    return make_policy(name, d, n, k)


def capped_mean_calls(monkeypatch):
    """Record each ``capped_mean`` call the evaluator makes."""
    calls, inner = [], evaluate.capped_mean
    monkeypatch.setattr(evaluate, "capped_mean", lambda *a: calls.append(a) or inner(*a))
    return calls


class TestConstantRateClosedForm:
    RULES = ["index", "take-top", "matrix"]
    CELLS = [(1, 0), (1, 1), (2, 1), (7, 3), (20, 0), (20, 7), (40, 39), (60, 1), (60, 22),
             (60, 60)]

    @pytest.mark.parametrize("dist", ["uniform5", "masspoint5", "point"])
    @pytest.mark.parametrize("name", RULES)
    def test_matches_rational_oracle(self, request, monkeypatch, dist, name):
        d = (new_distribution([0.875], [1.0]) if dist == "point"
             else request.getfixturevalue(dist))
        calls = capped_mean_calls(monkeypatch)
        for n, k in self.CELLS:
            policy = constant_rule(name, d, n, k)
            value, drift, bound = _forward_value(policy, n, k)
            want = exact_constant_rate_value(d.support, d.pmf, policy.p[:, 0], n, k)
            assert drift == 0.0 and bound >= 0.0
            assert abs(value - float(want)) <= bound + 8 * np.spacing(float(want)), (n, k)
        assert calls  # the cells took the closed form, not the forward pass

    @pytest.mark.parametrize("name", RULES)
    def test_matches_enumeration(self, uniform3, name):
        for n in range(1, 8):
            for k in range(n + 1):
                policy = constant_rule(name, uniform3, n, k)

                def table(t_next):
                    probs = np.repeat(policy.p[:, t_next - 1 : t_next], k + 1, axis=1)
                    probs[:, 0] = 0.0
                    return probs

                want = enum_policy_value(uniform3, n, k, table)
                got = _forward_value(policy, n, k)[0]
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15), (n, k)

    def test_zero_rate_returns_zero_without_warning(self, masspoint5):
        # index at k = 0 selects nothing: s = 0, and g / s must not be formed
        index = make_policy("index", masspoint5, 50, 0)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert _forward_value(index, 50, 0) == (0.0, 0.0, 0.0)

    def test_checks_come_before_any_value(self, uniform5, monkeypatch):
        calls = capped_mean_calls(monkeypatch)
        index = make_policy("index", uniform5, 40, 12)
        with pytest.raises(TableMismatch):
            exact_regret(index, 40, 13)
        take_top = make_policy("take-top", uniform5, 40, 12)
        with pytest.raises(DimensionMismatch):
            exact_regret(take_top, 41, 12)
        assert calls == []

    @pytest.mark.parametrize("last", ["random", "last column"])
    def test_time_varying_matrix_takes_the_loop(self, masspoint5, monkeypatch, last):
        n, k = 333, 111
        p = np.tile(np.linspace(0.9, 0.1, masspoint5.m)[:, None], (1, n))
        if last == "random":
            p = np.random.default_rng(2).random(p.shape)
        else:  # constant but for the last period's column
            p[0, -1] = 0.5
        policy = NonAdaptivePolicy(masspoint5, p, "matrix")
        calls = capped_mean_calls(monkeypatch)
        assert _forward_value(policy, n, k) == forward_value_per_period(policy, n, k)
        assert calls == []

    def test_different_columns_with_one_rate_pair_take_the_closed_form(self, monkeypatch):
        # both columns select at rate 1/4 and earn 3/16 a period, in exact floats
        d = new_distribution([1.0, 0.75, 0.5, 0.25], [0.25] * 4)
        n, k = 60, 17
        columns = np.array([[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]]).T
        policy = NonAdaptivePolicy(d, np.tile(columns, (1, n // 2)), "matrix")
        calls = capped_mean_calls(monkeypatch)
        value, drift, bound = _forward_value(policy, n, k)
        assert calls == [(n, 0.25, k)]
        want = exact_constant_rate_value(d.support, d.pmf, columns[:, 0], n, k)
        assert abs(value - float(want)) <= bound + 8 * np.spacing(float(want))
        assert value == pytest.approx(_window_pass(policy, n, k)[0], rel=1e-13)

    def test_a_rule_stating_no_pair_takes_the_forward_pass(self, masspoint5, monkeypatch):
        # the route once came from the policy's class, whatever it stated:
        # here the closed form gives 1390.416913441682, the pass 1390.4169134416825
        n, k = 4004, 1573
        policy = make_policy("index", masspoint5, n, k)
        policy.constant_rates = None
        calls = capped_mean_calls(monkeypatch)
        assert _forward_value(policy, n, k) == _window_pass(policy, n, k)
        assert calls == []

    def test_a_foreign_rule_stating_a_pair_takes_the_closed_form(self, uniform5):
        class Static:  # a best-static rule in miniature: no matrix, no class to test
            name = "static"
            constant_rates = (0.25, 0.4)

            def check(self, n, k):
                pass

            def rates(self, left, budgets):
                raise AssertionError("the closed form reads no rates")

        n, k = 50, 9
        mean, omitted = evaluate.capped_mean(n, 0.25, k)
        assert _forward_value(Static(), n, k) == (1.6 * mean, 0.0, 1.6 * omitted)

    def test_take_top_on_a_mass_point_is_exact(self, masspoint5):
        # n f_1 = 2860 arrivals of the top rank on average, far below k: the
        # forward pass gives 2860.000000000005 here with a 3.8e-13 bound
        n, k = 16016, 6292
        policy = make_policy("take-top", masspoint5, n, k)
        assert _forward_value(policy, n, k)[0] == 2860.0


class TestRatioMeanCurve:
    @pytest.mark.parametrize("dist,n,k", [("uniform5", 1000, 300), ("masspoint5", 4004, 1573)])
    @pytest.mark.parametrize("name", ["index", "take-top"])
    def test_time_constant_rules_match_the_capped_mean(self, request, dist, n, k, name):
        d = request.getfixturevalue(dist)
        policy = make_policy(name, d, n, k)
        _, mean_budget = ratio_mean_curve(policy, n, k)
        gap = np.abs(mean_budget - capped_budget_means(policy, n, k))
        assert gap.max() <= k * TAIL_TOL

    @pytest.mark.parametrize("name", ["br", "dp", "ai"])
    def test_matches_the_rational_budget_law(self, name):
        d = new_distribution([1.0, 0.6, 0.2], [0.3, 0.45, 0.25])
        tables = {"br": br_prob_table, "ai": ai_prob_table,
                  "dp": lambda d, n, k: dp_prob_table(d, n, k, TIE_TOL_SCALE)}
        for n in range(1, 8):
            for k in range(n + 1):
                _, mean_budget = ratio_mean_curve(make_policy(name, d, n, k), n, k)
                want = exact_budget_means(d, n, k, tables[name](d, n, k))
                assert len(mean_budget) == n
                for t, (got, exact) in enumerate(zip(mean_budget, want)):
                    assert abs(got - float(exact)) <= k * TAIL_TOL, (n, k, t)

    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index", "take-top"])
    def test_starts_at_k_never_rises_and_divides_exactly(self, uniform5, name):
        n, k = 1000, 300
        mean_ratio, mean_budget = ratio_mean_curve(make_policy(name, uniform5, n, k), n, k)
        assert mean_budget[0] == k and np.all(np.diff(mean_budget) <= 0.0)
        np.testing.assert_array_equal(mean_ratio, mean_budget / (n - np.arange(n)))

    def test_checks_as_the_forward_value_does(self, uniform5, monkeypatch):
        # the same three checks, in the same order, before any rate is asked for
        policy = make_policy("dp", uniform5, 40, 12)
        monkeypatch.setattr(policy, "rates", lambda *a: pytest.fail("a rate was asked for"))
        for n, k, error in [(40, 41, InfeasiblePair), (41, 12, TableMismatch)]:
            for call in (ratio_mean_curve, exact_regret):
                with pytest.raises(error):
                    call(policy, n, k)
        with pytest.raises(NonMarkovPolicy):
            ratio_mean_curve(object(), 40, 12)

    def test_sweep_cells_ask_for_no_mean(self, masspoint5, monkeypatch):
        # only ratio_mean_curve passes the out-array, so a sweep's pass skips its dot
        seen, inner = [], evaluate._window_pass

        def spy(policy, n, k, mean_budget=None):
            seen.append(mean_budget)
            return inner(policy, n, k, mean_budget)

        monkeypatch.setattr(evaluate, "_window_pass", spy)
        sweep(masspoint5, ["br", "ai"], [(200, 70)])
        assert seen == [None, None]


class TestExactRegret:
    def test_zero_at_budget_extremes(self, masspoint5):
        for name in ("br", "dp", "ai"):
            n = 120
            rec0 = exact_regret(make_policy(name, masspoint5, n, 0), n, 0)
            recn = exact_regret(make_policy(name, masspoint5, n, n), n, n)
            assert abs(rec0.regret) <= 1e-9
            assert abs(recn.regret) <= 1e-9

    def test_dp_beats_br_and_both_nonnegative(self, uniform5):
        n = 300
        for k in (60, 90, 150, 240):
            dp = exact_regret(make_policy("dp", uniform5, n, k), n, k)
            br = exact_regret(make_policy("br", uniform5, n, k), n, k)
            slack = dp.error_bound + 1e-9
            assert dp.regret >= -slack
            assert dp.regret <= br.regret + slack

    def test_record_fields(self, uniform5):
        rec = exact_regret(make_policy("br", uniform5, 50, 20), 50, 20)
        assert rec.method == "exact"
        assert rec.ci_halfwidth == 0.0
        assert rec.regret == pytest.approx(rec.v_off - rec.v_on, abs=0)
        assert rec.regret >= -rec.error_bound - 1e-9

    def test_offline_value_is_that_of_the_policys_distribution(self, uniform3):
        # with u5 passed beside a policy built from u3 this once read -33.74
        rec = exact_regret(make_policy("br", uniform3, 100, 30), 100, 30)
        assert rec.v_off == offline_expectation(uniform3, 100, 30).value
        assert rec.regret >= -rec.error_bound

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["v_on", "v_off", "regret", "ci_halfwidth", "error_bound"])
    def test_a_non_finite_value_fails_the_record(self, field, bad):
        # an overflowing cell once wrote inf or nan to the CSV and exited 0
        values = dict(v_on=1.0, v_off=2.0, regret=1.0, ci_halfwidth=0.0, error_bound=0.0)
        values[field] = bad
        with pytest.raises(ModelError, match=f"not finite: {field}$"):
            RegretRecord("br", 10, 2, "exact", **values)


class TestMonteCarlo:
    def test_agrees_with_exact(self, uniform5):
        n, k, reps = 300, 90, 20_000
        exact = exact_regret(make_policy("br", uniform5, n, k), n, k)
        mc = mc_cell(uniform5, "br", n, k, reps, seed=42)
        assert abs(mc.regret - exact.regret) <= 3 * mc.ci_halfwidth + 1e-6

    def test_full_budget_degenerates_to_zero(self, uniform3):
        rec = mc_cell(uniform3, "dp", 40, 40, 200, seed=1)
        assert rec.regret == 0.0 and rec.ci_halfwidth == 0.0

    def test_same_seed_reproduces(self, uniform5):
        a = mc_cell(uniform5, "ai", 100, 30, 500, seed=9)
        b = mc_cell(uniform5, "ai", 100, 30, 500, seed=9)
        assert a == b

    def test_estimator_is_nonnegative(self, masspoint5):
        rec = mc_cell(masspoint5, "index", 80, 30, 2000, seed=3)
        assert rec.regret >= 0.0

    def test_reps_validation(self, uniform3):
        records, failures = sweep(uniform3, ["br"], [(10, 5)], mode="mc", reps=0, seed=0)
        assert records == [] and [cell for cell, _ in failures] == [("br", 10, 5)]
        assert isinstance(failures[0][1], InfeasiblePair)


class TestPathwiseDominance:
    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index", "take-top"])
    def test_offline_dominates_every_path(self, masspoint5, name):
        n, k, reps = 60, 25, 2000
        policy = make_policy(name, masspoint5, n, k)
        payoffs, counts, paths = simulate_paths(policy, n, k, reps, seed=123)
        assert np.all(offline_sort_batch(masspoint5, counts, k) >= payoffs - 1e-9)
        assert np.all(paths >= 0)
        assert np.all(k - paths[:, -1] <= k)


class TestSweep:
    def test_cardinality_and_order(self, uniform5):
        grid = [(100, k) for k in range(0, 101, 5)]
        records, failures = sweep(uniform5, ["dp", "br"], grid)
        assert len(records) == 42 and failures == []
        keys = [(r.policy, r.n, r.k) for r in records]
        assert keys == sorted(keys)

    def test_empty_grid(self, uniform5):
        assert sweep(uniform5, ["br"], []) == ([], [])

    def test_failing_cells_are_collected(self, uniform3, tmp_path):
        # the matrix covers 10 periods, so its n=30 cell fails, as does every
        # cell of the unknown policy; the other cells still evaluate
        mat = tmp_path / "mat.csv"
        np.savetxt(mat, np.ones((3, 10)), delimiter=",")
        names = ["br", f"matrix:{mat}", "greedy"]
        records, failures = sweep(uniform3, names, [(10, 4), (30, 5)])
        assert [(r.policy, r.n) for r in records] == [("br", 10), ("br", 30), ("matrix", 10)]
        assert [cell for cell, _ in failures] == [("greedy", 10, 4), ("greedy", 30, 5),
                                                  (f"matrix:{mat}", 30, 5)]
        assert isinstance(failures[0][1], ModelError)
        assert isinstance(failures[2][1], DimensionMismatch)

    def test_unknown_mode(self, uniform3):
        with pytest.raises(ValueError):
            sweep(uniform3, ["br"], [(30, 10)], mode="bogus")

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_repeated_cells_evaluate_once(self, uniform5, mode):
        # a repeated name or grid point was once evaluated and returned twice
        grid = [(40, 12), (30, 9), (40, 12)]
        want, _ = sweep(uniform5, ["br", "dp"], grid[:2], mode, reps=300, seed=2)
        got, failures = sweep(uniform5, ["dp", "br", "dp"], grid, mode, reps=300, seed=2)
        assert failures == [] and len(want) == 4 and got == want

    def test_mc_mode(self, uniform3):
        records, _ = sweep(uniform3, ["br"], [(30, 10)], mode="mc", reps=200, seed=5)
        assert records[0].method == "mc" and records[0].ci_halfwidth > 0.0


class SecondBlockFails(AdaptiveIndexPolicy):
    """ai, but at horizon ``fail_n`` it raises in period 7 of its second block.
    A block starts where ``left`` rises, at its horizon."""

    def __init__(self, d, fail_n):
        super().__init__(d)
        self.fail_n = fail_n
        self.blocks = self.n = self.left = 0

    def decide_batch(self, left, budgets, abilities, u):
        if left > self.left:
            self.n = left
            self.blocks += left == self.fail_n
        self.left = left
        if self.n == self.fail_n and self.blocks == 2 and left == self.fail_n - 6:
            raise RuntimeError("stub failed in its second block")
        return super().decide_batch(left, budgets, abilities, u)


class TestSharedMonteCarlo:
    # sweep(mode="mc") draws each block once per n and steps every
    # (policy, k) cell over it; each record must equal its one-cell pass
    N, KS, REPS, SEED = 40, (8, 15, 30), 2 * CHUNK + 52, 6

    def separate(self, d, names, ks):
        n, reps, seed = self.N, self.REPS, self.SEED
        return [mc_cell(d, name, n, k, reps, seed) for name in names for k in ks]

    def test_shared_pass_equals_separate_cells(self, uniform5):
        grid = [(self.N, k) for k in self.KS]
        records, failures = sweep(uniform5, ["br", "dp", "ai"], grid, mode="mc",
                                  reps=self.REPS, seed=self.SEED)
        assert failures == []
        assert records == self.separate(uniform5, ["ai", "br", "dp"], self.KS)

    def test_build_and_check_failures_are_reported_alone(self, uniform5, monkeypatch):
        # a k = n+1 column and a policy that fails to build are reported
        # before the pass and leave every other cell as it was
        build = evaluate.make_policy

        def make(name, d, n, k):
            if name == "stub":
                raise ModelError("stub failed to build")
            return build(name, d, n, k)

        monkeypatch.setattr(evaluate, "make_policy", make)
        n, ks = self.N, self.KS[:2]
        grid = [(n, k) for k in ks] + [(n, n + 1)]
        records, failures = sweep(uniform5, ["br", "dp", "ai", "stub"], grid, mode="mc",
                                  reps=self.REPS, seed=self.SEED)
        assert records == self.separate(uniform5, ["ai", "br", "dp"], ks)
        infeasible = f"(n={n}, k={n + 1}) is not a feasible pair"
        assert [(cell, str(exc)) for cell, exc in failures] == [
            (("ai", n, n + 1), infeasible),
            (("br", n, n + 1), infeasible),
            (("dp", n, n + 1), infeasible),
            (("stub", n, ks[0]), "stub failed to build"),
            (("stub", n, ks[1]), "stub failed to build"),
            (("stub", n, n + 1), "stub failed to build"),
        ]

    def test_a_failing_pass_fails_every_cell_of_its_n(self, uniform5, monkeypatch):
        # ai raises in the second block at n=30 only: every cell of that
        # pass fails with its exception, and the pass at n=40 is unchanged.
        # ai's one policy serves both n, so the stub is keyed on n.
        build = evaluate.make_policy
        fail_n, ks = 30, self.KS[:2]
        monkeypatch.setattr(evaluate, "make_policy", lambda name, d, n, k: (
            SecondBlockFails(d, fail_n) if name == "ai" else build(name, d, n, k)))
        grid = [(n, k) for n in (fail_n, self.N) for k in ks]
        records, failures = sweep(uniform5, ["br", "dp", "ai"], grid, mode="mc",
                                  reps=self.REPS, seed=self.SEED)
        assert records == self.separate(uniform5, ["ai", "br", "dp"], ks)
        assert [cell for cell, _ in failures] == [
            (name, fail_n, k) for name in ("ai", "br", "dp") for k in ks
        ]
        for _, exc in failures:
            assert isinstance(exc, RuntimeError)
            assert str(exc) == "stub failed in its second block"

    def test_check_cell_runs_once_per_cell(self, uniform5, monkeypatch):
        # the pass once checked every cell again after the sweep had checked it
        checked, check = [], simulate.check_cell

        def spy(policy, n, k, reps):
            checked.append((policy.name, n, k))
            check(policy, n, k, reps)

        monkeypatch.setattr(evaluate, "check_cell", spy)
        monkeypatch.setattr(simulate, "check_cell", spy)
        grid = [(n, k) for n in (30, self.N) for k in self.KS[:2]]
        records, failures = sweep(uniform5, ["br", "dp", "ai"], grid, mode="mc",
                                  reps=self.REPS, seed=self.SEED)
        assert failures == [] and len(records) == 12
        assert sorted(checked) == sorted((r.policy, r.n, r.k) for r in records)

    def test_a_non_finite_record_fails_only_its_cell(self):
        # one overflowing record once failed every cell of its pass, k = 0 too
        d = new_distribution([1e308, 1.0], [0.5, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            records, failures = sweep(d, ["br"], [(10, 0), (10, 4)], mode="mc", reps=100)
        assert [(r.k, r.v_on, r.v_off) for r in records] == [(0, 0.0, 0.0)]
        assert [(cell, type(exc)) for cell, exc in failures] == [(("br", 10, 4), ModelError)]

    # every k of one policy steps as one stack: at mp5 with all five rules,
    # index is rebuilt for each k, k = 41 is infeasible for every name, and
    # k = 0 and k = n are the edges
    NAMES, EDGE_KS = ["br", "dp", "ai", "index", "take-top"], (0, 8, 15, 30, 40, 41)

    def test_stacked_pass_equals_one_cell_sweeps(self, masspoint5):
        grid = [(self.N, k) for k in self.EDGE_KS]
        records, failures = sweep(masspoint5, self.NAMES, grid, mode="mc",
                                  reps=self.REPS, seed=self.SEED)
        assert records == [mc_cell(masspoint5, name, self.N, k, self.REPS, self.SEED)
                           for name in sorted(self.NAMES) for k in self.EDGE_KS[:-1]]
        assert [(cell, str(exc)) for cell, exc in failures] == infeasible_k(self.NAMES, self.N, 41)

    def test_one_decide_batch_call_per_policy_period_and_block(self, masspoint5, monkeypatch):
        calls = []
        for cls in (BreakpointPolicy, AdaptiveIndexPolicy, NonAdaptivePolicy):
            def counted(self, *args, _decide=cls.decide_batch):
                calls.append(id(self))
                return _decide(self, *args)
            monkeypatch.setattr(cls, "decide_batch", counted)
        sweep(masspoint5, self.NAMES, [(self.N, k) for k in self.EDGE_KS], mode="mc",
              reps=self.REPS, seed=self.SEED)
        policies = 4 + 5  # br, dp, ai and take-top once, index once per feasible k
        assert len(set(calls)) == policies
        assert len(calls) == policies * self.N * 3  # three blocks of draws


def infeasible_k(names, n, k):
    return [((name, n, k), f"(n={n}, k={k}) is not a feasible pair") for name in sorted(names)]


class TestOneTablePerN:
    # a name's cells reuse the policy built for the sweep's largest (n, k), so
    # the exact records equal one-cell evaluations and dp solves once a sweep
    def test_exact_records_equal_one_cell_evaluations(self, masspoint5):
        n, names, ks = 40, ["br", "dp", "ai", "index", "take-top"], (0, 8, 15, 30, 40, 41)
        records, failures = sweep(masspoint5, names, [(n, k) for k in ks])
        assert records == [exact_regret(make_policy(name, masspoint5, n, k), n, k)
                           for name in sorted(names) for k in ks[:-1]]
        assert [(cell, str(exc)) for cell, exc in failures] == infeasible_k(names, n, 41)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_dp_solves_once_per_n(self, masspoint5, monkeypatch, tmp_path, mode):
        solved = []

        def counted(d, n, k):
            solved.append((n, k))
            return solve(d, n, k)

        monkeypatch.setattr(dp, "solve", counted)
        grid = [(n, k) for n in (30, 40) for k in (0, 8, 15, 30)]
        records, _ = sweep(masspoint5, ["dp"], grid, mode=mode, reps=300, seed=1)
        assert len(records) == 8 and solved == [(40, 30)]
        solved.clear()
        dist = tmp_path / "mp5.json"
        dist.write_text(json.dumps({"support": masspoint5.support.tolist(),
                                    "pmf": masspoint5.pmf.tolist()}))
        args = ["sweep-k", "--dist", str(dist), "--n", "40", "--k-range", "0:40:5",
                "--policies", "dp,br", "--out", str(tmp_path / "out.csv")]
        assert cli.main(args + (["--mc", "--reps", "300"] if mode == "mc" else [])) == 0
        assert solved == [(40, 40)]

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_each_cell_passes_its_check_once(self, uniform5, monkeypatch, mode):
        # an exact sweep once checked every cell twice, 26 calls for these 12 cells
        calls = []
        for cls in (BreakpointPolicy, AdaptiveIndexPolicy, NonAdaptivePolicy):
            def spied(self, n, k, _check=cls.check):
                try:
                    _check(self, n, k)
                except ModelError:
                    calls.append((self.name, n, k, False))
                    raise
                calls.append((self.name, n, k, True))
            monkeypatch.setattr(cls, "check", spied)
        grid = [(100, 30), (100, 50), (200, 60)]
        records, failures = sweep(uniform5, ["br", "dp", "ai", "index"], grid, mode,
                                  reps=64, seed=1)
        assert failures == [] and len(records) == 12
        passed = [call[:3] for call in calls if call[3]]
        assert sorted(passed) == [(r.policy, r.n, r.k) for r in records]
        assert len(calls) == 14  # index's held policy fails its two smaller cells

    def test_a_held_policy_failing_its_check_runs_no_forward_pass(self, uniform5, monkeypatch):
        # index's policy held from n=200 fails its check at n=100 and is rebuilt;
        # the benchmark's traced runs require one forward pass per exact cell
        calls, inner = [], evaluate._forward_value
        monkeypatch.setattr(evaluate, "_forward_value",
                            lambda policy, n, k: calls.append((n, k)) or inner(policy, n, k))
        records, failures = sweep(uniform5, ["index"], [(100, 30), (200, 60)])
        assert failures == [] and len(records) == 2
        assert calls == [(200, 60), (100, 30)]

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_a_failing_cell_gets_its_lone_message(self, uniform5, tmp_path, mode):
        # (9, 10) is no feasible pair, but built alone its policy fails first,
        # on the width-10 matrix; a cell that rebuilt only on TableMismatch or
        # DimensionMismatch would report the pair, as the held policy does
        mat = tmp_path / "mat.csv"
        np.savetxt(mat, np.full((uniform5.m, 10), 0.5), delimiter=",")
        name = f"matrix:{mat}"
        records, failures = sweep(uniform5, [name], [(10, 3), (9, 10)], mode, reps=64, seed=1)
        assert [(r.n, r.k) for r in records] == [(10, 3)]
        assert [(cell, str(exc)) for cell, exc in failures] == [
            ((name, 9, 10), "matrix file is 5x10, need 5x9")]


class TestCsv:
    def test_format_and_write(self, uniform5, tmp_path):
        records, _ = sweep(uniform5, ["br"], [(40, 10), (40, 20)])
        path = tmp_path / "out.csv"
        write_records(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "br" and first[1] == "40" and first[3] == "exact"

    def test_twelve_significant_digits(self, uniform5):
        rec = exact_regret(make_policy("br", uniform5, 37, 11), 37, 11)
        text = format_record(rec)
        v_on_text = text.split(",")[4]
        assert float(v_on_text) == pytest.approx(rec.v_on, rel=1e-11)

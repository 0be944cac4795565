import numpy as np
import pytest

from multisecretary import (
    AdaptiveIndexPolicy,
    DimensionMismatch,
    InfeasiblePair,
    ModelError,
    NonAdaptivePolicy,
    NonMarkovPolicy,
    ProbabilityDrift,
    exact_regret,
    make_policy,
    offline_expectation,
    offline_sort,
    simulate_paths,
    solve,
    sweep,
    take_top_matrix,
    write_records,
)
from multisecretary import evaluate
from multisecretary.evaluate import CSV_HEADER, _forward_value, format_record
from multisecretary.simulate import CHUNK
from oracles import ai_prob_table, br_prob_table, enum_policy_value, index_prob_table


def mc_cell(d, name, n, k, reps, seed):
    """The Monte Carlo record of one (policy, n, k) cell: a one-cell sweep."""
    records, failures = sweep(d, [name], [(n, k)], mode="mc", reps=reps, seed=seed)
    assert failures == []
    return records[0]


class TestExactPolicyValue:
    def test_single_period_accept_all(self, masspoint5):
        for name in ("br", "dp", "ai"):
            policy = make_policy(name, masspoint5, 1, 1)
            got = _forward_value(masspoint5, policy, 1, 1)[0]
            assert got == pytest.approx(masspoint5.mean(), abs=1e-12)

    @pytest.mark.parametrize("dist,n,k", [
        pytest.param("uniform5", *nk, id=f"{nk[0]}-{nk[1]}")
        for nk in ((6, 3), (30, 11), (200, 57), (500, 150))
    ] + [pytest.param("masspoint5", 16016, 6292, id="masspoint5-16016-6292")])
    def test_dp_forward_matches_backward(self, request, dist, n, k):
        d = request.getfixturevalue(dist)
        policy = make_policy("dp", d, n, k)
        forward = _forward_value(d, policy, n, k)[0]
        assert forward == pytest.approx(solve(d, n, k).value, abs=1e-10)

    def test_br_matches_path_enumeration(self, uniform3):
        policy = make_policy("br", uniform3, 6, 3)
        got = _forward_value(uniform3, policy, 6, 3)[0]
        want = enum_policy_value(uniform3, 6, 3, br_prob_table(uniform3, 6, 3))
        assert got == pytest.approx(want, abs=1e-9)

    def test_ai_matches_path_enumeration(self, uniform3):
        policy = make_policy("ai", uniform3, 6, 3)
        got = _forward_value(uniform3, policy, 6, 3)[0]
        want = enum_policy_value(uniform3, 6, 3, ai_prob_table(uniform3, 6, 3))
        assert got == pytest.approx(want, abs=1e-9)

    def test_index_matches_path_enumeration(self, masspoint5):
        policy = make_policy("index", masspoint5, 5, 2)
        got = _forward_value(masspoint5, policy, 5, 2)[0]
        want = enum_policy_value(masspoint5, 5, 2, index_prob_table(masspoint5, 5, 2))
        assert got == pytest.approx(want, abs=1e-9)

    def test_dp_dominates_every_policy(self, masspoint5):
        n, k = 90, 33
        best = solve(masspoint5, n, k).value
        for name in ("br", "ai", "index", "take-top"):
            policy = make_policy(name, masspoint5, n, k)
            assert _forward_value(masspoint5, policy, n, k)[0] <= best + 1e-10

    def test_monotone_in_budget(self, masspoint5):
        n = 80
        for name in ("br", "dp", "ai"):
            values = [
                _forward_value(masspoint5, make_policy(name, masspoint5, n, k), n, k)[0]
                for k in range(0, n + 1, 8)
            ]
            assert all(a <= b + 1e-10 for a, b in zip(values, values[1:]))

    def test_probability_drift_stays_tiny(self, uniform5):
        policy = make_policy("br", uniform5, 2000, 600)
        _, drift, _ = _forward_value(uniform5, policy, 2000, 600)
        assert drift < 1e-9

    def test_non_markov_rejected(self, uniform5):
        class Opaque:
            name = "opaque"

        with pytest.raises(NonMarkovPolicy):
            _forward_value(uniform5, Opaque(), 5, 2)

    def test_infeasible(self, uniform5):
        with pytest.raises(InfeasiblePair):
            _forward_value(uniform5, make_policy("br", uniform5, 5, 2), 5, 6)


class _BrokenRates:
    """Budget-ratio stand-in whose live-cell selection rate is overridden."""

    name = "broken"

    def __init__(self, d, rate):
        self.inner = make_policy("br", d, 40, 12)
        self.rate = rate

    def check(self, n, k):
        self.inner.check(n, k)

    def rates(self, t_next, n, budgets):
        sel, gain = self.inner.rates(t_next, n, budgets)
        return np.where(budgets > 0, self.rate, 0.0), gain


class TestForwardWindow:
    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index"])
    def test_window_matches_full_pass_within_bound(self, masspoint5, name):
        n, k = 4004, 1573
        policy = make_policy(name, masspoint5, n, k)
        value, drift, bound = _forward_value(masspoint5, policy, n, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "TAIL_TOL", 0.0)
            full, _, untrimmed = _forward_value(masspoint5, policy, n, k)
        assert untrimmed == 0.0
        assert 0.0 < bound < 2 * masspoint5.support[0] * 1e-12
        assert abs(value - full) <= bound + 4 * np.spacing(full)
        assert drift <= 1e-9
        rec = exact_regret(masspoint5, policy, n, k)
        assert rec.regret >= -rec.error_bound

    def test_bound_reaches_error_bound(self, masspoint5):
        n, k = 400, 157
        policy = make_policy("br", masspoint5, n, k)
        _, _, bound = _forward_value(masspoint5, policy, n, k)
        rec = exact_regret(masspoint5, policy, n, k)
        off = offline_expectation(masspoint5, n, k)
        assert bound > 0.0
        assert rec.error_bound == off.error_bound + bound

    def test_zero_tail_tol_trims_nothing_and_matches_forward_value(self, masspoint5, monkeypatch):
        n, k = 400, 157
        policy = make_policy("ai", masspoint5, n, k)
        trimmed = exact_regret(masspoint5, policy, n, k)
        monkeypatch.setattr(evaluate, "TAIL_TOL", 0.0)
        full = exact_regret(masspoint5, policy, n, k)
        assert full.error_bound == 0.0 < trimmed.error_bound
        assert full.v_on == _forward_value(masspoint5, policy, n, k)[0]

    def test_policies_sharing_a_name_are_evaluated_apart(self, uniform5):
        # a take-top matrix named "index" once reused the index policy's value
        n, k = 200, 60
        index = make_policy("index", uniform5, n, k)
        take_top = NonAdaptivePolicy(uniform5, take_top_matrix(uniform5, n), "index")
        first = _forward_value(uniform5, index, n, k)[0]
        second = _forward_value(uniform5, take_top, n, k)[0]
        assert second < first - 1.0

    @pytest.mark.parametrize("rate", [np.nan, 1.5])
    def test_invalid_rates_raise_probability_drift(self, uniform5, rate):
        # NaN rates once returned value nan; rates above one kept the total
        # mass at 1 through negative cells and returned a finite value
        with pytest.raises(ProbabilityDrift):
            _forward_value(uniform5, _BrokenRates(uniform5, rate), 40, 12)


class TestExactRegret:
    def test_zero_at_budget_extremes(self, masspoint5):
        for name in ("br", "dp", "ai"):
            n = 120
            rec0 = exact_regret(masspoint5, make_policy(name, masspoint5, n, 0), n, 0)
            recn = exact_regret(masspoint5, make_policy(name, masspoint5, n, n), n, n)
            assert abs(rec0.regret) <= 1e-9
            assert abs(recn.regret) <= 1e-9

    def test_dp_beats_br_and_both_nonnegative(self, uniform5):
        n = 300
        for k in (60, 90, 150, 240):
            dp = exact_regret(uniform5, make_policy("dp", uniform5, n, k), n, k)
            br = exact_regret(uniform5, make_policy("br", uniform5, n, k), n, k)
            slack = dp.error_bound + 1e-9
            assert dp.regret >= -slack
            assert dp.regret <= br.regret + slack

    def test_record_fields(self, uniform5):
        rec = exact_regret(uniform5, make_policy("br", uniform5, 50, 20), 50, 20)
        assert rec.method == "exact"
        assert rec.ci_halfwidth == 0.0
        assert rec.regret == pytest.approx(rec.v_off - rec.v_on, abs=0)
        assert rec.regret >= -rec.error_bound - 1e-9


class TestMonteCarlo:
    def test_agrees_with_exact(self, uniform5):
        n, k, reps = 300, 90, 20_000
        exact = exact_regret(uniform5, make_policy("br", uniform5, n, k), n, k)
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
        payoffs, counts, paths = simulate_paths(masspoint5, policy, n, k, reps, seed=123)
        for row in range(0, reps, 97):
            off = offline_sort(masspoint5, counts[row], k).payoff
            assert off >= payoffs[row] - 1e-9
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

    def test_mc_mode(self, uniform3):
        records, _ = sweep(uniform3, ["br"], [(30, 10)], mode="mc", reps=200, seed=5)
        assert records[0].method == "mc" and records[0].ci_halfwidth > 0.0


class SecondBlockFails(AdaptiveIndexPolicy):
    """ai until period 7 of its second block, where it raises."""

    name = "stub"

    def __init__(self, d):
        super().__init__(d)
        self.blocks = 0

    def decide_batch(self, t_next, n, budgets, abilities, u):
        self.blocks += t_next == 1
        if self.blocks == 2 and t_next == 7:
            raise RuntimeError("stub failed in its second block")
        return super().decide_batch(t_next, n, budgets, abilities, u)


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
        # pass fails with its exception, and the pass at n=40 is unchanged
        build = evaluate.make_policy
        fail_n, ks = 30, self.KS[:2]
        monkeypatch.setattr(evaluate, "make_policy", lambda name, d, n, k: (
            SecondBlockFails(d) if (name, n) == ("ai", fail_n) else build(name, d, n, k)))
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
        rec = exact_regret(uniform5, make_policy("br", uniform5, 37, 11), 37, 11)
        text = format_record(rec)
        v_on_text = text.split(",")[4]
        assert float(v_on_text) == pytest.approx(rec.v_on, rel=1e-11)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from multisecretary import (
    CountMismatch,
    InfeasiblePair,
    dr_solution,
    half_min_mass,
    new_distribution,
    offline_expectation,
    offline_sort,
)
from oracles import (
    action_index_j0,
    binomial_overshoot,
    binomial_undershoot,
    enum_offline_value,
    exact_offline_value,
    max_integer_selection,
)


class TestOfflineSort:
    def test_cascade_example(self, uniform3):
        res = offline_sort(uniform3, [3, 2, 5], 4)
        np.testing.assert_array_equal(res.s, [3, 1, 0])
        assert res.payoff == pytest.approx(3 * 3 + 2 * 1, abs=0)

    def test_budget_exceeds_supply(self, uniform3):
        res = offline_sort(uniform3, [2, 2, 2], 10)
        np.testing.assert_array_equal(res.s, [2, 2, 2])

    def test_zero_budget(self, uniform3):
        res = offline_sort(uniform3, [4, 4, 4], 0)
        assert res.payoff == 0.0 and res.s.sum() == 0

    def test_count_validation(self, uniform3):
        with pytest.raises(CountMismatch):
            offline_sort(uniform3, [1, 2], 1)
        with pytest.raises(CountMismatch):
            offline_sort(uniform3, [1, -1, 2], 1)

    def test_greedy_matches_integer_brute_force(self):
        # every count vector summing to n <= 8, m = 3, several budgets
        d = new_distribution([3.0, 2.0, 1.0], [0.5, 0.2, 0.3])
        for n in range(0, 9):
            for z1 in range(n + 1):
                for z2 in range(n - z1 + 1):
                    z = (z1, z2, n - z1 - z2)
                    for k in {0, 1, n // 2, n}:
                        got = offline_sort(d, z, k).payoff
                        want = max_integer_selection(d.support, z, k)
                        assert got == pytest.approx(want, abs=1e-12)


class TestOfflineExpectation:
    def test_pair_maximum(self, uniform3):
        want = sum(
            (1 / 9) * max(a, b) for a in uniform3.support for b in uniform3.support
        )
        assert offline_expectation(uniform3, 2, 1).value == pytest.approx(want, abs=1e-12)

    def test_full_budget_takes_everything(self, masspoint5):
        n = 57
        got = offline_expectation(masspoint5, n, n)
        assert got.value == pytest.approx(n * masspoint5.mean(), abs=1e-12)
        np.testing.assert_allclose(got.per_ability, n * masspoint5.pmf, atol=1e-12)

    def test_matches_sequence_enumeration_uniform5(self, uniform5):
        got = offline_expectation(uniform5, 8, 3).value
        want = enum_offline_value(uniform5, 8, 3)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 3, 5, 7])
    def test_matches_sequence_enumeration_small(self, small_family, k):
        for d in small_family:
            n = 7
            got = offline_expectation(d, n, k).value
            want = enum_offline_value(d, n, k)
            assert got == pytest.approx(want, abs=1e-9)

    def test_zero_tail_tol_is_exact(self, uniform3):
        got = offline_expectation(uniform3, 6, 3)
        want = enum_offline_value(uniform3, 6, 3)
        assert got.value == pytest.approx(want, abs=1e-12)
        assert got.error_bound == 0.0

    def test_monotone_in_budget_and_horizon(self, masspoint5):
        values_k = [offline_expectation(masspoint5, 40, k).value for k in range(0, 41, 4)]
        assert all(a <= b + 1e-12 for a, b in zip(values_k, values_k[1:]))
        values_n = [offline_expectation(masspoint5, n, 10).value for n in (10, 20, 40, 80)]
        assert all(a <= b + 1e-12 for a, b in zip(values_n, values_n[1:]))

    def test_error_bound_is_tiny(self, uniform5):
        got = offline_expectation(uniform5, 2000, 600)
        assert 0.0 <= got.error_bound < 1e-6

    def test_infeasible(self, uniform3):
        with pytest.raises(InfeasiblePair):
            offline_expectation(uniform3, 5, 6)

    def test_decomposition_bounds(self, masspoint5):
        # within each action-index cell, almost all activity is at two levels
        d = masspoint5
        eps = half_min_mass(d)
        n = 400
        for k in (40, 120, 200, 280, 360):
            j0 = action_index_j0(d, n, k)
            got = offline_expectation(d, n, k)
            above = float(np.sum(n * d.pmf[: j0 - 1])) - float(
                np.sum(got.per_ability[: j0 - 1])
            )
            below = float(np.sum(got.per_ability[j0 + 1 :]))
            assert above <= 1 / (4 * eps) + 1e-9
            assert below <= 1 / (4 * eps) + 1e-9

    @pytest.mark.parametrize("dist", ["uniform5", "masspoint5", "uniform10"])
    @pytest.mark.parametrize("n", [1000, 16016])
    def test_capped_means_match_undershoot_oracle(self, request, dist, n):
        # E[min(Z_j, k)] = k - E[(k - Z_j)_+], the oracle summing every pmf term
        d = request.getfixturevalue(dist)
        ratios = np.concatenate((np.linspace(0.05, 0.95, 19), d.survival_values[1:-1]))
        for k in sorted({int(round(r * n)) for r in ratios}):
            got = offline_expectation(d, n, k)
            capped = np.cumsum(got.per_ability)
            want = [k - binomial_undershoot(n, q, k) for q in d.survival_values[1:]]
            np.testing.assert_allclose(capped, want, rtol=1e-12, atol=0, err_msg=str(k))
            assert got.error_bound == 0.0


@st.composite
def dyadic_instances(draw):
    """Support points in eighths and masses in 32nds, so that the float
    instance is the rational one and its masses sum to exactly 1."""
    m = draw(st.integers(1, 4))
    support = sorted(draw(st.lists(st.integers(1, 40), min_size=m, max_size=m, unique=True)),
                     reverse=True)
    cuts = sorted(draw(st.lists(st.integers(1, 31), min_size=m - 1, max_size=m - 1, unique=True)))
    d = new_distribution([a / 8 for a in support], np.diff([0, *cuts, 32]) / 32)
    n = draw(st.integers(0, 60))
    return d, n, draw(st.integers(0, n))


@settings(max_examples=100, deadline=None)
@given(dyadic_instances())
def test_matches_exact_conditional_sum(inst):
    d, n, k = inst
    want = float(exact_offline_value(d.support, d.pmf, n, k))
    got = offline_expectation(d, n, k)
    assert abs(got.value - want) <= 8 * np.spacing(want)
    assert got.error_bound == 0.0


class TestDeterministicRelaxation:
    def test_three_point_closed_form(self, uniform3):
        s, value = dr_solution(uniform3, 300, 150)
        np.testing.assert_allclose(s, [100.0, 50.0, 0.0], atol=1e-9)
        assert value == pytest.approx(3 * 100 + 2 * 50, abs=1e-9)

    def test_closed_form_solves_the_lp(self, masspoint5):
        d = masspoint5
        n, k = 97, 41
        s, value = dr_solution(d, n, k)
        res = linprog(
            -np.asarray(d.support),
            A_ub=np.ones((1, d.m)),
            b_ub=[k],
            bounds=[(0, n * f) for f in d.pmf],
            method="highs",
        )
        assert res.success
        assert value == pytest.approx(-res.fun, abs=1e-8)
        assert np.sum(s) == pytest.approx(min(k, n), abs=1e-9)

    def test_extremes(self, masspoint5):
        s0, v0 = dr_solution(masspoint5, 50, 0)
        assert v0 == 0.0 and np.all(s0 == 0)
        sn, vn = dr_solution(masspoint5, 50, 50)
        np.testing.assert_allclose(sn, 50 * masspoint5.pmf, atol=1e-12)
        assert vn == pytest.approx(50 * masspoint5.mean(), abs=1e-9)

    def test_upper_bounds_offline(self, uniform5, masspoint5):
        for d in (uniform5, masspoint5):
            for n in (50, 200):
                for k in range(0, n + 1, max(n // 8, 1)):
                    off = offline_expectation(d, n, k)
                    _, dr = dr_solution(d, n, k)
                    assert off.value <= dr + off.error_bound + 1e-9

    def test_plateau_gap_bound(self, uniform5):
        # k/n held half the stability margin inside a survival plateau
        d = uniform5
        eps_prime = half_min_mass(d) / 2
        n = 500
        sv = d.survival_values
        for j in range(1, d.m + 1):
            lo, hi = sv[j - 1] + eps_prime, sv[j] - eps_prime
            k = int(round(n * (lo + hi) / 2))
            off = offline_expectation(d, n, k)
            _, dr = dr_solution(d, n, k)
            assert dr - off.value <= d.support[0] * d.m / (4 * eps_prime) + 1e-9


class TestBinomialHelpers:
    def test_overshoot_small_case(self):
        assert binomial_overshoot(2, 0.5, 1) == pytest.approx(0.25, abs=1e-14)

    def test_degenerate_p(self):
        assert binomial_overshoot(10, 0.0, 0) == 0.0
        assert binomial_undershoot(10, 1.0, 10) == 0.0

    def test_lemma_bound_spot_check(self):
        # margin 0.2 between p and k/n caps the overshoot at 1/(4 * 0.2)
        assert binomial_overshoot(20, 0.3, 10) <= 1 / (4 * 0.2)

    def test_overshoot_undershoot_identity(self):
        # E[(B-k)+] - E[(k-B)+] = E[B] - k
        n, p, k = 37, 0.42, 12
        over = binomial_overshoot(n, p, k)
        under = binomial_undershoot(n, p, k)
        assert over - under == pytest.approx(n * p - k, abs=1e-10)

    def test_validation(self):
        with pytest.raises(InfeasiblePair):
            binomial_overshoot(5, 1.5, 1)
        with pytest.raises(InfeasiblePair):
            binomial_undershoot(5, 0.5, -1)

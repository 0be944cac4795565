import warnings

import numpy as np
import pytest

from multisecretary import (
    IndexOutOfRange,
    InfeasiblePair,
    InstanceTooLarge,
    TableMismatch,
    accept_threshold,
    full_value_check,
    new_distribution,
    optimal_value,
    solve,
)
from oracles import accept_cut, enum_optimal_value


class TestRecursion:
    def test_boundary_rows(self, uniform3):
        tab = solve(uniform3, 5, 3, mode="full")
        assert np.all(tab.g[0] == 0.0)
        assert np.all(tab.g[:, 0] == 0.0)

    def test_single_point_closed_form(self):
        d = new_distribution([1.7], [1.0])
        tab = solve(d, 6, 4, mode="full")
        for ell in range(7):
            for kappa in range(5):
                assert tab.g[ell, kappa] == pytest.approx(
                    1.7 * min(ell, kappa), abs=1e-12
                )

    def test_one_period_value_is_mean(self, masspoint5):
        tab = solve(masspoint5, 3, 2, mode="full")
        for kappa in (1, 2):
            assert tab.g[1, kappa] == pytest.approx(masspoint5.mean(), abs=1e-12)

    def test_monotone_and_bounded(self, masspoint5):
        tab = solve(masspoint5, 12, 7, mode="full")
        assert np.all(np.diff(tab.g, axis=0) >= -1e-12)
        assert np.all(np.diff(tab.g, axis=1) >= -1e-12)
        a1 = masspoint5.support[0]
        for ell in range(13):
            for kappa in range(8):
                assert -1e-12 <= tab.g[ell, kappa] <= a1 * min(ell, kappa) + 1e-12

    def test_matches_history_tree_uniform3(self, uniform3):
        got = optimal_value(uniform3, 4, 2)
        want = enum_optimal_value(uniform3, 4, 2)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 4), (7, 3)])
    def test_matches_history_tree_family(self, small_family, n, k):
        for d in small_family:
            assert optimal_value(d, n, k) == pytest.approx(
                enum_optimal_value(d, n, k), abs=1e-9
            )

    def test_infeasible(self, uniform3):
        with pytest.raises(InfeasiblePair):
            solve(uniform3, 4, 5)

    def test_modes_agree(self, masspoint5):
        full = solve(masspoint5, 30, 12, mode="full")
        pol = solve(masspoint5, 30, 12, mode="policy")
        val = solve(masspoint5, 30, 12, mode="value")
        assert full.value == pol.value == val.value
        np.testing.assert_array_equal(full.cuts, pol.cuts)
        assert val.cuts is None and val.g is None


class TestAcceptThreshold:
    def test_two_to_go_one_budget_is_mean(self, uniform5, masspoint5):
        for d in (uniform5, masspoint5):
            tab = solve(d, 4, 2, mode="full")
            assert accept_threshold(tab, 2, 1) == pytest.approx(d.mean(), abs=1e-12)

    def test_last_period_accepts_anything(self, masspoint5):
        tab = solve(masspoint5, 4, 2, mode="full")
        assert accept_threshold(tab, 1, 1) == 0.0
        assert accept_cut(tab, 1, 1) == masspoint5.m

    def test_zero_once_budget_covers_remaining(self, masspoint5):
        # h_l(kappa) = 0 for kappa >= l: both g_{l-1} cells sit at the
        # take-everything plateau.  (At kappa = l - 1 it is generally
        # positive: h_2(1) equals the mean.)
        tab = solve(masspoint5, 10, 10, mode="full")
        for ell in range(1, 11):
            for kappa in range(ell, 11):
                assert accept_threshold(tab, ell, kappa) == pytest.approx(0.0, abs=1e-12)
        assert accept_threshold(tab, 2, 1) > 0.5

    def test_range_checks(self, uniform3):
        tab = solve(uniform3, 4, 2, mode="full")
        for ell, kappa in ((0, 1), (5, 1), (1, 0), (1, 3)):
            with pytest.raises(IndexOutOfRange):
                accept_threshold(tab, ell, kappa)

    def test_needs_full_mode(self, uniform3):
        tab = solve(uniform3, 4, 2, mode="policy")
        with pytest.raises(TableMismatch):
            accept_threshold(tab, 2, 1)

    def test_monotone_in_budget_reported_not_asserted(self, masspoint5):
        # concavity of g in kappa is not claimed; surface violations as a
        # warning so a counterexample becomes a finding, not a failure
        tab = solve(masspoint5, 40, 20, mode="full")
        h = tab.g[:, 1:] - tab.g[:, :-1]
        worst = float(np.max(np.diff(h, axis=1)))
        if worst > 1e-12:
            warnings.warn(f"marginal value increased in budget by {worst:.3e}")


class TestFullValueCheck:
    def test_zero_accrual_matches_g(self, uniform3):
        assert full_value_check(uniform3, 4, 2, 0.0) == pytest.approx(
            optimal_value(uniform3, 4, 2), abs=1e-10
        )

    def test_shift_by_half(self, uniform3):
        got = full_value_check(uniform3, 3, 1, 5.5)
        assert got == pytest.approx(5.5 + optimal_value(uniform3, 3, 1), abs=1e-10)

    def test_zero_budget_returns_accrual(self, uniform3):
        assert full_value_check(uniform3, 5, 0, 2.25) == 2.25

    def test_affine_in_accrual(self, masspoint5):
        base = full_value_check(masspoint5, 6, 3, 0.0)
        for w in (0.1, 1.0, 7.5, 123.25):
            assert full_value_check(masspoint5, 6, 3, w) == pytest.approx(
                w + base, abs=1e-10
            )

    def test_size_guard(self, uniform3):
        with pytest.raises(InstanceTooLarge):
            full_value_check(uniform3, 13, 2, 0.0)

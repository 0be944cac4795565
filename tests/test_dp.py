from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisecretary import (
    InfeasiblePair,
    TableMismatch,
    new_distribution,
    solve,
)
from multisecretary.dp import TIE_TOL_SCALE
from oracles import (
    InstanceTooLarge,
    accept_cut,
    accept_threshold,
    enum_optimal_value,
    exact_value_table,
    full_value_check,
    reference_table,
)


class TestRecursion:
    def test_boundary_rows(self, uniform3):
        for ell in range(6):
            assert solve(uniform3, ell, 0).value == 0.0
        tab = solve(uniform3, 5, 3)
        assert np.all(tab.breakpoints[0] == tab.k + 1)
        assert np.all(tab.breakpoints[1:] >= 1)

    def test_single_point_closed_form(self):
        d = new_distribution([1.7], [1.0])
        for ell in range(7):
            for kappa in range(min(ell, 4) + 1):
                assert solve(d, ell, kappa).value == pytest.approx(1.7 * kappa, abs=1e-12)
        assert np.all(solve(d, 6, 4).breakpoints[1:] == 1)

    def test_one_period_value_is_mean(self, masspoint5):
        assert solve(masspoint5, 1, 1).value == pytest.approx(masspoint5.mean(), abs=1e-12)

    def test_monotone_and_bounded(self, masspoint5):
        g = {
            (ell, kappa): solve(masspoint5, ell, kappa).value
            for ell in range(13)
            for kappa in range(min(ell, 7) + 1)
        }
        a1 = masspoint5.support[0]
        for (ell, kappa), v in g.items():
            assert -1e-12 <= v <= a1 * min(ell, kappa) + 1e-12
            assert g.get((ell - 1, kappa), 0.0) <= v + 1e-12
            assert g.get((ell, kappa - 1), 0.0) <= v + 1e-12

    def test_matches_history_tree_uniform3(self, uniform3):
        got = solve(uniform3, 4, 2).value
        want = enum_optimal_value(uniform3, 4, 2)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 4), (7, 3)])
    def test_matches_history_tree_family(self, small_family, n, k):
        for d in small_family:
            assert solve(d, n, k).value == pytest.approx(
                enum_optimal_value(d, n, k), abs=1e-9
            )

    def test_infeasible(self, uniform3):
        with pytest.raises(InfeasiblePair):
            solve(uniform3, 4, 5)

    def test_reference_table_agrees(self, masspoint5):
        ref = reference_table(masspoint5, 30, 12)
        tab = solve(masspoint5, 30, 12)
        assert tab.value == pytest.approx(ref.g[30, 12], abs=1e-12)
        tie_tol = TIE_TOL_SCALE * masspoint5.support[0]
        for ell in range(1, 31):
            assert accept_cut(tab, ell, 0) == 0
            for kappa in range(1, 13):
                h = accept_threshold(ref, ell, kappa)
                assert accept_cut(tab, ell, kappa) == np.sum(masspoint5.support >= h - tie_tol)


@st.composite
def instances(draw):
    m = draw(st.integers(1, 4))
    support = sorted(draw(st.lists(st.integers(1, 40), min_size=m, max_size=m, unique=True)),
                     reverse=True)
    weights = draw(st.lists(st.integers(1, 20), min_size=m, max_size=m))
    d = new_distribution([a / 8 for a in support], [w / sum(weights) for w in weights])
    n = draw(st.integers(0, 30))
    return d, n, draw(st.integers(0, n))


@settings(max_examples=120, deadline=None)
@given(instances())
def test_matches_exact_rational_dp(inst):
    d, n, k = inst
    g = exact_value_table(d.support, d.pmf, n, k)
    tab = solve(d, n, k)
    assert abs(tab.value - float(g[n][k])) <= 1e-9
    tie_tol = Fraction(TIE_TOL_SCALE * float(d.support[0]))
    support = [Fraction(float(a)) for a in d.support]
    for ell in range(1, n + 1):
        for kappa in range(1, k + 1):
            h = g[ell - 1][kappa] - g[ell - 1][kappa - 1]
            for j, a in enumerate(support):
                selects = kappa >= tab.breakpoints[ell, j]
                if abs(h - a) > tie_tol:
                    assert selects == (a > h), (ell, kappa, j)
                elif a == h:
                    assert selects, (ell, kappa, j)


class TestSharedTable:
    # h_l(kappa) reads only cells kappa' <= kappa, so the table solved at the
    # largest budget decides every smaller one: capped at k + 1, it is the
    # table solved at k, and a sweep over k needs one solve per n
    @pytest.mark.parametrize("dist", ["uniform5", "masspoint5"])
    def test_capped_table_equals_the_table_solved_at_k(self, request, dist):
        d = request.getfixturevalue(dist)
        n = 1000
        full = solve(d, n, n).breakpoints
        for k in range(0, n + 1, 25):
            assert np.array_equal(np.minimum(full, k + 1), solve(d, n, k).breakpoints), k


class TestAcceptThreshold:
    def test_two_to_go_one_budget_is_mean(self, uniform5, masspoint5):
        for d in (uniform5, masspoint5):
            assert accept_threshold(reference_table(d, 4, 2), 2, 1) == pytest.approx(
                d.mean(), abs=1e-12
            )
            # uniform5's mean is its middle point: ties select
            tie_tol = TIE_TOL_SCALE * d.support[0]
            assert accept_cut(solve(d, 4, 2), 2, 1) == np.sum(d.support >= d.mean() - tie_tol)

    def test_last_period_accepts_anything(self, masspoint5):
        assert accept_threshold(reference_table(masspoint5, 4, 2), 1, 1) == 0.0
        assert accept_cut(solve(masspoint5, 4, 2), 1, 1) == masspoint5.m

    def test_zero_once_budget_covers_remaining(self, masspoint5):
        # h_l(kappa) = 0 for kappa >= l: both g_{l-1} cells sit at the
        # take-everything plateau.  (At kappa = l - 1 it is generally
        # positive: h_2(1) equals the mean.)
        ref = reference_table(masspoint5, 10, 10)
        tab = solve(masspoint5, 10, 10)
        for ell in range(1, 11):
            for kappa in range(ell, 11):
                assert accept_threshold(ref, ell, kappa) == pytest.approx(0.0, abs=1e-12)
                assert accept_cut(tab, ell, kappa) == masspoint5.m
        assert accept_threshold(ref, 2, 1) > 0.5

    def test_range_checks(self, uniform3):
        ref = reference_table(uniform3, 4, 2)
        for ell, kappa in ((0, 1), (5, 1), (1, 0), (1, 3)):
            with pytest.raises(IndexError):
                accept_threshold(ref, ell, kappa)
        tab = solve(uniform3, 4, 2)
        for ell, kappa in ((0, 1), (5, 1), (1, -1), (1, 3)):
            with pytest.raises(IndexError):
                accept_cut(tab, ell, kappa)

    def test_exact_ties_select(self, uniform5):
        # In decimals, uniform5's mean 1.1 is its middle point and h_l(kappa)
        # equals a support point at 40 states; float noise in h must not
        # split them
        n, k = 80, 40
        g = exact_value_table(["2.0", "1.55", "1.1", "0.65", "0.2"], ["0.2"] * 5, n, k)
        tab = solve(uniform5, n, k)
        support = [Fraction(a) for a in ("2.0", "1.55", "1.1", "0.65", "0.2")]
        ties = [
            (ell, kappa, j)
            for ell in range(1, n + 1)
            for kappa in range(1, k + 1)
            for j, a in enumerate(support)
            if g[ell - 1][kappa] - g[ell - 1][kappa - 1] == a
        ]
        assert len(ties) == 40
        assert all(kappa >= tab.breakpoints[ell, j] for ell, kappa, j in ties)

    def test_needs_full_mode(self, uniform3):
        # a solved table keeps breakpoints only, no g to difference
        with pytest.raises(TableMismatch):
            accept_threshold(solve(uniform3, 4, 2), 2, 1)

    def test_monotone_in_budget(self, masspoint5):
        # g is concave in kappa, so h_l is non-increasing and every ability is
        # selected from its breakpoint on, lower abilities from later ones
        h = np.diff(reference_table(masspoint5, 40, 20).g, axis=1)
        assert np.max(np.diff(h, axis=1)) <= 1e-12
        tab = solve(masspoint5, 16016, 6292)
        assert np.all(np.diff(tab.breakpoints, axis=1) >= 0)
        assert tab.breakpoints.min() >= 1 and tab.breakpoints.max() <= tab.k + 1


class TestFullValueCheck:
    def test_zero_accrual_matches_g(self, uniform3):
        assert full_value_check(uniform3, 4, 2, 0.0) == pytest.approx(
            solve(uniform3, 4, 2).value, abs=1e-10
        )

    def test_shift_by_half(self, uniform3):
        got = full_value_check(uniform3, 3, 1, 5.5)
        assert got == pytest.approx(5.5 + solve(uniform3, 3, 1).value, abs=1e-10)

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

"""The forward pass asks ``rates`` once per block of periods, and one
breakpoint table serves every smaller horizon and budget: both must give the
bits of the per-period pass and of freshly built policies."""

import numpy as np
import pytest

from multisecretary import NonAdaptivePolicy, TableMismatch, exact_regret, make_policy, sweep
from multisecretary.evaluate import BLOCK, _forward_value, _window_pass
from multisecretary.policies import POLICY_NAMES
from oracles import enum_policy_value, forward_value_per_period

NAMES = POLICY_NAMES + ("matrix",)
# n below, at and off multiples of BLOCK; budgets that run out (the window
# reaches budget 0) and windows wide enough to trim at both edges
CELLS = [(5, 2), (16, 8), (17, 0), (37, 5), (100, 99), (333, 111), (1000, 300), (1000, 980)]


def build(name, d, n, k):
    """``make_policy``, with ``matrix`` a seeded time-varying random matrix."""
    if name == "matrix":
        return NonAdaptivePolicy(d, np.random.default_rng(2).random((d.m, n)), "matrix")
    return make_policy(name, d, n, k)


class LowestBudget:
    """A policy that records the lowest budget it was asked about."""

    def __init__(self, policy):
        self.policy, self.name, self.dist, self.lowest = policy, policy.name, policy.dist, None

    def check(self, n, k):
        self.policy.check(n, k)

    def rates(self, left, budgets):
        low = int(budgets[0])
        self.lowest = low if self.lowest is None else min(self.lowest, low)
        return self.policy.rates(left, budgets)


def bits(*arrays):
    return [(a.shape, np.asarray(a).tobytes()) for a in arrays]


@pytest.mark.parametrize("dist", ["uniform5", "masspoint5"])
@pytest.mark.parametrize("name", NAMES)
def test_block_pass_equals_per_period_pass(request, dist, name):
    d = request.getfixturevalue(dist)
    reached_zero = trimmed = 0
    for n, k in CELLS:
        policy = LowestBudget(build(name, d, n, k))
        want = forward_value_per_period(policy, n, k)
        assert _window_pass(policy.policy, n, k) == want, (n, k)
        reached_zero += policy.lowest == 0
        trimmed += want[2] > 0.0
    assert reached_zero and trimmed  # the cells reach both edge cases


@pytest.mark.parametrize("dist", ["uniform5", "masspoint5"])
@pytest.mark.parametrize("name", NAMES)
def test_block_rows_equal_scalar_calls(request, dist, name):
    d = request.getfixturevalue(dist)
    n, k = 200, 60
    policy = build(name, d, n, k)
    periods = [np.arange(1, BLOCK + 1), np.array([3, 50, 199, 200]), np.arange(190, 201),
               np.array([7])]
    budgets = [np.arange(k + 1), np.arange(17, 42), np.array([5]), np.array([0])]
    for t in periods:
        left = n - t + 1
        for b in budgets:
            sel, gain = policy.rates(left, b)
            assert sel.shape == gain.shape == (t.size, b.size)
            for i, one_left in enumerate(left.tolist()):
                one = policy.rates(np.array([one_left]), b)
                assert bits(*one) == bits(sel[i : i + 1], gain[i : i + 1]), (one_left, b)


def test_time_varying_matrix_matches_enumeration(uniform3):
    # each period reads its own column: checked against every ability sequence
    n, k = 7, 3
    p = np.random.default_rng(2).random((uniform3.m, n))

    def table(t_next):
        probs = np.repeat(p[:, t_next - 1 : t_next], k + 1, axis=1)
        probs[:, 0] = 0.0
        return probs

    value, _, bound = _forward_value(build("matrix", uniform3, n, k), n, k)
    assert bound == 0.0
    assert value == pytest.approx(enum_policy_value(uniform3, n, k, table), rel=1e-13)


@pytest.mark.parametrize("dist", ["uniform5", "masspoint5"])
@pytest.mark.parametrize("name", ["br", "dp"])
def test_one_table_decides_every_smaller_cell(request, dist, name):
    d = request.getfixturevalue(dist)
    big_n, big_k = 120, 80
    big = make_policy(name, d, big_n, big_k)
    rng = np.random.default_rng(5)
    for n in (1, 17, 60, 119, 120):
        for k in sorted({0, 1, min(n, 40), min(n, big_k)}):
            big.check(n, k)
            fresh = make_policy(name, d, n, k)
            lefts, budgets = np.arange(n, 0, -1), np.arange(k + 1)
            assert bits(*big.rates(lefts, budgets)) == bits(*fresh.rates(lefts, budgets))
            held = rng.integers(0, k + 1, 64)
            ranks = rng.integers(1, d.m + 1, 64).astype(np.int16)
            for left in range(1, n + 1):
                assert np.array_equal(big.decide_batch(left, held, ranks, None),
                                      fresh.decide_batch(left, held, ranks, None))
            assert _forward_value(big, n, k) == _forward_value(fresh, n, k), (n, k)
    with pytest.raises(TableMismatch):
        big.check(big_n + 1, big_k)
    if name == "dp":  # br's table decides every budget up to its horizon
        with pytest.raises(TableMismatch):
            big.check(big_n, big_k + 1)


def test_sweep_over_n_equals_one_cell_evaluations(masspoint5):
    # cells run in descending (n, k) on each name's one policy
    names, grid = ["br", "dp", "ai", "index"], [(40, 15), (97, 38), (33, 20), (97, 90), (40, 40)]
    records, failures = sweep(masspoint5, names, grid)
    assert failures == []
    assert records == [exact_regret(make_policy(name, masspoint5, n, k), n, k)
                       for name in sorted(names) for n, k in sorted(grid)]

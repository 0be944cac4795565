"""Selection policies as state-Markov rules on (periods left, residual budget, rank).

Every policy is a pure function of its static precomputation and the state;
randomization enters only through one uniform draw per decision.  Each
policy exposes ``check(n, k)``, which every engine entry calls once per cell
before any work, and two vectorized hooks that only index: ``rates`` for the
exact evaluator and ``decide_batch`` for the sample-path engine, so common
random numbers and closed-form u-integration need no per-policy casework.

Neither hook takes the horizon: each reads the state as ``left``, the periods
to go with the current one included (n - t + 1 in period t).
``rates(left, budgets)`` maps a 1-D integer array ``left`` and a 1-D
ascending array of budgets to the selection rate and the expected gain of
each (left, budget) cell, two arrays of shape ``(left.size, budgets.size)``.
``decide_batch(left, budgets, abilities, u)`` takes one integer ``left`` and
budgets of any shape, e.g. one row per budget k of a sweep, against a (reps,)
row of ranks and uniforms.  Each class declares ``randomized``: ``False``
when its rule never reads ``u``, so the sample-path engine may pass
``u=None`` and need not store the decision uniforms (it still draws them, so
every Philox stream is the same either way).  A :class:`NonAdaptivePolicy`
also states ``constant_rates``: the (selection rate, gain) pair its
``rates`` give every live budget when no period differs, else None; the
exact evaluator values such a rule in closed form.

br (budget ratio) and dp (optimal) are both a :class:`BreakpointPolicy` on a
budget-breakpoint table built for one (N, K), whose row l depends on l alone:
its ``check(n, k)`` passes at every n <= N and k <= K, where the policy then
decides (n, k) exactly as ``make_policy(name, d, n, k)`` would, so one policy
may serve every cell of a sweep; above either it raises ``TableMismatch``.
"""

from __future__ import annotations

import math

import numpy as np

from . import dp as dp_mod
from .distribution import RATIO_TIE_TOL, AbilityDistribution, partial_means, thresholds
from .errors import DimensionMismatch, ModelError, TableMismatch, check_pair

_BLOCK_CELLS = 8192  # float cells per row block of br's breakpoint table


def index_matrix(d: AbilityDistribution, n: int, k: int) -> np.ndarray:
    """Time-constant (m, n) matrix from the deterministic relaxation at ratio k/n.

    Ranks above the pivot are always taken, the pivot rank with the
    fractional probability (k/n - F̄)/f, lower ranks never.  Fractions within
    the ratio tie tolerance of 0 or 1, or beyond either, snap to that endpoint.
    """
    check_pair(n, k, min_n=1)
    ratio = k / n
    sv = d.survival_values
    pivot = int(np.searchsorted(sv[: d.m], ratio + RATIO_TIE_TOL, side="right"))
    frac = (ratio - sv[pivot - 1]) / d.pmf[pivot - 1]
    if frac < RATIO_TIE_TOL:
        frac = 0.0
    elif 1.0 - frac < RATIO_TIE_TOL:
        frac = 1.0
    col = np.zeros(d.m)
    col[: pivot - 1] = 1.0
    col[pivot - 1] = frac
    return np.tile(col[:, None], (1, n))


def take_top_matrix(d: AbilityDistribution, n: int) -> np.ndarray:
    """Take every top-ability arrival, nothing else."""
    check_pair(n, 0, min_n=1)
    p = np.zeros((d.m, n))
    p[0, :] = 1.0
    return p


def _ratio_breakpoints(values: np.ndarray, n: int) -> np.ndarray:
    """br's table for thresholds ``values`` = T_1..T_m: entry [l, j - 1] is the
    smallest kappa >= 1 with kappa/l + ``RATIO_TIE_TOL`` >= T_j in floats (row 0
    is n + 1).  ceil((T_j - tol) l) is off by a cell where the float test
    rounds across it, so one step up or down re-evaluates the test itself.
    Rows are built a block at a time, so the float temporaries stay at about
    ``_BLOCK_CELLS`` entries whatever n is.
    """
    bp = np.empty((n + 1, values.size), dtype=np.int64)
    bp[0] = n + 1
    rows = max(1, _BLOCK_CELLS // values.size)
    for start in range(1, n + 1, rows):
        ell = np.arange(start, min(start + rows, n + 1), dtype=float)[:, None]
        cut = np.ceil((values - RATIO_TIE_TOL) * ell)
        cut += cut / ell + RATIO_TIE_TOL < values
        cut -= (cut - 1.0) / ell + RATIO_TIE_TOL >= values
        np.maximum(cut, 1.0, out=bp[start : start + ell.size], casting="unsafe")
    bp.flags.writeable = False
    return bp


class BreakpointPolicy:
    """Deterministic rule on ``table.dist``: with l periods to go, rank j is
    selected iff the budget has reached ``table.breakpoints[l, j - 1]``.  dp's
    table comes from ``dp.solve``; br's covers every budget up to n (k = n)."""

    randomized = False

    def __init__(self, table: dp_mod.DPTable, name: str):
        self.dist = table.dist
        self.table = table
        self.name = name
        self._gain = partial_means(self.dist)

    def check(self, n, k):
        """Row l depends on l alone, row 0 is never read and budgets only fall
        from k, so a table for horizon >= n and budget >= k covers the cell."""
        if n > self.table.n:
            raise TableMismatch(f"table built for n={self.table.n} cannot decide n={n}")
        if k > self.table.k:
            raise TableMismatch(f"table built for k={self.table.k} cannot decide at budget {k}")

    def decide_batch(self, left, budgets, abilities, u):
        """Select iff the budget has reached the observed rank's breakpoint;
        breakpoints are >= 1, so a zero budget selects nothing."""
        return budgets >= self.table.breakpoints[left].take(abilities - 1)

    def rates(self, left, budgets):
        """Each row's breakpoints, placed in the budget range, split it into
        m + 1 runs; the budgets of run j reach exactly j breakpoints, so they
        select ranks 1..j.  Expanding the runs costs O(rows * (budgets + m))."""
        rows = self.table.breakpoints[left]
        edges = np.zeros((rows.shape[0], rows.shape[1] + 2), dtype=np.intp)
        edges[:, 1:-1] = budgets.searchsorted(rows)
        edges[:, -1] = budgets.size
        runs = np.diff(edges).ravel()
        shape = (left.size, budgets.size)
        sel = np.repeat(np.tile(self.dist.survival_values, left.size), runs)
        gain = np.repeat(np.tile(self._gain, left.size), runs)
        return sel.reshape(shape), gain.reshape(shape)


class AdaptiveIndexPolicy:
    """Re-solves the deterministic relaxation each period; randomized."""

    name = "ai"
    randomized = True

    def __init__(self, d: AbilityDistribution):
        self.dist = d
        self._gain = partial_means(d)

    def check(self, n, k):
        """The rule needs no table, so it plays every (n, k)."""

    def decide_batch(self, left, budgets, abilities, u):
        """With r = budget / left, take an ability-j arrival with probability
        clamp((r - F̄(a_j)) / f_j, 0, 1); once r >= 1 take everything.  As
        u lies in [0, 1), u < clamp(p, 0, 1) iff u < p, so p is not clamped."""
        d = self.dist
        rank = abilities - 1
        ratio = budgets / left
        p = ratio - d.survival_values[rank]
        p /= d.pmf[rank]
        take = u < p
        take |= ratio >= 1.0
        take &= budgets > 0
        return take

    def rates(self, left, budgets):
        ratio = budgets / left[:, None]
        sel = np.minimum(ratio, 1.0)
        gain = np.interp(ratio, self.dist.survival_values, self._gain)
        return sel, gain


class NonAdaptivePolicy:
    """Fixed probability matrix applied until the budget runs out: ability j
    at time t is selected with probability ``p[j-1, t-1]``, so with l periods
    left the rule reads column ``n - l``.  A matrix derived from the budget
    (index's) records that ``k``; ``None`` means the matrix serves every k."""

    randomized = True

    def __init__(self, d: AbilityDistribution, p, name: str, k: int | None = None):
        p = np.array(p, dtype=float)  # a copy: the caller's array stays writeable
        if p.ndim != 2:
            raise DimensionMismatch("probability matrix must be 2-D (abilities x periods)")
        if p.shape[1] == 0:
            raise DimensionMismatch("probability matrix has no periods")
        if p.shape[0] != d.m:
            raise DimensionMismatch(f"matrix has {p.shape[0]} ability rows, distribution has {d.m}")
        if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
            raise ModelError("matrix entries must be probabilities in [0, 1]")
        p.flags.writeable = False
        self.dist = d
        self.p = p
        self.name = name
        self.k = k
        # a take-everything column sums the pmf to 1 + ulp; a selection rate
        # above 1 would push the forward pass's budget cell below zero
        self._sel_by_t = sel = np.minimum(d.pmf @ p, 1.0)
        self._gain_by_t = gain = (d.pmf * d.support) @ p
        same = sel.min() == sel.max() and gain.min() == gain.max()
        self.constant_rates = (float(sel[0]), float(gain[0])) if same else None

    def check(self, n, k):
        if n != self.p.shape[1]:
            raise DimensionMismatch(f"matrix covers {self.p.shape[1]} periods, not n={n}")
        if self.k is not None and k != self.k:
            raise TableMismatch(f"{self.name} matrix built for k={self.k} cannot decide k={k}")

    def decide_batch(self, left, budgets, abilities, u):
        p = self.p[abilities - 1, self.p.shape[1] - left]
        return (budgets > 0) & (u < p)

    def rates(self, left, budgets):
        t = (self.p.shape[1] - left)[:, None]
        live = budgets > 0
        return np.where(live, self._sel_by_t[t], 0.0), np.where(live, self._gain_by_t[t], 0.0)


POLICY_NAMES = ("br", "dp", "ai", "index", "take-top")


def make_policy(name: str, d: AbilityDistribution, n: int, k: int):
    """Build a policy from its CLI/config name.

    Accepts ``br | dp | ai | index | take-top | matrix:<csv-file>`` where the
    matrix file holds m rows of n comma-separated probabilities.
    """
    if name == "br":
        check_pair(n, k)
        bp = _ratio_breakpoints(thresholds(d)[: d.m], n)
        return BreakpointPolicy(dp_mod.DPTable(d, n, n, math.nan, bp), "br")
    if name == "dp":
        return BreakpointPolicy(dp_mod.solve(d, n, k), "dp")
    if name == "ai":
        return AdaptiveIndexPolicy(d)
    if name == "index":
        return NonAdaptivePolicy(d, index_matrix(d, n, k), "index", k)
    if name == "take-top":
        return NonAdaptivePolicy(d, take_top_matrix(d, n), "take-top")
    if name.startswith("matrix:"):
        path = name.split(":", 1)[1]
        if not path:
            raise ModelError("the matrix: policy names no file; give matrix:<csv-file>")
        try:
            p = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ModelError(f"matrix file {path!r} is not a numeric CSV: {exc}") from None
        if p.shape != (d.m, n):
            raise DimensionMismatch(
                f"matrix file is {p.shape[0]}x{p.shape[1]}, need {d.m}x{n}"
            )
        return NonAdaptivePolicy(d, p, "matrix")
    raise ModelError(f"unknown policy {name!r}")

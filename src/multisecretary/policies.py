"""Selection policies as state-Markov rules on (time, residual budget, rank).

Every policy is a pure function of its static precomputation and the state;
randomization enters only through one uniform draw per decision.  Each
policy exposes ``check(n, k)``, which every engine entry calls once per cell
before any work, and two vectorized hooks that only index: ``rates`` for the
exact evaluator and ``decide_batch`` for the sample-path engine, so common
random numbers and closed-form u-integration need no per-policy casework.

The deterministic rules br (budget ratio) and dp (optimal) are both a
:class:`BreakpointPolicy` on a per-period budget-breakpoint table built for
one (n, k); its ``check`` raises ``TableMismatch`` at any other n or larger k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dp as dp_mod
from .distribution import RATIO_TIE_TOL, AbilityDistribution, partial_means, thresholds
from .errors import DimensionMismatch, InfeasiblePair, ModelError, TableMismatch, check_pair


@dataclass(frozen=True, eq=False)
class NonAdaptiveMatrix:
    """Selection probabilities p[j-1, t-1] for ability j at time t."""

    p: np.ndarray

    @classmethod
    def of(cls, p) -> "NonAdaptiveMatrix":
        arr = np.asarray(p, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch("probability matrix must be 2-D (abilities x periods)")
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            raise ModelError("matrix entries must be probabilities in [0, 1]")
        arr.flags.writeable = False
        return cls(p=arr)


def index_matrix(d: AbilityDistribution, n: int, k: int) -> NonAdaptiveMatrix:
    """Time-constant matrix from the deterministic relaxation at ratio k/n.

    Ranks above the pivot are always taken, the pivot rank with the
    fractional probability (k/n - F̄)/f, lower ranks never.  Fractions within
    the ratio tie tolerance of 0 or 1 snap to the exact endpoint.
    """
    check_pair(n, k, min_n=1)
    ratio = k / n
    sv = d.survival_values
    pivot = int(np.searchsorted(sv[: d.m], ratio + RATIO_TIE_TOL, side="right"))
    frac = (ratio - sv[pivot - 1]) / d.pmf[pivot - 1]
    frac = min(max(frac, 0.0), 1.0)
    if frac < RATIO_TIE_TOL:
        frac = 0.0
    elif 1.0 - frac < RATIO_TIE_TOL:
        frac = 1.0
    col = np.zeros(d.m)
    col[: pivot - 1] = 1.0
    col[pivot - 1] = frac
    return NonAdaptiveMatrix.of(np.tile(col[:, None], (1, n)))


def take_top_matrix(d: AbilityDistribution, n: int) -> NonAdaptiveMatrix:
    """Take every top-ability arrival, nothing else."""
    if n < 1:
        raise InfeasiblePair(f"horizon must be >= 1, got {n}")
    p = np.zeros((d.m, n))
    p[0, :] = 1.0
    return NonAdaptiveMatrix.of(p)


def _ratio_breakpoints(values: np.ndarray, n: int) -> np.ndarray:
    """br's table for thresholds ``values`` = T_1..T_m: entry [l, j - 1] is the
    smallest kappa >= 1 with kappa/l + ``RATIO_TIE_TOL`` >= T_j in floats (row 0
    is n + 1).  ceil((T_j - tol) l) is off by a cell where the float test
    rounds across it, so one step up or down re-evaluates the test itself.
    """
    ell = np.arange(1, n + 1, dtype=float)[:, None]
    cut = np.ceil((values - RATIO_TIE_TOL) * ell)
    cut += cut / ell + RATIO_TIE_TOL < values
    cut -= (cut - 1.0) / ell + RATIO_TIE_TOL >= values
    bp = np.empty((n + 1, values.size), dtype=np.int64)
    bp[0] = n + 1
    np.maximum(cut, 1.0, out=bp[1:], casting="unsafe")
    bp.flags.writeable = False
    return bp


class BreakpointPolicy:
    """Deterministic rule: with l periods to go, rank j is selected iff the
    budget has reached ``table.breakpoints[l, j - 1]``.  dp's table comes
    from ``dp.solve``; br's covers every budget up to n (k = n)."""

    def __init__(self, d: AbilityDistribution, table: dp_mod.DPTable, name: str):
        if table.dist_hash != d.content_hash():
            raise TableMismatch("table was solved for a different distribution")
        self.dist = d
        self.table = table
        self.name = name
        self._gain = partial_means(d)

    def check(self, n, k):
        """Budgets only fall from k, so a table for horizon n and budget >= k covers the cell."""
        if n != self.table.n:
            raise TableMismatch(f"table built for n={self.table.n}, episode has n={n}")
        if k > self.table.k:
            raise TableMismatch(f"table built for k={self.table.k} cannot decide at budget {k}")

    def decide_batch(self, t_next, n, budgets, abilities, u):
        """Select iff the budget has reached the observed rank's breakpoint;
        breakpoints are >= 1, so a zero budget selects nothing."""
        return budgets >= self.table.breakpoints[n - t_next + 1][abilities - 1]

    def rates(self, t_next, n, budgets):
        cut = self.table.breakpoints[n - t_next + 1].searchsorted(budgets, side="right")
        return self.dist.survival_values[cut], self._gain[cut]


class AdaptiveIndexPolicy:
    """Re-solves the deterministic relaxation each period; randomized."""

    name = "ai"

    def __init__(self, d: AbilityDistribution):
        self.dist = d
        self._gain = partial_means(d)

    def check(self, n, k):
        """The rule needs no table, so it plays every (n, k)."""

    def decide_batch(self, t_next, n, budgets, abilities, u):
        """With r = K/(n-t), take an ability-j arrival with probability
        clamp((r - F̄(a_j)) / f_j, 0, 1); once r >= 1 take everything."""
        d = self.dist
        ratio = budgets / (n - t_next + 1)
        p = (ratio - d.survival_values[abilities - 1]) / d.pmf[abilities - 1]
        np.clip(p, 0.0, 1.0, out=p)
        p[ratio >= 1.0] = 1.0
        return (budgets > 0) & (u < p)

    def rates(self, t_next, n, budgets):
        ratio = budgets / (n - t_next + 1)
        sel = np.minimum(ratio, 1.0)
        gain = np.interp(ratio, self.dist.survival_values, self._gain)
        return sel, gain


class NonAdaptivePolicy:
    """Fixed probability matrix applied until the budget runs out."""

    def __init__(self, d: AbilityDistribution, matrix: NonAdaptiveMatrix, name: str):
        if matrix.p.shape[0] != d.m:
            raise DimensionMismatch(
                f"matrix has {matrix.p.shape[0]} ability rows, distribution has {d.m}"
            )
        self.dist = d
        self.matrix = matrix
        self.name = name
        # a take-everything column sums the pmf to 1 + ulp; a selection rate
        # above 1 would push the forward pass's budget cell below zero
        self._sel_by_t = np.minimum(d.pmf @ matrix.p, 1.0)
        self._gain_by_t = (d.pmf * d.support) @ matrix.p

    def check(self, n, k):
        if n != self.matrix.p.shape[1]:
            raise DimensionMismatch(f"matrix covers {self.matrix.p.shape[1]} periods, not n={n}")

    def decide_batch(self, t_next, n, budgets, abilities, u):
        p = self.matrix.p[abilities - 1, t_next - 1]
        return (budgets > 0) & (u < p)

    def rates(self, t_next, n, budgets):
        live = budgets > 0
        sel = np.where(live, self._sel_by_t[t_next - 1], 0.0)
        gain = np.where(live, self._gain_by_t[t_next - 1], 0.0)
        return sel, gain


POLICY_NAMES = ("br", "dp", "ai", "index", "take-top")


def make_policy(name: str, d: AbilityDistribution, n: int, k: int):
    """Build a policy from its CLI/config name.

    Accepts ``br | dp | ai | index | take-top | matrix:<csv-file>`` where the
    matrix file holds m rows of n comma-separated probabilities.
    """
    if name == "br":
        check_pair(n, k)
        bp = _ratio_breakpoints(thresholds(d)[: d.m], n)
        return BreakpointPolicy(d, dp_mod.DPTable(d.content_hash(), n, n, math.nan, bp), "br")
    if name == "dp":
        return BreakpointPolicy(d, dp_mod.solve(d, n, k), "dp")
    if name == "ai":
        return AdaptiveIndexPolicy(d)
    if name == "index":
        return NonAdaptivePolicy(d, index_matrix(d, n, k), "index")
    if name == "take-top":
        return NonAdaptivePolicy(d, take_top_matrix(d, n), "take-top")
    if name.startswith("matrix:"):
        path = name.split(":", 1)[1]
        try:
            p = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ModelError(f"matrix file {path!r} is not a numeric CSV: {exc}") from None
        if p.shape != (d.m, n):
            raise DimensionMismatch(
                f"matrix file is {p.shape[0]}x{p.shape[1]}, need {d.m}x{n}"
            )
        return NonAdaptivePolicy(d, NonAdaptiveMatrix.of(p), "matrix")
    raise ModelError(f"unknown policy {name!r}")

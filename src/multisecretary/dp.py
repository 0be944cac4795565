"""Optimal online value and policy via backward induction on the budget state.

The value function depends on the accrued ability only additively, so the
recursion runs over (periods-to-go, residual budget) alone:

    g_l(kappa) = sum_j f_j * max(a_j + g_{l-1}(kappa - 1), g_{l-1}(kappa)),

with g_0 = 0 and g_l(0) = 0.  The optimal rule selects ability a_j exactly
when a_j >= h_l(kappa) = g_{l-1}(kappa) - g_{l-1}(kappa - 1).  With
phi(x) = E[max(A, x)] = x P(A <= x) + sum_{a_j > x} f_j a_j, the marginal
value obeys a recursion of its own,

    h_{l+1}(kappa) = h_l(kappa - 1) + phi(h_l(kappa)) - phi(h_l(kappa - 1)),
    h_{l+1}(1) = phi(h_l(1)),    h_1 = 0,

which is what ``solve`` runs: every h lies in [0, a_1] whatever n is, so its
float error stays at the scale of a_1 rather than of g_n(k), and the value is
g_n(k) = sum_{kappa <= k} h_{n+1}(kappa).  g is concave in kappa, so h_l is
non-increasing in kappa (and 0 for kappa >= l): the rule at l periods to go is
m budget breakpoints, a_j being selected iff kappa >= bp[l, j].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import AbilityDistribution, partial_means
from .errors import check_pair

# Ties a_j == h_l(kappa) select; the relative slack absorbs float noise in h.
TIE_TOL_SCALE = 1e-12


@dataclass(frozen=True, eq=False)
class DPTable:
    """Backward-induction output for one (``dist``, n, k) instance.

    ``value`` is g_n(k), the sum of h_{n+1}(kappa) over kappa <= k, from the
    h recursion in the module docstring; NaN for tables not produced by
    ``solve``.  ``breakpoints[l, j - 1]`` is the smallest budget kappa >= 1
    at which a_j >= h_l(kappa) - tie_tol, i.e. from which the optimal rule
    with l periods to go selects ability j; k + 1 means never within the
    table.  Each row is non-decreasing in j, and row 0 (no period left) is
    k + 1 throughout.  The budget-ratio rule's table has the same form.
    """

    dist: AbilityDistribution
    n: int
    k: int
    value: float
    breakpoints: np.ndarray


def solve(d: AbilityDistribution, n: int, k: int) -> DPTable:
    """Run the h recursion for l = 1..n in O(k) working memory, keeping
    only the (n+1, m) breakpoints."""
    check_pair(n, k)

    m = d.m
    a = d.support
    tie_tol = TIE_TOL_SCALE * float(a[0])
    # The row is held negated, u = -h, so that it ascends for searchsorted.
    # Where exactly a_1..a_s exceed h, phi(h) = h (1 - S_s) + G_s with the
    # partial sums S_s = f_1 + .. + f_s and G_s = f_1 a_1 + .. + f_s a_s, so
    # -phi(-u) = u (1 - S_s) - G_s on that segment.
    slope = (1.0 - np.concatenate(([0.0], np.cumsum(d.pmf)))).tolist()
    offset = partial_means(d).tolist()
    # First m keys: where each a_j starts to be selected; last m: phi's kinks.
    keys = np.concatenate((-a - tie_tol, -a))

    breakpoints = np.empty((n + 1, m), dtype=np.int64)
    breakpoints[0] = k
    u, u_next, phi = np.zeros(k), np.zeros(k), np.empty(k)
    for ell in range(1, n + 1):
        # h_ell(kappa) = 0 for kappa >= ell: cells past `width` stay zero.
        width = min(ell, k)
        row = u[:width]
        at = row.searchsorted(keys)
        breakpoints[ell] = at[:m]
        lo = 0
        for s, hi in enumerate(at[m:].tolist() + [width]):
            if hi > lo:
                np.multiply(row[lo:hi], slope[s], out=phi[lo:hi])
                phi[lo:hi] -= offset[s]
            lo = hi
        if width:
            u_next[0] = phi[0]
            np.subtract(phi[1:width], phi[: width - 1], out=u_next[1:width])
            u_next[1:width] += row[: width - 1]
        u, u_next = u_next, u
    breakpoints += 1  # cell index -> budget
    breakpoints.flags.writeable = False
    return DPTable(dist=d, n=n, k=k, value=float(np.sum(-u)), breakpoints=breakpoints)

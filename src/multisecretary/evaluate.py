"""Exact and Monte Carlo evaluation of policies against the offline benchmark.

Every entry that takes a policy reads the distribution it plays on from
``policy.dist``; only ``sweep`` takes one, to build its policies from.

The exact route propagates the budget distribution forward in time
(Chapman-Kolmogorov over the (t, budget) chain induced by any state-Markov
policy), integrating the policy's randomization in closed form through its
``rates`` hook, which it asks once per block of ``BLOCK`` periods for every
budget the window can reach in the block; edge budget cells below a fixed
share of ``TAIL_TOL`` are trimmed, and what they could still earn, plus the
offline value's bound on the binomial mass it omits, is the record's
``error_bound``.  A rule that states ``constant_rates`` = (s, g), one rate
and gain for every period (index, take-top), skips the pass: it selects
i.i.d. Bernoulli(s) while budget lasts, so its value is (g / s)
E[min(Binomial(n, s), k)] from the offline module's ``capped_mean``, and its
``error_bound`` is the offline bound plus g / s times that mean's bound.
``ratio_mean_curve`` runs the pass for every rule and reads E[K_t] off its
window.  Every entry takes cells with n >= 1 and 0 <= k <= n.

Both sweep modes run their cells through one driver, ``_run_cells``: it
visits each name's cells in descending (n, k) and runs each on the held
policy, whose cell check runs once per cell; only a cell whose check fails
builds a policy of its own, so br and dp build one table per sweep.  An
exact cell's run is ``exact_regret``, which checks the cell before its
forward pass, so a failed check costs no pass.  A Monte Carlo cell's run is
``check_cell``, and the route then pairs each sampled path's policy payoff
with the posterior sort on the same realization; a sweep's Monte Carlo
cells at one n share every block of draws, and the cells of one policy step
through it as one ``(policy, ks)`` stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distribution import AbilityDistribution
from .errors import (DimensionMismatch, InfeasiblePair, ModelError, NonMarkovPolicy,
                     ProbabilityDrift, TableMismatch)
from .offline import capped_mean, offline_expectation, offline_sort_batch
from .policies import make_policy
from .simulate import _blocks, check_cell

DRIFT_LIMIT = 1e-9
TAIL_TOL = 1e-12  # the forward window's total trimmed-mass budget
BLOCK = 16  # periods per ``rates`` call of the forward pass
# what only the cell check raises: a held policy that meets one is rebuilt for the cell
_CELL_CHECK = (InfeasiblePair, TableMismatch, DimensionMismatch)

CSV_HEADER = "policy,n,k,method,v_on,v_off,regret,ci_halfwidth,error_bound"


def clear_caches() -> None:
    """Does nothing: the package keeps no cache.  Kept for callers that reset
    state between repetitions."""


@dataclass(frozen=True)
class RegretRecord:
    """One evaluated cell: policy value, offline benchmark, and their gap.

    For exact cells ``error_bound`` is the offline value's omitted-mass bound
    plus the policy value's: the forward pass's window-truncation bound, or
    for a time-constant rule its capped mean's bound; for Monte Carlo cells it
    is 0 and ``ci_halfwidth`` carries the sampling error.  A value that
    overflowed to inf or nan raises :class:`ModelError`, so the cell fails.
    """

    policy: str
    n: int
    k: int
    method: str            # "exact" or "mc"
    v_on: float
    v_off: float
    regret: float
    ci_halfwidth: float = 0.0
    error_bound: float = 0.0

    def __post_init__(self):
        bad = [name for name, x in vars(self).items() if isinstance(x, float) and not math.isfinite(x)]
        if bad:
            raise ModelError(f"cell values are not finite: {', '.join(bad)}")


def _forward_value(policy, n: int, k: int) -> tuple[float, float, float]:
    """Expected payoff of a state-Markov policy on ``policy.dist``, the worst
    probability drift observed while propagating, and a bound on the payoff of
    omitted mass, for a policy already checked at (n, k) by ``_check_forward``.

    A policy whose ``constant_rates`` attribute is a pair (s, g) selects
    i.i.d. Bernoulli(s) while budget lasts, each selection standing for
    g / s of payoff: its value is (g / s) E[min(Binomial(n, s), k)] from
    ``capped_mean``, its drift 0 and its bound g / s times that mean's
    omitted-mass bound.  At s = 0 all three are 0.0.  A policy that states
    no such pair takes the windowed forward pass, ``_window_pass``.

    Raises:
        ProbabilityDrift: see ``_window_pass``.
    """
    rate = getattr(policy, "constant_rates", None)
    if rate is None:
        return _window_pass(policy, n, k)
    sel, gain = rate
    if sel == 0.0:
        return 0.0, 0.0, 0.0
    mean, omitted = capped_mean(n, sel, k)
    per_pick = gain / sel
    return per_pick * mean, 0.0, per_pick * omitted


def ratio_mean_curve(policy, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """E[K_t / (n - t)] and E[K_t], t < n, on ``policy.dist``, read off ``_window_pass``'s
    exact law of K_t after ``_check_forward``.  The pass never renormalises and trims
    under ``TAIL_TOL`` of mass, at budgets <= k, so each value is low by at most k * ``TAIL_TOL``
    plus rounding."""
    _check_forward(policy, n, k)
    mean_budget = np.empty(n)
    _window_pass(policy, n, k, mean_budget)
    return mean_budget / (n - np.arange(n)), mean_budget


def _check_forward(policy, n: int, k: int) -> None:
    """Require a ``rates`` hook, then the cell rule ``check_cell(policy, n, k, 1)``."""
    if not hasattr(policy, "rates"):
        name = getattr(policy, "name", policy)
        raise NonMarkovPolicy(f"policy {name!r} exposes no selection-rate hook")
    check_cell(policy, n, k, 1)


def _window_pass(policy, n: int, k: int,
                 mean_budget: np.ndarray | None = None) -> tuple[float, float, float]:
    """``_forward_value`` by propagating the budget distribution forward, for
    a policy already checked at (n, k); given an (n,) ``mean_budget``, it
    also writes the window's E[K_t] there for each t < n.

    Only the budget window ``[lo, hi]`` that carries mass is propagated.
    Selection moves mass down one cell per step, so ``lo`` widens by one;
    edge cells holding less than ``TAIL_TOL / (n (k + 1))`` are then dropped,
    each adding ``a_1 * mass * min(budget, periods left)``, the most that
    mass could still earn at the top value a_1 of ``policy.dist``, to the
    truncation bound.  The returned value underestimates the untruncated one
    by at most that bound.  The window never grows up and falls by at most
    one cell a period, so one ``rates`` call over budgets
    ``[max(lo - BLOCK, 0), hi]`` serves ``BLOCK`` periods t, asked as their
    ``n - t + 1`` periods left, each reading its own row.

    Raises:
        ProbabilityDrift: at a check (every 512 steps and the last), the
            window holds a negative or non-finite cell, or its mass plus the
            dropped mass differs from 1 by more than ``DRIFT_LIMIT``.
    """
    budgets = np.arange(k + 1)
    prob = np.zeros(k + 1)
    prob[k] = 1.0
    lo = hi = k
    trim_below = TAIL_TOL / (n * (k + 1))
    top = float(policy.dist.support[0])
    dropped = 0.0  # probability mass trimmed off the window
    truncation = 0.0
    value = 0.0
    comp = 0.0  # Kahan compensation for the payoff accumulator
    max_drift = 0.0
    for t_next in range(1, n + 1):
        row = (t_next - 1) % BLOCK
        if row == 0:
            base = max(lo - BLOCK, 0)
            block_sel, block_gain = policy.rates(
                n + 1 - np.arange(t_next, min(t_next + BLOCK, n + 1)), budgets[base : hi + 1]
            )
        sel = block_sel[row, lo - base : hi - base + 1]
        gain = block_gain[row, lo - base : hi - base + 1]
        if lo == 0 and sel[0] != 0.0:
            raise NonMarkovPolicy(f"policy {policy.name!r} selects with zero budget")
        window = prob[lo : hi + 1]
        if mean_budget is not None:
            mean_budget[t_next - 1] = window @ budgets[lo : hi + 1]
        term = float(window @ gain) - comp
        total = value + term
        comp = (total - value) - term
        value = total
        move = window * sel
        window -= move
        lo = max(lo - 1, 0)  # at budget 0 the move is 0: sel[0] was checked above
        prob[lo:hi] += move[move.size - (hi - lo):]
        left = n - t_next
        while hi > lo and 0.0 <= prob[hi] < trim_below:
            mass = float(prob[hi])
            dropped += mass
            truncation += top * mass * min(hi, left)
            prob[hi] = 0.0
            hi -= 1
        while lo < hi and 0.0 <= prob[lo] < trim_below:
            mass = float(prob[lo])
            dropped += mass
            truncation += top * mass * min(lo, left)
            prob[lo] = 0.0
            lo += 1
        if t_next % 512 == 0 or t_next == n:
            window = prob[lo : hi + 1]
            drift = abs(float(window.sum()) + dropped - 1.0)
            if not drift <= DRIFT_LIMIT:
                raise ProbabilityDrift(
                    f"policy {policy.name!r} drifted {drift!r} from unit mass at t={t_next}"
                )
            if not np.all(np.isfinite(window)) or float(window.min()) < 0.0:
                raise ProbabilityDrift(
                    f"policy {policy.name!r} produced a negative or non-finite "
                    f"probability at t={t_next}"
                )
            max_drift = max(max_drift, drift)
    return value, max_drift, truncation


def exact_regret(policy, n: int, k: int) -> RegretRecord:
    """``policy``'s exact value at (n, k) against the offline value on the
    distribution it plays on, ``policy.dist``, after ``_check_forward``, so a
    cell that fails its check runs no forward pass."""
    _check_forward(policy, n, k)
    v_on, _, truncation = _forward_value(policy, n, k)
    off = offline_expectation(policy.dist, n, k)
    return RegretRecord(
        policy=policy.name,
        n=n,
        k=k,
        method="exact",
        v_on=v_on,
        v_off=off.value,
        regret=off.value - v_on,
        ci_halfwidth=0.0,
        error_bound=off.error_bound + truncation,
    )


def _mc_record(name: str, n: int, k: int, online: np.ndarray, offline: np.ndarray) -> RegretRecord:
    reps = online.size
    diff = offline - online
    sd = float(np.std(diff, ddof=1)) if reps > 1 else 0.0
    return RegretRecord(
        policy=name,
        n=n,
        k=k,
        method="mc",
        v_on=float(np.mean(online)),
        v_off=float(np.mean(offline)),
        regret=float(np.mean(diff)),
        ci_halfwidth=1.96 * sd / math.sqrt(reps),
        error_bound=0.0,
    )


def _run_cells(d: AbilityDistribution, cells, run) -> dict:
    """Map each (policy, n, k) cell to ``run(policy, n, k)``, or to the
    exception that building its policy or the run raised.

    Names come one after another, each with its cells in descending (n, k),
    and only the current name's policy is held.  A cell first runs on it: a
    policy that passes ``policy.check(n, k)`` decides (n, k) as
    ``make_policy(name, d, n, k)`` would, so br and dp solve one table per
    sweep, at their largest (n, k).  Where the run raises one of the cell
    check's errors (``_CELL_CHECK``), the cell builds its own policy and
    runs on that, so it fails with the message it would meet alone.
    """
    out = {}
    held = policy = None  # the name whose policy is held
    for cell in sorted(cells, key=lambda c: (c[0], -c[1], -c[2])):
        name, n, k = cell
        try:
            if name == held and policy is not None:
                try:
                    out[cell] = run(policy, n, k)
                    continue
                except _CELL_CHECK:
                    pass
            held, policy = name, None  # a failed build leaves nothing to reuse
            policy = make_policy(name, d, n, k)
            out[cell] = run(policy, n, k)
        except Exception as exc:
            out[cell] = exc
    return out


def _mc_cells(d: AbilityDistribution, cells, reps: int, seed: int) -> dict:
    """Monte Carlo records of the (policy, n, k) cells; maps each cell to its
    record or exception.  ``_run_cells`` gives every cell its policy and runs
    ``check_cell`` on it once, before the first pass, and a failure there is
    reported alone.

    Each n then runs one payoff pass of ``_blocks``, whose blocks every
    cell of that n shares: the cells built on one policy object step as one
    ``(policy, ks)`` stack, one budget row per k, each block's payoffs are
    copied into that stack's (len(ks), reps) matrix, and the posterior sort
    runs once per distinct k on each block's rank counts.  An exception
    inside a pass fails every cell it ran; a record whose mean is not finite
    fails alone.
    """
    out, passes = {}, {}  # n -> {id(policy): (policy, the cells of its rows)}
    checked = _run_cells(d, cells, lambda p, n, k: check_cell(p, n, k, reps) or p)
    for cell, policy in checked.items():
        if isinstance(policy, Exception):
            out[cell] = policy
            continue
        _, built = passes.setdefault(cell[1], {}).setdefault(id(policy), (policy, []))
        built.append(cell)
    for n, by_policy in passes.items():
        stacks = [(policy, [cell[2] for cell in built]) for policy, built in by_policy.values()]
        try:
            online = [np.empty((len(ks), reps)) for _, ks in stacks]
            offline = {k: np.empty(reps) for _, ks in stacks for k in ks}
            for rows, counts, payoffs in _blocks(n, stacks, range(reps), seed):
                for k, sort in offline.items():
                    sort[rows] = offline_sort_batch(d, counts, k)
                for dest, payoff in zip(online, payoffs):
                    dest[:, rows] = payoff
        except Exception as exc:  # the pass itself failed: every cell it ran fails
            out.update((cell, exc) for _, built in by_policy.values() for cell in built)
            continue
        for (policy, built), payoff in zip(by_policy.values(), online):
            for cell, row in zip(built, payoff):
                try:
                    out[cell] = _mc_record(policy.name, n, cell[2], row, offline[cell[2]])
                except ModelError as exc:  # a non-finite mean fails its own cell
                    out[cell] = exc
    return out


def sweep(
    d: AbilityDistribution,
    policy_names: Sequence[str],
    grid: Iterable[tuple[int, int]],
    mode: str = "exact",
    reps: int = 10_000,
    seed: int = 0,
) -> tuple[list[RegretRecord], list]:
    """Evaluate every distinct (policy, n, k) cell once; records and failures
    come in (policy, n, k) order.

    A cell that raises is skipped and the sweep goes on; returns the records
    and the failures as ``((policy, n, k), exception)`` pairs.  Both modes
    run their cells through ``_run_cells``: a name's cells run in descending
    (n, k) on the policy built for the largest cell it decides, so dp solves
    one table per sweep, and each cell's check runs once.  Exact cells run
    ``exact_regret`` one at a time.  Monte Carlo cells (``_mc_cells``) are
    each checked once, all before the first draw, then run one pass per n on
    ``d``: at each n every policy steps over each block of draws, every k of
    one policy as one stack, and each distinct k's posterior sort runs once
    per block; an exception inside a pass fails every cell of that n.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    cells = sorted({(name, n, k) for name in policy_names for (n, k) in grid})
    if mode == "mc":
        results = _mc_cells(d, cells, reps, seed)
    else:
        results = _run_cells(d, cells, exact_regret)
    records = [results[c] for c in cells if not isinstance(results[c], Exception)]
    failures = [(c, results[c]) for c in cells if isinstance(results[c], Exception)]
    return records, failures


def format_record(rec: RegretRecord) -> str:
    floats = (rec.v_on, rec.v_off, rec.regret, rec.ci_halfwidth, rec.error_bound)
    return ",".join(
        [rec.policy, str(rec.n), str(rec.k), rec.method] + [f"{x:.12g}" for x in floats]
    )


def write_csv(path, header: str, rows: Iterable[str]) -> None:
    """Write ``header`` and then each of ``rows`` as one UTF-8 line ending in
    a bare line feed: every CSV the package writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row + "\n" for row in rows)


def write_records(records: Sequence[RegretRecord], path) -> None:
    write_csv(path, CSV_HEADER, map(format_record, records))

"""Sample-path engine with common random numbers and orbit diagnostics.

Every episode consumes exactly two uniforms per period (ability draw, then
decision draw) from a counter-based Philox substream keyed by (seed, rep),
so ability sequences are identical across policies and replication results
do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import AbilityDistribution, ThresholdSet, half_min_mass
from .errors import BadDelta, InfeasiblePair, check_pair
from .offline import offline_sort_batch

RNG_FAMILY = "philox"  # pinned; recorded in run manifests

DEFAULT_CHUNK = 1024


def episode_stream(seed: int, rep: int = 0) -> np.random.Generator:
    """Independent substream for one replication, reproducible by (seed, rep)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))


@dataclass(frozen=True, eq=False)
class EpisodeRecord:
    """One full trajectory: draws, decisions, budget and ratio paths."""

    policy: str
    n: int
    k: int
    seed_ref: tuple[int, int] | None
    abilities: np.ndarray   # 1-based ranks, length n
    decisions: np.ndarray   # bool, length n
    payoff: float
    budget_path: np.ndarray  # K_0..K_n
    ratio_path: np.ndarray   # K_t / (n - t) for t = 0..n-1


@dataclass(frozen=True, eq=False)
class OrbitDiagnostics:
    """Threshold-orbit entry/exit data for one trajectory."""

    delta: float
    tau0: int
    j_tau0: int          # m+1 when the horizon cutoff fired first
    tau: int
    y_path: np.ndarray   # deviation K - T*(time left) from tau0 on; empty on the cutoff branch


@dataclass(frozen=True, eq=False)
class OrbitSample:
    """Batch of orbit statistics, one entry per replication."""

    delta: float
    tau0: np.ndarray
    j_tau0: np.ndarray
    tau: np.ndarray


def run_episode(
    d: AbilityDistribution,
    policy,
    n: int,
    k: int,
    stream: np.random.Generator,
    seed_ref: tuple[int, int] | None = None,
) -> EpisodeRecord:
    """Play one episode, consuming 2n uniforms from ``stream``."""
    check_pair(n, k, min_n=1)
    u = stream.random(2 * n)
    payoff, _, paths = _simulate_chunk(d, policy, n, k, u[None, :], want_paths=True)
    budget_path = paths[0].astype(np.int64)
    ratio_path = budget_path[:n] / (n - np.arange(n))
    return EpisodeRecord(
        policy=policy.name,
        n=n,
        k=k,
        seed_ref=seed_ref,
        abilities=d.sample_many(u[0::2]),
        decisions=budget_path[1:] < budget_path[:-1],
        payoff=float(payoff[0]),
        budget_path=budget_path,
        ratio_path=ratio_path,
    )


def _uniform_block(seed: int, reps: range, n: int) -> np.ndarray:
    out = np.empty((len(reps), 2 * n))
    for i, rep in enumerate(reps):
        out[i] = episode_stream(seed, rep).random(2 * n)
    return out


def _simulate_chunk(d, policy, n, k, u, want_paths=False):
    """Vectorized episodes for one block of pre-drawn uniforms.

    Returns (payoffs, counts, budget paths or None).
    """
    reps = u.shape[0]
    abilities = d.sample_many(u[:, 0::2])
    decision_u = u[:, 1::2]
    budgets = np.full(reps, k, dtype=np.int64)
    payoff = np.zeros(reps)
    paths = None
    if want_paths:
        paths = np.empty((reps, n + 1), dtype=np.int32)
        paths[:, 0] = k
    for t_next in range(1, n + 1):
        j = abilities[:, t_next - 1]
        sel = policy.decide_batch(t_next, n, budgets, j, decision_u[:, t_next - 1])
        payoff += d.support[j - 1] * sel
        budgets -= sel
        if want_paths:
            paths[:, t_next] = budgets
    counts = np.empty((reps, d.m), dtype=np.int64)
    for j in range(1, d.m + 1):
        counts[:, j - 1] = (abilities == j).sum(axis=1)
    return payoff, counts, paths


def _chunks(d, policy, n, k, reps, seed, chunk, want_paths=False):
    """Episodes 0..reps-1 in blocks of ``chunk``.

    Checks (n, k) by ``run_episode``'s rule and ``reps`` at once, then
    returns an iterator that runs one block per step and yields
    ``(rows, payoffs, counts, paths)``, ``rows`` being the block's slice of
    0..reps-1.
    """
    check_pair(n, k, min_n=1)
    if reps < 1:
        raise InfeasiblePair(f"reps must be >= 1, got {reps}")

    def blocks():
        for start in range(0, reps, chunk):
            rows = slice(start, min(start + chunk, reps))
            u = _uniform_block(seed, range(rows.start, rows.stop), n)
            yield (rows, *_simulate_chunk(d, policy, n, k, u, want_paths))

    return blocks()


def simulate_paths(
    d, policy, n: int, k: int, reps: int, seed: int, chunk: int = DEFAULT_CHUNK
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch episodes; returns (payoffs, per-ability counts, budget paths)."""
    blocks = _chunks(d, policy, n, k, reps, seed, chunk, want_paths=True)
    payoffs = np.empty(reps)
    counts = np.empty((reps, d.m), dtype=np.int64)
    paths = np.empty((reps, n + 1), dtype=np.int32)
    for rows, pay, cnt, pth in blocks:
        payoffs[rows], counts[rows], paths[rows] = pay, cnt, pth
    return payoffs, counts, paths


def paired_payoffs(
    d, policy, n: int, k: int, reps: int, seed: int, chunk: int = DEFAULT_CHUNK
) -> tuple[np.ndarray, np.ndarray]:
    """Per-episode online payoff and posterior-sort payoff on the same draws."""
    blocks = _chunks(d, policy, n, k, reps, seed, chunk)
    online = np.empty(reps)
    offline = np.empty(reps)
    for rows, pay, counts, _ in blocks:
        online[rows] = pay
        offline[rows] = offline_sort_batch(d, counts, k)
    return online, offline


def ratio_mean_curve(
    d, policy, n: int, k: int, reps: int, seed: int, chunk: int = DEFAULT_CHUNK
) -> tuple[np.ndarray, np.ndarray]:
    """Per-t averages of the ratio R_t and the remaining budget K_t, t < n."""
    budget_sum = np.zeros(n)
    for _, _, _, paths in _chunks(d, policy, n, k, reps, seed, chunk, want_paths=True):
        budget_sum += paths[:, :n].sum(axis=0)
    mean_budget = budget_sum / reps
    mean_ratio = mean_budget / (n - np.arange(n))
    return mean_ratio, mean_budget


def cutoff_time(n: int, delta: float) -> int:
    """Horizon guard n - ceil(2/delta) - 1 (clamped at 0) past which orbit
    tracking stops; jumps of the ratio stay below delta/2 up to it."""
    return max(n - math.ceil(2.0 / delta) - 1, 0)


def _check_delta(delta: float, epsilon: float) -> None:
    if not 0.0 < delta < epsilon:
        raise BadDelta(f"delta must satisfy 0 < delta < {epsilon} (half the minimal mass), got {delta}")


def _orbit_scan(paths: np.ndarray, thr: ThresholdSet, delta: float, n: int):
    """Vectorized tau0/j/tau for a (reps, n+1) matrix of budget paths."""
    m = thr.m
    t_cut = min(cutoff_time(n, delta), n - 1)
    ratio = paths[:, :n] / (n - np.arange(n))
    best = np.full(ratio.shape, np.inf)
    best_j = np.zeros(ratio.shape, dtype=np.int16)
    for j in range(1, m + 1):
        dist = np.abs(ratio - thr.values[j - 1])
        closer = dist < best
        best[closer] = dist[closer]
        best_j[closer] = j
    hit = best <= delta / 2.0
    hit[:, t_cut:] = True
    tau0 = np.argmax(hit, axis=1)
    rows = np.arange(paths.shape[0])
    j_tau0 = np.where(tau0 == t_cut, m + 1, best_j[rows, tau0]).astype(np.int16)

    anchor = np.where(j_tau0 <= m, thr.values[np.minimum(j_tau0, m) - 1], np.inf)
    out = np.abs(ratio - anchor[:, None]) > delta
    cols = np.arange(n)
    out |= cols >= t_cut
    out &= cols > tau0[:, None]
    tau = np.argmax(out, axis=1)
    tau = np.where(j_tau0 == m + 1, tau0, tau)  # cutoff branch: tau = tau0
    return tau0, j_tau0, tau


def orbit_diagnostics(record: EpisodeRecord, thr: ThresholdSet, delta: float) -> OrbitDiagnostics:
    """Entry time tau0 into a threshold orbit, the matched threshold, the
    exit time tau, and the deviation path Y from tau0 onward.

    ``delta`` must be positive and below the smallest threshold gap so the
    matched threshold is unique; callers holding the distribution should
    additionally keep delta below half the minimal mass.
    """
    gaps = np.diff(thr.values[: thr.m])
    max_delta = float(gaps.min()) if gaps.size else 1.0
    if not 0.0 < delta < max_delta:
        raise BadDelta(f"delta must satisfy 0 < delta < {max_delta}, got {delta}")
    n = record.n
    tau0_a, j_a, tau_a = _orbit_scan(record.budget_path[None, :], thr, delta, n)
    tau0, j_tau0, tau = int(tau0_a[0]), int(j_a[0]), int(tau_a[0])
    if j_tau0 == thr.m + 1:
        y_path = np.empty(0)
    else:
        anchor = thr.values[j_tau0 - 1]
        left = n - tau0 - np.arange(n - tau0 + 1)
        y_path = record.budget_path[tau0:] - anchor * left
    return OrbitDiagnostics(delta=delta, tau0=tau0, j_tau0=j_tau0, tau=tau, y_path=y_path)


def orbit_stats(
    d, policy, thr: ThresholdSet, n: int, k: int, delta: float,
    reps: int, seed: int, chunk: int = DEFAULT_CHUNK,
) -> OrbitSample:
    """Orbit entry/exit statistics over many replications."""
    _check_delta(delta, half_min_mass(d))
    blocks = _chunks(d, policy, n, k, reps, seed, chunk, want_paths=True)
    tau0 = np.empty(reps, dtype=np.int64)
    j_tau0 = np.empty(reps, dtype=np.int16)
    tau = np.empty(reps, dtype=np.int64)
    for rows, _, _, paths in blocks:
        tau0[rows], j_tau0[rows], tau[rows] = _orbit_scan(paths, thr, delta, n)
    return OrbitSample(delta=delta, tau0=tau0, j_tau0=j_tau0, tau=tau)


def drift_at_state(
    d: AbilityDistribution, thr: ThresholdSet, n: int, t: int, budget: int, j_anchor: int
) -> float:
    """Analytic one-step mean increment of the deviation Y under the
    budget-ratio rule: T_anchor - F̄(a_{b+1}) with b the active bucket.

    Inside the anchor's orbit the difference telescopes, so those branches
    return exactly -f/2 (ratio at or above the anchor) or +f/2 (below);
    with no budget left nothing is selected and the drift is T_anchor.
    """
    if t >= n or budget < 0:
        raise InfeasiblePair(f"need t < n and budget >= 0, got t={t}, budget={budget}")
    if not 1 <= j_anchor <= thr.m + 1:
        raise InfeasiblePair(f"anchor index {j_anchor} outside [1, {thr.m + 1}]")
    if budget == 0:
        return thr.t(j_anchor)
    bucket = thr.bucket(budget / (n - t))
    if bucket == j_anchor:
        return -0.5 * float(d.pmf[j_anchor - 1])
    if bucket == j_anchor - 1:
        return 0.5 * float(d.pmf[j_anchor - 1])
    return thr.t(j_anchor) - d.survival(bucket + 1)

"""Sample-path engine with common random numbers and orbit diagnostics.

Every episode consumes exactly two uniforms per period (ability draw, then
decision draw) from a counter-based Philox substream keyed by (seed, rep),
so ability sequences are identical across policies and replication results
do not depend on execution order.

The engine runs block-outer.  Episodes 0..reps-1 go in blocks of ``CHUNK``.
The Philox keys of a block's replications are derived once, as arrays, and
one Philox restarts under each key in turn (``block_keys``).  Each block is
drawn once, a few dozen replications at a time through a rep-major scratch
buffer, and stored time-major: (n, reps) int16 ranks, (n, reps) float64
decision uniforms and, for the passes that read them, the per-rank counts
of each replication.  Every (policy, k) cell at that n then steps over the
same rows ``ranks[t-1]`` and ``u[t-1]``, period by period, and the posterior
sort runs once per k on the shared counts.  Budget paths are time-major too,
(n+1, reps) int32, one row written per period; ``simulate_paths`` returns
them rep-major.  Every entry point checks (n, k), reps and ``policy.check``
before it draws; an exception inside the pass stops every cell of it.  The
one-cell entry points (``simulate_paths``, ``ratio_mean_curve``,
``orbit_stats``) are this same pass, and ``run_episode`` draws and steps its
one replication with the same ``_draw_block`` and ``_step_block``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import AbilityDistribution, half_min_mass, thresholds
from .errors import BadDelta, InfeasiblePair, check_pair
from .offline import offline_sort_batch

RNG_FAMILY = "philox"  # pinned; recorded in run manifests

CHUNK = 1024  # replications per block
SCRATCH_REPS = 64  # replications drawn rep-major at a time before the transpose
MAX_REPS = 2**32  # every rep fits one 32-bit spawn word

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_M32 = 2**32


def episode_stream(seed: int, rep: int = 0) -> np.random.Generator:
    """Independent substream for one replication, reproducible by (seed, rep)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))


def block_keys(seed: int, reps: range) -> np.ndarray:
    """(len(reps), 2) uint64 Philox keys: row i is the key of
    ``episode_stream(seed, reps[i])``, i.e.
    ``SeedSequence(seed, spawn_key=(reps[i],)).generate_state(2, np.uint64)``.

    SeedSequence hashes the seed's 32-bit words into a pool of four, then
    mixes the spawn word into every pool word and hashes the pool out.  The
    first part is shared by every rep: it is ``SeedSequence(seed).pool``
    (padding a short seed with zero words hashes the same as not padding).
    Only the mix-in and the output hash run per rep, as uint32 arithmetic
    over the array of reps, each below 2**32.  A negative seed raises
    ``ValueError``, as ``SeedSequence`` does.
    """
    pool = np.random.SeedSequence(seed).pool
    words = max(-(-int(seed).bit_length() // 32), 1)
    # the hash constant has advanced once per hashmix of the seed: 4 to fill
    # the pool, 12 to cross-mix it, 4 for each seed word past the fourth
    calls = _POOL * _POOL + _POOL * max(words - _POOL, 0)
    hash_a = _INIT_A * pow(_MULT_A, calls, _M32) % _M32
    hash_b = _INIT_B
    spawn = np.arange(reps.start, reps.stop, reps.step, dtype=np.int64).astype(np.uint32)
    state = np.empty((_POOL, spawn.size), dtype=np.uint64)
    for i in range(_POOL):
        x = spawn ^ np.uint32(hash_a)  # hashmix(spawn word)
        hash_a = hash_a * _MULT_A % _M32
        x *= np.uint32(hash_a)
        x ^= x >> np.uint32(16)
        x = np.uint32(_MIX_L * int(pool[i]) % _M32) - np.uint32(_MIX_R) * x  # mix into pool[i]
        x ^= x >> np.uint32(16)
        x ^= np.uint32(hash_b)  # generate_state's output hash of pool[i]
        hash_b = hash_b * _MULT_B % _M32
        x *= np.uint32(hash_b)
        x ^= x >> np.uint32(16)
        state[i] = x
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


@dataclass(frozen=True, eq=False)
class EpisodeRecord:
    """One full trajectory: draws, decisions, budget and ratio paths."""

    policy: str
    n: int
    k: int
    seed_ref: tuple[int, int]  # (seed, rep)
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
    d: AbilityDistribution, policy, n: int, k: int, seed: int, rep: int = 0
) -> EpisodeRecord:
    """Play replication ``rep`` of ``seed``: the 2n uniforms of
    ``episode_stream(seed, rep)``, drawn like every other pass."""
    check_cell(policy, n, k, 1)
    if not 0 <= rep < MAX_REPS:
        raise InfeasiblePair(f"rep must be in [0, 2**32), got {rep}")
    ranks, u, _ = _draw_block(d, seed, range(rep, rep + 1), n, np.empty((1, 2 * n)), False)
    cell = _Cell(policy, k)
    cell.start(1, n, want_paths=True)
    _step_block(d, n, [cell], ranks, u)
    budget_path = cell.paths[:, 0].astype(np.int64)
    ratio_path = budget_path[:n] / (n - np.arange(n))
    return EpisodeRecord(
        policy=policy.name,
        n=n,
        k=k,
        seed_ref=(seed, rep),
        abilities=ranks[:, 0].copy(),
        decisions=budget_path[1:] < budget_path[:-1],
        payoff=float(cell.payoff[0]),
        budget_path=budget_path,
        ratio_path=ratio_path,
    )


def check_cell(policy, n: int, k: int, reps: int) -> None:
    """Raise unless n >= 1, 0 <= k <= n, 1 <= reps <= ``MAX_REPS`` and
    ``policy.check(n, k)`` passes."""
    check_pair(n, k, min_n=1)
    check_reps(reps)
    policy.check(n, k)


def check_reps(reps: int) -> None:
    """Raise unless 1 <= reps <= ``MAX_REPS``."""
    if not 1 <= reps <= MAX_REPS:
        raise InfeasiblePair(f"reps must be in [1, 2**32], got {reps}")


class _Cell:
    """One (policy, k) of a pass at a fixed n: the state of its episodes in
    the current block."""

    def __init__(self, policy, k: int):
        self.policy = policy
        self.k = k
        self.budgets = self.payoff = self.paths = None

    def start(self, reps: int, n: int, want_paths: bool) -> None:
        self.budgets = np.full(reps, self.k, dtype=np.int64)
        self.payoff = np.zeros(reps)
        if want_paths:
            self.paths = np.empty((n + 1, reps), dtype=np.int32)
            self.paths[0] = self.k


def _uniform_block(gen: np.random.Generator, restart: dict, keys: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """The uniforms of the replications keyed by ``keys``, one row each,
    drawn into the leading rows of ``out``.  ``gen``'s Philox restarts from
    ``restart``, its state when new, under each row's key: the stream of
    ``episode_stream`` for that replication."""
    block = out[: len(keys)]
    bitgen = gen.bit_generator
    for row, key in zip(block, keys):
        restart["state"]["key"] = key
        bitgen.state = restart
        gen.random(out=row)
    return block


def _rank_counts(ranks: np.ndarray, m: int) -> np.ndarray:
    """(reps, m) int64 count of each rank 1..m in every row of a (reps, n)
    rank matrix, by one bincount over rep-offset ranks."""
    reps = ranks.shape[0]
    offset = ranks + (np.arange(reps, dtype=np.int64) * m - 1)[:, None]
    return np.bincount(offset.ravel(), minlength=reps * m).reshape(reps, m)


def _draw_block(d, seed: int, reps: range, n: int, scratch: np.ndarray, want_counts: bool):
    """Replications ``reps`` stored time-major: (n, reps) int16 ranks,
    (n, reps) decision uniforms, and (reps, m) int64 rank counts, or None
    unless ``want_counts``.  They are read-only, so no cell can change what
    the others read.

    The block's keys are derived at once and one Philox draws every row.
    Each replication's 2n uniforms pass through the rep-major ``scratch``,
    ``len(scratch)`` replications at a time, so no (reps, 2n) block is built.
    """
    size = len(reps)
    ranks = np.empty((n, size), dtype=np.int16)
    u = np.empty((n, size))
    counts = np.empty((size, d.m), dtype=np.int64) if want_counts else None
    keys = block_keys(seed, reps)
    philox = np.random.Philox(key=0)
    restart, gen = philox.state, np.random.Generator(philox)
    for lo in range(0, size, len(scratch)):
        buf = _uniform_block(gen, restart, keys[lo : lo + len(scratch)], scratch)
        cols = slice(lo, lo + len(buf))
        block_ranks = d.sample_many(buf[:, 0::2])
        ranks[:, cols] = block_ranks.T
        u[:, cols] = buf[:, 1::2].T
        if want_counts:
            counts[cols] = _rank_counts(block_ranks, d.m)
    for arr in (ranks, u, counts):
        if arr is not None:
            arr.flags.writeable = False
    return ranks, u, counts


def _step_block(d, n: int, cells, ranks: np.ndarray, u: np.ndarray) -> None:
    """Play every cell over one time-major block, period by period: all cells
    read the same rows ``ranks[t-1]`` and ``u[t-1]``."""
    for t_next in range(1, n + 1):
        j = ranks[t_next - 1]
        du = u[t_next - 1]
        value = d.support[j - 1]
        for cell in cells:
            sel = cell.policy.decide_batch(t_next, n, cell.budgets, j, du)
            cell.payoff += value * sel
            cell.budgets -= sel
            if cell.paths is not None:
                cell.paths[t_next] = cell.budgets


def _blocks(d, n: int, cells, reps: int, seed: int, want_paths=False, want_counts=False):
    """Play ``cells``, all at horizon ``n`` and checked by ``check_cell``,
    over episodes 0..reps-1 in shared blocks of ``CHUNK``.

    Yields ``(rows, counts)`` once every cell has stepped through a block:
    ``rows`` is the block's slice of 0..reps-1 and ``counts`` its (rows, m)
    rank counts, or None unless ``want_counts``; each cell holds the block's
    payoffs (and time-major paths).
    """
    if not cells:
        return
    scratch = np.empty((min(SCRATCH_REPS, CHUNK, reps), 2 * n))
    for start in range(0, reps, CHUNK):
        rows = slice(start, min(start + CHUNK, reps))
        ranks, u, counts = _draw_block(
            d, seed, range(rows.start, rows.stop), n, scratch, want_counts)
        for cell in cells:
            cell.start(rows.stop - rows.start, n, want_paths)
        _step_block(d, n, cells, ranks, u)
        yield rows, counts


def simulate_paths(
    d, policy, n: int, k: int, reps: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch episodes; returns (payoffs, per-ability counts, budget paths)."""
    check_cell(policy, n, k, reps)
    cell = _Cell(policy, k)
    payoffs = np.empty(reps)
    counts = np.empty((reps, d.m), dtype=np.int64)
    paths = np.empty((reps, n + 1), dtype=np.int32)
    for rows, cnt in _blocks(d, n, [cell], reps, seed, want_paths=True, want_counts=True):
        payoffs[rows], counts[rows], paths[rows] = cell.payoff, cnt, cell.paths.T
    return payoffs, counts, paths


def paired_payoffs_cells(d, n: int, cells, reps: int, seed: int) -> list:
    """Per-episode online and posterior-sort payoffs of several (policy, k)
    cells at horizon ``n``, on blocks drawn once and shared by all of them;
    the sort runs once per distinct k.

    Returns each cell's ``(online, offline)`` arrays, in order.  Every cell
    is checked by ``check_cell`` before the first block is drawn.
    """
    for policy, k in cells:
        check_cell(policy, n, k, reps)
    state = [_Cell(policy, k) for policy, k in cells]
    got = [(np.empty(reps), np.empty(reps)) for _ in state]
    for rows, counts in _blocks(d, n, state, reps, seed, want_counts=True):
        sorts = {}
        for cell, (online, offline) in zip(state, got):
            if cell.k not in sorts:
                sorts[cell.k] = offline_sort_batch(d, counts, cell.k)
            online[rows] = cell.payoff
            offline[rows] = sorts[cell.k]
    return got


def ratio_mean_curve(
    d, policy, n: int, k: int, reps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-t averages of the ratio R_t and the remaining budget K_t, t < n."""
    check_cell(policy, n, k, reps)
    cell = _Cell(policy, k)
    budget_sum = np.zeros(n)
    for _ in _blocks(d, n, [cell], reps, seed, want_paths=True):
        budget_sum += cell.paths[:n].sum(axis=1)
    mean_budget = budget_sum / reps
    mean_ratio = mean_budget / (n - np.arange(n))
    return mean_ratio, mean_budget


def cutoff_time(n: int, delta: float) -> int:
    """Horizon guard n - ceil(2/delta) - 1 (clamped at 0) past which orbit
    tracking stops; jumps of the ratio stay below delta/2 up to it."""
    return max(n - math.ceil(2.0 / delta) - 1, 0)


def _first_true(mask: np.ndarray, none: int) -> np.ndarray:
    """The first row index of each column of ``mask`` that holds True, or
    ``none`` where the column holds none."""
    first = np.argmax(mask, axis=0)
    return np.where(mask[first, np.arange(mask.shape[1])], first, none)


def _orbit_scan(paths: np.ndarray, thr: np.ndarray, delta: float, n: int):
    """tau0/j/tau of each column of an (n+1, reps) matrix of budget paths,
    against the thresholds ``thr`` = T_1..T_{m+1}.

    The ratio R_t enters the orbit of T_j at the first t below the cutoff
    with |R_t - T_j| <= delta/2, and leaves it at the first later t with
    |R_t - T_j| > delta.  Only the threshold nearest R_t (one searchsorted
    into the midpoints between thresholds) is tested: since delta is below
    the smallest gap between thresholds, no other can be within delta/2.
    """
    m = thr.size - 1
    reps = paths.shape[1]
    t_cut = min(cutoff_time(n, delta), n - 1)
    if t_cut == 0:
        cut = np.zeros(reps, dtype=np.int64)
        return cut, np.full(reps, m + 1, dtype=np.int16), cut
    ratio = paths[:t_cut] / (n - np.arange(t_cut))[:, None]
    mids = 0.5 * (thr[: m - 1] + thr[1:m])
    nearest = np.searchsorted(mids, ratio)  # 0-based j of the nearest T_j
    dev = ratio - thr[nearest]
    np.abs(dev, out=dev)
    tau0 = _first_true(dev <= delta / 2.0, t_cut)
    cols = np.arange(reps)
    entered = tau0 < t_cut
    j_tau0 = np.where(entered, nearest[np.minimum(tau0, t_cut - 1), cols] + 1, m + 1)
    np.subtract(ratio, thr[j_tau0 - 1], out=dev)  # T_{m+1} = inf on the cutoff branch
    np.abs(dev, out=dev)
    out = dev > delta
    out &= np.arange(t_cut)[:, None] > tau0  # cutoff branch: tau = tau0 = t_cut
    return tau0, j_tau0.astype(np.int16), _first_true(out, t_cut)


def _orbit_thresholds(d, delta: float) -> np.ndarray:
    """The thresholds of ``d``, once ``delta`` lies in (0, half the minimal
    mass): then it is below half of every gap between thresholds, so the
    matched threshold is unique."""
    epsilon = half_min_mass(d)
    if not 0.0 < delta < epsilon:
        raise BadDelta(f"delta must satisfy 0 < delta < {epsilon} (half the minimal mass), got {delta}")
    return thresholds(d)


def orbit_diagnostics(record: EpisodeRecord, d, delta: float) -> OrbitDiagnostics:
    """Entry time tau0 into a threshold orbit, the matched threshold, the
    exit time tau, and the deviation path Y from tau0 onward."""
    thr = _orbit_thresholds(d, delta)
    n = record.n
    tau0_a, j_a, tau_a = _orbit_scan(record.budget_path[:, None], thr, delta, n)
    tau0, j_tau0, tau = int(tau0_a[0]), int(j_a[0]), int(tau_a[0])
    if j_tau0 == d.m + 1:
        y_path = np.empty(0)
    else:
        anchor = thr[j_tau0 - 1]
        left = n - tau0 - np.arange(n - tau0 + 1)
        y_path = record.budget_path[tau0:] - anchor * left
    return OrbitDiagnostics(delta=delta, tau0=tau0, j_tau0=j_tau0, tau=tau, y_path=y_path)


def orbit_stats(d, policy, n: int, k: int, delta: float, reps: int, seed: int) -> OrbitSample:
    """Orbit entry/exit statistics over many replications."""
    thr = _orbit_thresholds(d, delta)
    check_cell(policy, n, k, reps)
    cell = _Cell(policy, k)
    tau0 = np.empty(reps, dtype=np.int64)
    j_tau0 = np.empty(reps, dtype=np.int16)
    tau = np.empty(reps, dtype=np.int64)
    for rows, _ in _blocks(d, n, [cell], reps, seed, want_paths=True):
        tau0[rows], j_tau0[rows], tau[rows] = _orbit_scan(cell.paths, thr, delta, n)
    return OrbitSample(delta=delta, tau0=tau0, j_tau0=j_tau0, tau=tau)

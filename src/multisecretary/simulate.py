"""Sample-path engine with common random numbers and orbit diagnostics.

Every episode consumes exactly two uniforms per period (ability draw, then
decision draw) from a counter-based Philox substream keyed by (seed, rep),
so ability sequences are identical across policies and replication results
do not depend on execution order.

The engine runs block-outer.  Episodes 0..reps-1 go in blocks of ``CHUNK``.
The Philox keys of a block's replications are derived once, as arrays, and
a Philox restarts under each key in turn (``block_keys``).  Each block is
drawn once, a few dozen replications at a time through a rep-major scratch
buffer, and stored time-major: (n, reps) int16 ranks, (n, reps) float64
decision uniforms and, in a payoff pass, the per-rank counts of each
replication.  Up to ``DRAW_THREADS`` threads (the CPUs the process may run
on, at most 4; no option sets it) draw a block, each its own contiguous run
of columns with its own Philox and scratch, so no result depends on the
thread count; the threads split ``SCRATCH_REPS`` rows of scratch between
them, so a pass's scratch is the same size at any count.  Only the draw
leaves the calling thread.  Every (policy, k) cell at that n then steps
over the same rows ``ranks[t-1]`` and ``u[t-1]``, period by period; a caller that
sorts the posterior does so once per k on the shared counts.  A pass takes
its cells as ``(policy, ks)`` stacks, the cells that share one policy
object: a stack's budgets are one (len(ks), reps) matrix, so each period
makes one ``decide_batch`` call per policy, whose shared rank and uniform
rows broadcast over the stack.  A path pass, run only on one cell, steps
each block ``_ENTRY_ROWS`` (64) periods at a time into one rolling window
of budgets, time-major too, (65, 1, reps) int32: row 0 holds the budgets
at the chunk's first period, carried over from the chunk before, and no
buffer holds a block's whole (n+1)-row path.

A pass works in one fixed set of buffers, at most ``CHUNK`` replications
wide, allocated before its first block: the scratch, the ranks, the
uniforms and counts it reads, and each stack's budgets and its payoffs or
window.  Every block, a last partial one too, resets and refills their
leading columns, and the pass yields read-only views of what it filled.  So
a path pass holds the (n, ``CHUNK``) int16 ranks, the uniforms a
randomized policy reads and the scratch, which the draw needs anyway, plus
a 65-row window, and nothing else that grows with n.  A pass in which no
policy is ``randomized`` (only br and dp) stores no decision uniforms: it
still draws them, two per period, so every stream and the common random
numbers are those of a pass that reads them, and its policies decide with
``u=None``.  A pass either records budget paths, or sums payoffs and
counts ranks.  The Monte Carlo sweep, ``evaluate._mc_cells``, sums payoffs
and pairs them with the posterior sort on the rank counts.
``orbit_stats`` and ``run_episode`` record paths, one window per chunk;
``run_episode`` copies each into the one replication's full path.  Every
pass draws from its stacks' ``policy.dist``, and its caller checks
each cell with ``check_cell`` before it draws; an exception inside the
pass stops every cell of it.  Every pass runs the one block loop
``_blocks``; ``run_episode`` and ``orbit_stats`` run it on a stack of one,
``run_episode`` over one replication.

``orbit_stats`` is the one orbit entry.  It scans each chunk's window as
soon as it is stepped (``_orbit_scan``), carrying each block's entry and
exit times from chunk to chunk: the orbit-entry search tests only the
replications that have not entered yet, and the exit test compares each
replication with its matched threshold alone.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .distribution import half_min_mass, thresholds
from .errors import BadDelta, InfeasiblePair, check_pair

RNG_FAMILY = "philox"  # pinned; recorded in run manifests

CHUNK = 1024  # replications per block
SCRATCH_REPS = 64  # replications drawn rep-major at a time, over all draw threads
_ENTRY_ROWS = 64  # periods of the orbit scan per step
MAX_REPS = 2**32  # every rep fits one 32-bit spawn word
# threads that draw a block: the CPUs this process may run on, at most 4
DRAW_THREADS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1, 4)

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_M32 = 2**32


def block_keys(seed: int, reps: range) -> np.ndarray:
    """(len(reps), 2) uint64 Philox keys: row i is the key that
    ``Philox(SeedSequence(seed, spawn_key=(reps[i],)))`` derives, i.e.
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

    abilities: np.ndarray   # 1-based ranks, length n
    decisions: np.ndarray   # bool, length n
    budget_path: np.ndarray  # K_0..K_n
    ratio_path: np.ndarray   # K_t / (n - t) for t = 0..n-1


@dataclass(frozen=True, eq=False)
class OrbitSample:
    """Orbit entry time, matched threshold and exit time, one entry per
    replication.  Where the horizon cutoff fires before any entry, ``j_tau0``
    is m+1 and ``tau`` = ``tau0`` = the cutoff time."""

    tau0: np.ndarray
    j_tau0: np.ndarray
    tau: np.ndarray


def run_episode(policy, n: int, k: int, seed: int, rep: int = 0) -> EpisodeRecord:
    """Play replication ``rep`` of ``seed`` on ``policy.dist``: row ``rep`` of
    every many-replication pass, by a path pass over that one replication."""
    check_cell(policy, n, k, 1)
    if not 0 <= rep < MAX_REPS:
        raise InfeasiblePair(f"rep must be in [0, 2**32), got {rep}")
    budget_path = np.empty(n + 1, dtype=np.int64)
    for _, ranks, lo, (window,) in _blocks(n, [(policy, [k])], range(rep, rep + 1), seed, paths=True):
        budget_path[lo : lo + len(window)] = window[:, 0, 0]
    abilities = ranks[:, 0].copy()
    return EpisodeRecord(
        abilities=abilities,
        decisions=budget_path[1:] < budget_path[:-1],
        budget_path=budget_path,
        ratio_path=budget_path[:n] / (n - np.arange(n)),
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


def _uniform_block(gen: np.random.Generator, restart: dict, keys: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """The uniforms of the replications keyed by ``keys``, one row each,
    drawn into the leading rows of ``out``.  ``gen``'s Philox restarts from
    ``restart``, its state when new, under each row's key: the stream of
    ``Philox(SeedSequence(seed, spawn_key=(rep,)))`` for that replication."""
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


def _scratch(n: int, width: int) -> list:
    """The rep-major scratch buffers of a pass at most ``width`` replications
    wide: one per draw thread, up to ``DRAW_THREADS``, of ``SCRATCH_REPS //
    DRAW_THREADS`` rows each (``width`` rows if that is fewer), and no more
    of them than such groups of rows span ``width``.  A pass's scratch stays
    at most ``SCRATCH_REPS`` × 2n doubles whatever the thread count."""
    rows = min(SCRATCH_REPS // DRAW_THREADS, width)
    return [np.empty((rows, 2 * n)) for _ in range(min(DRAW_THREADS, -(-width // rows)))]


def _draw_block(d, seed: int, reps: range, scratch: list, ranks: np.ndarray,
                u: np.ndarray | None, counts: np.ndarray | None):
    """Replications ``reps`` stored time-major into the leading ``len(reps)``
    columns of a pass's buffers: ``ranks``, (n, width) int16, ``u``, (n,
    width) decision uniforms, and ``counts``, (width, m) int64 rank counts;
    ``u`` and ``counts`` are None in a pass that does not read them.

    Returns read-only views of the filled part of each buffer (None for a
    missing one), so no cell can change what the others read; the buffers
    themselves stay writeable for the next block.

    The block's keys are derived at once.  Each replication's 2n uniforms
    pass through a rep-major buffer of ``scratch`` (see ``_scratch``), a
    group of ``len(scratch[0])`` replications at a time, so no (reps, 2n)
    block is built.  The groups are split into up to ``len(scratch)``
    contiguous runs of columns, one per scratch buffer: the calling thread
    draws the first run and one new thread each other run, each with its own
    Philox restarted per row, so every column holds the same bytes whatever
    the split.  A block of one group starts no thread.  An exception in any
    run is raised here once every run has ended.  The decision half is drawn
    whether or not ``u`` stores it.
    """
    size = len(reps)
    keys = block_keys(seed, reps)
    group = len(scratch[0])
    groups = -(-size // group)
    parts = min(len(scratch), groups)
    bounds = [min(i * groups // parts * group, size) for i in range(parts + 1)]
    errors = [None] * parts

    def draw(i: int) -> None:
        philox = np.random.Philox(key=0)
        restart, gen = philox.state, np.random.Generator(philox)
        for lo in range(bounds[i], bounds[i + 1], group):
            buf = _uniform_block(gen, restart, keys[lo : lo + group], scratch[i])
            cols = slice(lo, lo + len(buf))
            block_ranks = d.sample_many(buf[:, 0::2])
            ranks[:, cols] = block_ranks.T
            if u is not None:
                u[:, cols] = buf[:, 1::2].T
            if counts is not None:
                counts[cols] = _rank_counts(block_ranks, d.m)

    def run(i: int) -> None:
        try:
            draw(i)
        except BaseException as exc:  # re-raised by the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, parts)]
    for thread in threads:
        thread.start()
    try:
        draw(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    views = (ranks[:, :size], None if u is None else u[:, :size],
             None if counts is None else counts[:size])
    for view in views:
        if view is not None:
            view.flags.writeable = False
    return views


def _step_block(d, n: int, stacks, ranks: np.ndarray, u: np.ndarray | None,
                lo: int, hi: int, paths: bool) -> None:
    """Play every ``(policy, budgets, record)`` stack over periods lo+1..hi
    of one time-major block: all stacks read the same rows ``ranks[t-1]``
    and ``u[t-1]`` (None when the pass stores no uniforms), and one
    ``decide_batch`` call at the ``n - t + 1`` periods left decides every
    budget row of a stack against them.  A path pass (``paths``) writes the
    budgets after period t into row t - lo of the record, its window; a
    payoff pass sums the selected values into it."""
    if not paths:
        value_of_rank = np.concatenate(([0.0], d.support))  # ranks are 1-based
    for t_next in range(lo + 1, hi + 1):
        j = ranks[t_next - 1]
        du = None if u is None else u[t_next - 1]
        if not paths:
            value = value_of_rank.take(j)
        for policy, budgets, record in stacks:
            sel = policy.decide_batch(n - t_next + 1, budgets, j, du)
            if not paths:
                record += value * sel
            budgets -= sel
            if paths:
                record[t_next - lo] = budgets


def _blocks(n: int, stacks, reps: range, seed: int, paths=False):
    """Play the ``(policy, ks)`` stacks, every policy at horizon ``n`` on
    ``stacks[0][0].dist`` and checked by ``check_cell`` at each of its ``ks``,
    over the replications ``reps`` in shared blocks of ``CHUNK``.  A path pass
    (``paths``) steps each block ``_ENTRY_ROWS`` periods at a time and
    records each stack's budgets over the chunk; a payoff pass steps a block
    at once, sums each stack's payoffs and counts the block's ranks.

    A payoff pass yields ``(rows, ranks, counts, records)`` once every stack
    has stepped through a block: ``rows`` is the block's slice of positions
    in ``reps``, ``ranks`` its read-only (n, rows) ranks, ``counts`` its
    (rows, m) rank counts, and ``records[i]`` a read-only view of stack i's
    (len(ks), rows) payoffs.  A path pass yields ``(rows, ranks, lo,
    records)`` once per chunk of a block, ``lo`` = 0, ``_ENTRY_ROWS``, ...:
    ``records[i]`` is a read-only view of stack i's window, (r + 1,
    len(ks), rows) int32 budgets K_lo..K_{lo+r}, time-major, with r =
    min(``_ENTRY_ROWS``, n - lo).  Its row 0 holds the budgets at the
    chunk's first period, the last row of the chunk before.

    The pass allocates its buffers once, at most ``CHUNK`` columns wide: the
    draw buffers, a scratch per draw thread among them (``_scratch``), and
    for each stack a (len(ks), width) budget matrix and its record, the
    payoffs or an (``_ENTRY_ROWS`` + 1, len(ks), width) window.  Nothing in
    a path pass but the draw buffers grows with n.  Every block resets and
    refills their leading columns, and every chunk its window, so a caller
    reads what the pass yields before asking for more.  The decision
    uniforms are stored only if some stack's policy is ``randomized``.
    """
    d = stacks[0][0].dist
    width = min(CHUNK, len(reps))
    scratch = _scratch(n, width)
    ranks = np.empty((n, width), dtype=np.int16)
    u = np.empty((n, width)) if any(policy.randomized for policy, _ in stacks) else None
    counts = None if paths else np.empty((width, d.m), dtype=np.int64)
    step = _ENTRY_ROWS if paths else n
    state = []  # (policy, its ks as a column, budgets, record) per stack
    for policy, ks in stacks:
        budgets = np.empty((len(ks), width), dtype=np.int64)
        record = (np.empty((step + 1, *budgets.shape), dtype=np.int32) if paths
                  else np.empty(budgets.shape))
        state.append((policy, np.reshape(ks, (-1, 1)), budgets, record))
    for start in range(0, len(reps), CHUNK):
        block = reps[start : start + CHUNK]
        cols = slice(0, len(block))
        rows = slice(start, start + len(block))
        stepped = []
        for policy, ks, budgets, record in state:
            budgets, record = budgets[:, cols], record[..., cols]
            budgets[:] = ks
            if not paths:
                record.fill(0.0)
            stepped.append((policy, budgets, record))
        block_ranks, block_u, block_counts = _draw_block(d, seed, block, scratch, ranks, u, counts)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            if paths:
                for _, budgets, window in stepped:
                    window[0] = budgets
            _step_block(d, n, stepped, block_ranks, block_u, lo, hi, paths)
            records = [record[: hi - lo + 1] if paths else record for _, _, record in stepped]
            for record in records:
                record.flags.writeable = False
            yield rows, block_ranks, lo if paths else block_counts, records


def cutoff_time(n: int, delta: float) -> int:
    """Horizon guard n - ceil(2/delta) - 1 (clamped at 0) past which orbit
    tracking stops; jumps of the ratio stay below delta/2 up to it."""
    return max(n - math.ceil(2.0 / delta) - 1, 0)


def _first_true(mask: np.ndarray, none: int) -> np.ndarray:
    """The first row index of each column of ``mask`` that holds True, or
    ``none`` where the column holds none."""
    first = np.argmax(mask, axis=0)
    return np.where(mask[first, np.arange(mask.shape[1])], first, none)


def _orbit_scan(window: np.ndarray, lo: int, thr: np.ndarray, delta: float, n: int, scan) -> None:
    """Carry the orbit scan of a block's columns over one chunk of periods.
    ``window`` is a path pass's (r + 1, reps) budgets K_lo..K_{lo+r}, and
    ``scan`` = (tau0, j_tau0, tau) the block's results so far against the
    thresholds ``thr`` = T_1..T_{m+1}, updated in place.  A block's scan
    starts with every tau0 and tau at the cutoff and every j_tau0 at m+1
    (not entered), and reads its chunks in order, ``lo`` = 0,
    ``_ENTRY_ROWS``, ...; each reads periods lo..min(lo + r, t_cut) - 1, as
    the window's last row is the next chunk's first.

    The ratio R_t enters the orbit of T_j at the first t below the cutoff
    with |R_t - T_j| <= delta/2, and leaves it at the first later t with
    |R_t - T_j| > delta.  Only the threshold nearest R_t (one searchsorted
    into the midpoints between thresholds) is tested: since delta is below
    the smallest gap between thresholds, no other can be within delta/2.

    The entry search tests only the columns that have not entered yet,
    until none is left; the exit test then compares every column with its
    matched threshold alone.  It counts only periods after a column's entry,
    a mask needed only while some column enters at or after ``lo``, and
    keeps each column's first exit.
    """
    tau0, j_tau0, tau = scan
    m = thr.size - 1
    hi = min(lo + len(window) - 1, cutoff_time(n, delta), n - 1)
    if hi <= lo:
        return
    ratio = window[: hi - lo] / (n - np.arange(lo, hi))[:, None]
    pending = np.flatnonzero(j_tau0 > m)
    if pending.size:
        mids = 0.5 * (thr[: m - 1] + thr[1:m])
        rows = ratio[:, pending]
        nearest = np.searchsorted(mids, rows)  # 0-based j of the nearest T_j
        rows -= thr[nearest]
        np.abs(rows, out=rows)
        first = _first_true(rows <= delta / 2.0, len(rows))
        hit = np.flatnonzero(first < len(rows))
        tau0[pending[hit]] = lo + first[hit]
        j_tau0[pending[hit]] = nearest[first[hit], hit] + 1
    ratio -= thr[j_tau0 - 1]  # T_{m+1} = inf where no entry yet
    np.abs(ratio, out=ratio)
    out = ratio > delta
    if tau0.max() >= lo:
        out &= np.arange(lo, hi)[:, None] > tau0
    if out.any():
        np.minimum(tau, lo + _first_true(out, n), out=tau)


def orbit_thresholds(d, delta: float) -> np.ndarray:
    """The thresholds of ``d``, once ``delta`` lies in (0, half the minimal
    mass): then it is below half of every gap between thresholds, so the
    matched threshold is unique.  Any other ``delta`` raises ``BadDelta``."""
    epsilon = half_min_mass(d)
    if not 0.0 < delta < epsilon:
        raise BadDelta(f"delta must satisfy 0 < delta < {epsilon} (half the minimal mass), got {delta}")
    return thresholds(d)


def orbit_stats(policy, n: int, k: int, delta: float, reps: int, seed: int) -> OrbitSample:
    """tau0, j and tau of replications 0..reps-1 of ``seed`` on
    ``policy.dist``: row ``rep`` is the ``_orbit_scan`` of ``run_episode``'s
    budget path for that replication, chunk by chunk.  A ``delta`` outside
    (0, half the minimal mass) raises ``BadDelta`` before any draw."""
    thr = orbit_thresholds(policy.dist, delta)
    check_cell(policy, n, k, reps)
    t_cut = min(cutoff_time(n, delta), n - 1)
    tau0 = np.full(reps, t_cut, dtype=np.int64)
    j_tau0 = np.full(reps, thr.size, dtype=np.int16)
    tau = np.full(reps, t_cut, dtype=np.int64)  # cutoff branch: tau = tau0 = t_cut
    for rows, _, lo, (window,) in _blocks(n, [(policy, [k])], range(reps), seed, paths=True):
        _orbit_scan(window[:, 0], lo, thr, delta, n, (tau0[rows], j_tau0[rows], tau[rows]))
    return OrbitSample(tau0=tau0, j_tau0=j_tau0, tau=tau)

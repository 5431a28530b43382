"""Exact simulation of the driving Markov chain and discounted regime functionals.

Paths are generated with the embedded-jump-chain method: the holding time in
state i is exponential with rate -q_ii and the next state is j with
probability q_ij / (-q_ii).  Discounted expectations of regime functionals,

    w(i) = E[ integral_0^inf e^{-rt} g(alpha_t) dt | alpha_0 = i ],

solve the strictly diagonally dominant linear system (r I - Q) w = g, which
is used as the analytic route; a path-wise Monte Carlo estimator over exact
jump segments provides the independent check.

Every walk, here and in the Euler engine (module sde), is _block_walk: a
block of paths advances a round of draws at a time, numpy turns each
uniform into a key, Python looks each next state up in a table indexed by
state and key, and numpy sums the holding times, with the same draws, picks
and float operations as adding one holding time per jump.  Each path owns
its stream, so a path's jumps do not depend on the block it walks in.
discounted_functional_mc splits a large run into contiguous path shares
run in worker processes (module _pool) and reduces the per-path values in
global path order, so its result does not depend on the worker count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import _pool
from .model import Generator

_BLOCK_JUMPS = 1 << 20  # most expected jumps on one path; sde sizes its blocks by it
_WALK_JUMPS = 1 << 13   # expected jumps per walked block, most draws per path and round
# fewest expected jumps worth a worker process: on a 2-core VM a worker took
# 0.24-0.35 s to start and 2^21 jumps 0.4-0.8 s to walk and integrate
# (m = 2 to 8 regimes; 0.4-1.2 s with bisect picks)
_SHARE_JUMPS = 1 << 21
# a path's own cost in jumps: on a 2-core VM a path took 21-34 us for its
# generator and draw calls, and a jump 0.15-0.3 us to walk (m = 2 to 8)
_PATH_JUMPS = 1 << 8
_KEY_ENTRIES = 1 << 16  # most next-state table entries, m x |B| (see _key_table)

__all__ = [
    "RegimePath",
    "simulate_chain",
    "regimes_on_grid",
    "discounted_resolvent",
    "discounted_functional_mc",
]


@dataclass(frozen=True, eq=False)
class RegimePath:
    """One realized chain trajectory on [0, horizon).

    jump_times[0] is always 0 (the start of the first interval); states holds
    the 1-based regime occupied on each interval; jump_counts[i][j] counts the
    recorded i+1 -> j+1 transitions up to the horizon.
    """

    jump_times: np.ndarray
    states: np.ndarray
    jump_counts: np.ndarray
    horizon: float

    @property
    def n_jumps(self) -> int:
        return len(self.states) - 1


def _jump_tables(gen: Generator):
    """Per-state exit rates, cumulative next-state distributions and targets, plus keys.

    rates, cums and targets are plain lists.  An absorbing state lists
    itself as its one target; the walk stops it by its zero rate, never by
    this entry.  keys is _key_table's next-state table, or None.
    """
    m = gen.m
    q = gen.q.tolist()
    rates = [-q[i][i] for i in range(m)]
    cums, targets = [], []
    for i in range(m):
        entries = [(w, j) for j, w in enumerate(q[i]) if j != i and w > 0.0]
        total = sum(w for w, _ in entries)
        acc = 0.0
        cu, tg = [], []
        for w, j in entries:
            acc += w
            cu.append(acc / total)
            tg.append(j)
        if cu:
            cu[-1] = 1.0  # guard against rounding in the last cumulative weight
        else:
            cu, tg = [1.0], [i]
        cums.append(cu)
        targets.append(tg)
    return rates, cums, targets, _key_table(cums, targets)


def _key_table(cums, targets):
    """Next states indexed by state and a uniform's key, or None.

    B is the sorted union of every state's cumulative entries, and a
    uniform u in [0, 1) has key k = #(B < u).  Each cumulative entry is in
    B, so the first entry of state s that is >= u is also the first one
    >= B[k]: next[s][k] = targets[s][bisect_left(cums[s], B[k])] is the
    state the bisect pick would enter.  Keys come from a grid of G = 2^p
    cells over [0, 1): cell[c] = #(B < c / G) for the cell holding u, then
    at most per_cell steps of k += B[k] < u, per_cell being the most
    entries of B below 1 in one cell.  u x G is exact, so its floor is u's
    cell.  B ends with 1 > u, so no key runs past it.  Returns (G, cell, B,
    per_cell, next), or None where m x |B| exceeds _KEY_ENTRIES: the table
    grows as m^3 for a dense generator, and those chains bisect.
    """
    b = np.array(sorted(set().union(*cums)))
    if len(cums) * b.size > _KEY_ENTRIES:
        return None
    nxt = [np.take(tg, np.searchsorted(cu, b)).tolist() for cu, tg in zip(cums, targets)]
    grid = 1 << (b.size.bit_length() + 2)  # 4-8 cells per entry
    cell = np.searchsorted(b, np.arange(grid) / grid)
    per_cell = int(np.bincount((b[:-1] * grid).astype(np.intp), minlength=1).max())
    return grid, cell, b, per_cell, nxt


def _keys(keys, u):
    """Each uniform's key #(B < u) (see _key_table), as a list of Python ints."""
    grid, cell, b, per_cell, _ = keys
    k = cell[(u * grid).astype(np.intp)]
    for _ in range(per_cell):
        k += b[k] < u
    return k.tolist()


def _block_walk(tables, i0, horizon, streams):
    """Jump-chain walk from 0-based state i0 to the horizon, one path per stream seed.

    tables is _jump_tables' result.  Returns flat (path, time, state)
    arrays, path after path and each path in time order: its start (time 0,
    state i0), then one entry per jump with the state entered.  Path k
    draws from default_rng(streams[k]), in chunks of 64, 128, ..., 8192
    exponentials each followed by as many uniforms; draws left over at the
    horizon are discarded.

    The live paths walk in rounds.  A round draws consecutive chunks until
    it holds min(horizon x mean exit rate over the states, _WALK_JUMPS)
    draws per path, at least one chunk: about every draw a path will use,
    so most paths end in their first round.  Each next state is the first
    cumulative entry >= the uniform.  Since no state is left faster than
    the top rate, a cumulative sum at that rate bounds the jump times from
    below, and picking stops where it reaches the horizon.  numpy turns the
    picked uniforms into keys, so Python only looks each next state up in
    _key_table's table; a chain too large for that table bisects each
    state's cumulative entries instead.  Where every state has one target
    and the block holds at least m paths, a table of each state's next
    states (no larger than the block's draws) stands in for the picks.
    numpy sums the holding times as cumsum(E / rate of the state left) with
    the current time added to the first term: the float operations, in
    order, of adding one holding time at a time.  An absorbing state's zero
    rate makes every later time infinite, which cuts its path there.
    """
    rates, cums, targets, keys = tables
    rngs = [np.random.default_rng(key) for key in streams]
    n = len(rngs)
    m = len(rates)
    rate = np.array(rates + [0.0])  # a stop state m, never entered, pads each row
    top = max(rates)
    paths, times, states = [np.arange(n)], [np.zeros(n)], [np.full(n, i0)]
    t = np.zeros(n)
    s = np.full(n, i0)
    rows = np.arange(n if rates[i0] > 0.0 else 0)  # the live paths
    orbit = None
    if m <= n and all(len(tg) == 1 for tg in targets):
        orbit = np.array([tg[0] for tg in targets])[:, None]  # column k: k + 1 jumps on
    size = 64  # the next chunk's
    want = min(horizon * sum(rates) / m, _WALK_JUMPS)
    while rows.size:
        chunks = []
        while not chunks or sum(chunks) < want:
            chunks.append(size)
            size = min(2 * size, 8192)
        cols = sum(chunks)
        e = np.empty((rows.size, cols))
        u = np.empty((rows.size, cols))
        for j, k in enumerate(rows.tolist()):
            a = 0
            for c in chunks:
                rngs[k].standard_exponential(out=e[j, a:a + c])
                rngs[k].random(out=u[j, a:a + c])
                a += c
        left = np.empty((rows.size, cols))  # for the rate of the state each jump leaves
        if orbit is not None:  # one target per state: nothing to pick
            while orbit.shape[1] < cols:
                orbit = np.concatenate((orbit, orbit[orbit[:, -1]]), axis=1)
            entered = orbit[s[rows], :cols]
        else:
            np.divide(e, top, out=left)
            left[:, 0] += t[rows]
            picks = (np.cumsum(left, axis=1, out=left) < horizon).sum(axis=1)
            picked = np.arange(cols) < picks[:, None]
            nxt = []
            if keys is not None:
                table, x = keys[-1], _keys(keys, u[picked])
                a = 0
                for st, p in zip(s[rows].tolist(), picks.tolist()):
                    nxt += [st := table[st][k] for k in x[a:a + p]]
                    a += p
            else:
                for j, st in enumerate(s[rows].tolist()):
                    nxt += [st := targets[st][bisect_left(cums[st], x)]
                            for x in u[j, :picks[j]].tolist()]
            entered = np.full((rows.size, cols), m)
            entered[picked] = nxt
        left[:, 0] = rate[s[rows]]
        np.take(rate, entered[:, :-1], out=left[:, 1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(e, left, out=e)  # the holding times, then the jump times
        e[:, 0] += t[rows]
        np.cumsum(e, axis=1, out=e)
        kept = e < horizon  # a prefix of every row
        paths.append(np.repeat(rows, kept.sum(axis=1)))
        times.append(e[kept])
        states.append(entered[kept])
        on = kept[:, -1] & (rate[entered[:, -1]] > 0.0)
        rows = rows[on]
        t[rows] = e[on, -1]
        s[rows] = entered[on, -1]
    order = np.argsort(np.concatenate(paths), kind="stable")
    return tuple(np.concatenate(a)[order] for a in (paths, times, states))


def _walks(gen: Generator, i0: int, horizon: float, streams):
    """_block_walk from 1-based i0 over the stream seeds, in blocks.

    Returns an iterator of one (path, time, state) triple per block of
    paths, with paths numbered in stream order and 0-based states.  A block
    expects about _WALK_JUMPS jumps (and holds at least one path), so a
    round's arrays stay near 2^14 path x draw entries (128 KiB each; blocks
    twice as large raised a process's peak RSS by 2 MB for no speed).
    Raises ValueError, before any walk, unless i0 is in 1..m, the horizon is
    positive and finite, and horizon x largest exit rate <= _BLOCK_JUMPS.
    The jump tables are built when the first block is walked, so a call
    made only for these checks builds none.
    """
    if not 1 <= i0 <= gen.m:
        raise ValueError(f"i0 must be in 1..{gen.m}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    top = float(np.max(-np.diag(gen.q)))
    if horizon * top > _BLOCK_JUMPS:
        raise ValueError(f"a path expects {horizon * top:.3g} regime jumps, over the "
                         f"{_BLOCK_JUMPS} budget; shorten the horizon or slow the chain")
    streams = iter(streams)
    width = max(1, int(_WALK_JUMPS // max(horizon * top, 64.0)))

    def blocks():
        first, tables = 0, None
        while block := list(islice(streams, width)):
            tables = tables or _jump_tables(gen)
            path, t, st = _block_walk(tables, i0 - 1, horizon, block)
            yield path + first, t, st
            first += len(block)

    return blocks()


def simulate_chain(gen: Generator, i0: int, horizon: float, seed: int) -> RegimePath:
    """Simulate one statistically exact chain path.

    Deterministic given (gen, i0, horizon, seed), i0 1-based; ValueError as _walks.
    """
    ((_, jt, st),) = _walks(gen, i0, horizon, [seed])
    m = gen.m
    counts = np.bincount(st[:-1] * m + st[1:], minlength=m * m).reshape(m, m)
    return RegimePath(jump_times=jt, states=st + 1, jump_counts=counts, horizon=float(horizon))


def regimes_on_grid(jump_times, states, grid) -> np.ndarray:
    """Sample a piecewise-constant regime path at grid times (0-based states in, same out)."""
    idx = np.searchsorted(jump_times, grid, side="right") - 1
    return np.asarray(states)[idx]


def _mean_se(vals: np.ndarray):
    """Sample mean and standard error (ddof=1); ValueError if either overflows."""
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.shape[0]))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise ValueError(f"sample statistics are not finite (mean {mean}, "
                         f"standard error {se})")
    return mean, se


def _functional_args(gen: Generator, r: float, g) -> np.ndarray:
    """Check a discount rate and regime functional; return g as a float array."""
    if not (r > 0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")
    g = np.asarray(g, dtype=float)
    if g.shape != (gen.m,):
        raise ValueError(f"g must have length m={gen.m}")
    if not np.all(np.isfinite(g)):
        raise ValueError("g must be finite")
    return g


def discounted_resolvent(gen: Generator, r: float, g) -> np.ndarray:
    """Solve (r I - Q) w = g for the discounted regime functional w.

    With the Generator's nonnegative rates, r I - Q is strictly diagonally
    dominant for r > 0, hence invertible; the
    dense LU factorization with partial pivoting is numerically safe here.
    Raises ValueError unless r is positive and finite and g finite.
    """
    g = _functional_args(gen, r, g)
    a = r * np.eye(gen.m) - gen.q
    return np.linalg.solve(a, g)


def discounted_functional_mc(gen: Generator, r: float, g, i0: int,
                             horizon: float, n_paths: int, seed: int):
    """Monte Carlo estimate of E integral_0^horizon e^{-rt} g(alpha_t) dt.

    The integral is evaluated exactly on each constant segment of each path,
    so the only error sources are statistics and the horizon truncation.
    Path k draws from the stream derived from (seed, k).  Returns
    (mean, std_error) with the sample standard deviation using ddof=1, so
    n_paths must be at least 2.  Raises ValueError, before any walk, unless
    r is positive and finite and g finite, and as _walks does.

    A run expecting at least 2 x _SHARE_JUMPS jumps, counting _PATH_JUMPS
    more for each path, splits its paths into
    contiguous shares, one per usable CPU (see _pool._workers): this process
    walks the first and a worker process each other one.  The per-path
    values land in global path order before the one reduction, so the result
    is bitwise equal for any worker count.
    """
    g = _functional_args(gen, r, g)
    if n_paths < 2:
        raise ValueError("discounted_functional_mc needs n_paths >= 2")
    _walks(gen, i0, horizon, ())  # its checks, before any walk or worker
    jumps = n_paths * (horizon * float(np.max(-np.diag(gen.q))) + _PATH_JUMPS)
    shares = min(_pool._workers(jumps, _SHARE_JUMPS), n_paths)
    cuts = [n_paths * s // shares for s in range(shares + 1)]
    args = [(gen, r, g, i0, horizon, seed, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    return _mean_se(np.concatenate(list(_pool.run(__name__, "_functional_share", args))))


def _functional_share(gen: Generator, r: float, g: np.ndarray, i0: int, horizon: float,
                      seed: int, lo: int, hi: int) -> np.ndarray:
    """discounted_functional_mc's per-path values for paths lo..hi-1.

    Path k's value is g(states) @ (disc[:-1] - disc[1:]) / r, with disc
    e^{-r t} at its jump times and then at the horizon.
    """
    vals = np.empty(hi - lo)
    for path, t, st in _walks(gen, i0, horizon, ([seed, k] for k in range(lo, hi))):
        starts = np.flatnonzero(np.r_[True, path[1:] != path[:-1]])
        ends = np.append(starts[1:], t.size)
        disc = np.insert(t, ends, horizon)  # each path's times, then the horizon
        np.exp(np.multiply(disc, -r, out=disc), out=disc)
        step = disc[:-1] - disc[1:]
        gs = g[st]
        for j, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
            vals[path[a]] = gs[a:b] @ step[a + j:b + j] / r
    return vals

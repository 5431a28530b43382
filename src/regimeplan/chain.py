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
and float operations as adding one holding time per jump.  A block of one
path, as every simulate_chain call and every path whose horizon x top
exit rate passes _WALK_JUMPS / 2 walks, does the same on 1-D arrays
(_path_walk), where little more than the draws and the picks are left.
Each path owns its stream, so a path's jumps do not depend on the block it
walks in.  The tables are built once per generator and process and kept in
a small cache keyed by the generator's rates.  discounted_functional_mc
runs its paths in shares through _pool.map_paths and reduces the per-path
values in global path order, so its result does not depend on the worker
count.  regimes_on_grid samples a path at grid times by merging its jump
times into the grid: an interpolation search, verified on both sides of
each jump and backed by a binary search, finds each jump's first grid
time, exactly for any nondecreasing grid.
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
# fewest expected jumps a share needs to pay for a new worker: on a 2-core VM
# a worker took 0.24-0.35 s to start and 2^21 jumps 0.15-0.70 s to walk and
# integrate (m = 2 to 8 regimes, paths of 4096 down to 64 jumps; 0.48-0.97 s
# with bisect picks)
_SHARE_JUMPS = 1 << 21
# fewest expected jumps a share needs to pay for an idle worker's round trip:
# on a 2-core VM two warm shares beat one from 3.5e4-1.4e5 jumps, _PATH_JUMPS
# a path counted (m = 8, T = 3: 3.0 against 4.5 ms at 3.5e4; m = 2, T = 10:
# 9.0 against 16.2 ms at 1.4e5, and 3.2 against 2.5 ms lost at 3.4e4)
_WARM_JUMPS = 1 << 16
# a path's own cost in jumps: on a 2-core VM a path took 14-15 us for its
# generator and draw calls, and a jump 52-110 ns to walk in paths of 512 to
# 8192 jumps (m = 2 to 8)
_PATH_JUMPS = 1 << 8
_KEEP_BUDGET = 1 << 30  # bytes a run may retain, here and in sde
_VALUE_BYTES = 16  # bytes per path of per-path results: a share's and the gathered copy
_KEY_ENTRIES = 1 << 16  # most next-state table entries, m x |B| (see _key_table)
_KEY_CELLS = 1 << 13  # most key grid cells (see _key_table)
_TABLES_KEPT = 8  # most generators whose jump tables _walks keeps (see _cached_tables)
_TABLES: dict = {}  # gen.q.tobytes() -> _jump_tables(gen), oldest first

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
    cells over [0, 1), 16-32 cells per entry of B and at most _KEY_CELLS
    (so cell stays within the 64 KiB that 4-8 cells per entry reached at
    most; the generator cache holds 8 of them): cell[c] = #(B < c / G) for
    the cell holding u, then at most per_cell steps of k += B[k] < u,
    per_cell being the most entries of B below 1 in one cell (1 or 2 on
    dense 8-regime chains, where 4-8 cells per entry gave 1 to 4).  u x G
    is exact, so its floor is u's cell.  B ends with 1 > u, so no key runs
    past it.
    Returns (G, cell, B, per_cell, next), or None where m x |B| exceeds
    _KEY_ENTRIES: the table grows as m^3 for a dense generator, and those
    chains bisect.
    """
    b = np.array(sorted(set().union(*cums)))
    if len(cums) * b.size > _KEY_ENTRIES:
        return None
    nxt = [np.take(tg, np.searchsorted(cu, b)).tolist() for cu, tg in zip(cums, targets)]
    grid = min(1 << (b.size.bit_length() + 4), _KEY_CELLS)
    cell = np.searchsorted(b, np.arange(grid) / grid)
    per_cell = int(np.bincount((b[:-1] * grid).astype(np.intp), minlength=1).max())
    return grid, cell, b, per_cell, nxt


def _cached_tables(gen: Generator):
    """_jump_tables(gen), built once per generator and process.

    The cache is keyed by the bytes of gen.q, which also fix m, so an equal
    generator shares the tables and a different one never reads them.  It
    holds at most _TABLES_KEPT generators and drops the oldest first.
    """
    key = gen.q.tobytes()
    tables = _TABLES.get(key)
    if tables is None:
        if len(_TABLES) >= _TABLES_KEPT:
            _TABLES.pop(next(iter(_TABLES)))
        tables = _TABLES[key] = _jump_tables(gen)
    return tables


def _keys(keys, u):
    """Each uniform's key #(B < u) (see _key_table): bytes while |B| <= 256, else a list.

    Either way, indexing or iterating it gives Python ints.
    """
    grid, cell, b, per_cell, _ = keys
    k = cell[(u * grid).astype(np.intp)]
    for _ in range(per_cell):
        k += b[k] < u
    return k.astype(np.uint8).tobytes() if b.size <= 256 else k.tolist()


def _chunks(size, want):
    """A round's chunk sizes and the next round's first: consecutive chunks
    from size on, doubling up to 8192, until they hold want draws (at
    least one chunk)."""
    chunks = []
    while not chunks or sum(chunks) < want:
        chunks.append(size)
        size = min(2 * size, 8192)
    return chunks, size


def _block_walk(tables, i0, horizon, streams):
    """Jump-chain walk from 0-based state i0 to the horizon, one path per stream seed.

    tables is _jump_tables' result.  Returns flat (path, time, state)
    arrays, path after path and each path in time order: its start (time 0,
    state i0), then one entry per jump with the state entered.  Path k
    draws from default_rng(streams[k]), in chunks of 64, 128, ..., 8192
    exponentials each followed by as many uniforms; draws left over at the
    horizon are discarded.  A block of one path is _path_walk's.

    The live paths walk in rounds.  A round draws consecutive chunks until
    it holds min(horizon x mean exit rate over the states, _WALK_JUMPS)
    draws per path, at least one chunk: about every draw a path will use,
    so most paths end in their first round.  Each next state is the first
    cumulative entry >= the uniform.  Since no state is left faster than
    the top rate, a cumulative sum at that rate bounds the jump times from
    below, and picking stops where it reaches the horizon.  numpy turns the
    picked uniforms into keys, so Python only looks each next state up in
    _key_table's table; a chain too large for that table bisects each
    state's cumulative entries instead.  Up to 256 states the picked states
    leave Python as bytes, which numpy reads faster than a list of ints.
    Where every state has one target and the block holds at least m paths,
    a table of each state's next states (no larger than the block's draws)
    stands in for the picks.
    numpy sums the holding times as cumsum(E / rate of the state left) with
    the current time added to the first term: the float operations, in
    order, of adding one holding time at a time.  An absorbing state's zero
    rate makes every later time infinite, which cuts its path there.
    """
    if len(streams) == 1:
        return _path_walk(tables, i0, horizon, np.random.default_rng(streams[0]))
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
        chunks, size = _chunks(size, want)
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
            entered[picked] = np.frombuffer(bytearray(nxt), np.uint8) if m <= 256 else nxt
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


def _path_walk(tables, i0, horizon, rng):
    """_block_walk's walk of a block of one path, drawing from rng.

    The same rounds, draws, picks and float operations on 1-D arrays.  The
    horizon bound is one cumulative sum and a searchsorted, taken only where
    the round's exponentials at the top rate could reach the horizon: else
    every draw is picked, and picking more than the jumps kept changes
    nothing.  The keys come from the round's first picks uniforms, and the
    picked states stay uint8 up to 256 states.  Only the picked jumps get
    holding times, since the bound puts every later one at or past the
    horizon, and a searchsorted of their times cuts the path there.  Its
    entries are in order, so no sort follows.
    """
    rates, cums, targets, keys = tables
    rate = np.array(rates)
    top = max(rates)
    times, states = [np.zeros(1)], [np.full(1, i0)]
    t, s = 0.0, i0
    size = 64  # the next chunk's
    want = min(horizon * sum(rates) / len(rates), _WALK_JUMPS)
    while rates[s] > 0.0:
        chunks, size = _chunks(size, want)
        cols = sum(chunks)
        e = np.empty(cols)
        u = np.empty(cols)
        a = 0
        for c in chunks:
            rng.standard_exponential(out=e[a:a + c])
            rng.random(out=u[a:a + c])
            a += c
        picks = cols  # any picks at least the jumps kept is exact
        if t + e.sum() / top >= horizon:  # the bound may cut the round short
            bound = np.divide(e, top)
            bound[0] += t
            picks = int(np.cumsum(bound, out=bound).searchsorted(horizon))
            if not picks:
                break
        hold = np.empty(picks)  # the rate of the state each jump leaves
        hold[0] = rates[s]
        if keys is not None:
            table = keys[-1]
            nxt = [s := table[s][k] for k in _keys(keys, u[:picks])]
        else:
            nxt = [s := targets[s][bisect_left(cums[s], x)] for x in u[:picks].tolist()]
        entered = np.frombuffer(bytearray(nxt), np.uint8) if len(rates) <= 256 else np.array(nxt)
        np.take(rate, entered[:-1], out=hold[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(e[:picks], hold, out=hold)  # the holding times, then the jump times
        hold[0] += t
        np.cumsum(hold, out=hold)
        kept = int(hold.searchsorted(horizon))  # NaN, after an absorbing state, sorts last
        times.append(hold[:kept])
        states.append(entered[:kept])
        if kept < cols:
            break
        t = hold[-1]
    times, states = np.concatenate(times), np.concatenate(states)
    return np.zeros(times.size, np.intp), times, states


def _walks(gen: Generator, i0: int, horizon: float, streams):
    """_block_walk from 1-based i0 over the stream seeds, in blocks.

    Returns an iterator of one (path, time, state) triple per block of
    paths, with paths numbered in stream order and 0-based states.  A block
    expects about _WALK_JUMPS jumps (and holds at least one path), so a
    round's arrays stay near 2^14 path x draw entries (128 KiB each; blocks
    twice as large raised a process's peak RSS by 2 MB for no speed).
    Raises ValueError, before any walk, unless i0 is an integer in 1..m,
    the horizon is positive and finite, and horizon x largest exit rate
    <= _BLOCK_JUMPS.
    The jump tables come from _cached_tables when the first block is
    walked, so a call made only for these checks builds none, and a later
    call on an equal generator reuses them.
    """
    _require_int("i0", i0)
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
            tables = tables or _cached_tables(gen)
            path, t, st = _block_walk(tables, i0 - 1, horizon, block)
            yield path + first, t, st
            first += len(block)

    return blocks()


def simulate_chain(gen: Generator, i0: int, horizon: float, seed) -> RegimePath:
    """Simulate one statistically exact chain path.

    seed is an int >= 0 or a non-empty sequence of them, as numpy's
    default_rng takes it; anything else, a bool included, raises ValueError.
    Deterministic given (gen, i0, horizon, seed), i0 1-based; ValueError as _walks.
    """
    parts = list(seed) if isinstance(seed, (list, tuple, np.ndarray)) else [seed]
    if not parts:
        raise ValueError("seed must not be empty")
    for s in parts:
        _require_int("seed", s)
        if s < 0:
            raise ValueError("seed must be nonnegative")
    ((_, jt, st),) = _walks(gen, i0, horizon, [seed])
    m = gen.m
    counts = np.bincount(st[:-1] * m + st[1:], minlength=m * m).reshape(m, m)
    return RegimePath(jump_times=jt, states=st + 1, jump_counts=counts, horizon=float(horizon))


def regimes_on_grid(jump_times, states, grid) -> np.ndarray:
    """Sample a piecewise-constant regime path at the times of a 1-D grid.

    states[j] holds on [jump_times[j], jump_times[j + 1]); the result has
    states' values and dtype, one per grid time.  Raises ValueError, before
    any search, for jump times that are empty, not finite, decreasing or
    of another length than states, and for a grid that is not 1-D,
    decreases anywhere, starts before jump_times[0] or holds a NaN.  The jump times are merged
    into the grid: _first_nodes finds each jump's first grid time at or
    after it, then each state is repeated over the grid times up to the
    next jump, O(J + G) for J jumps and G grid times on an even grid.
    """
    jt, states, grid = np.asarray(jump_times), np.asarray(states), np.asarray(grid)
    if jt.ndim != 1 or not jt.size:
        raise ValueError("jump_times must be a nonempty 1-D array")
    if states.shape != jt.shape:
        raise ValueError(f"states must have as many entries as jump_times ({jt.size})")
    if not np.isfinite(jt).all():
        raise ValueError("jump times must be finite")
    if not np.all(jt[1:] >= jt[:-1]):
        raise ValueError("jump times must not decrease")
    if grid.ndim != 1:
        raise ValueError("grid must be a 1-D array")
    if not np.all(grid[1:] >= grid[:-1]):
        raise ValueError("grid times must be nondecreasing")
    if grid.size and not grid[0] >= jt[0]:
        raise ValueError("grid starts before the path's first time")
    first = _first_nodes(grid, jt)
    return np.repeat(states, np.diff(first, append=grid.size))


def _first_nodes(grid, x):
    """np.searchsorted(grid, x), #(grid < x) for each x, by interpolation search.

    grid is nondecreasing and x finite.  The guess for x's first node is 1
    + the node below x on a straight line through the grid's end points,
    moved one node down where that node is not below x.  A guess i + 1 is
    kept where both neighbours verify it, grid[i] < x <= grid[i + 1], which
    for a nondecreasing grid makes it exact; the rest go to searchsorted:
    x at or before the first node, past the last, or off the line by more
    than a node, as on an uneven grid.  A grid of fewer than two nodes, or
    one whose end points are equal or span more than a float, is searched.
    """
    n = grid.size
    span = float(grid[-1]) - float(grid[0]) if n > 1 else 0.0
    scale = (n - 1) / span if 0.0 < span < math.inf else math.inf
    if scale == math.inf:
        return np.searchsorted(grid, x)
    with np.errstate(over="ignore"):
        guess = np.subtract(x, float(grid[0])) * scale  # may overflow to inf, never NaN
    i = np.clip(guess, 0.0, n - 2, out=guess).astype(np.intp)
    i -= grid[i] >= x  # -1 where x is at or before the first node, and then fails below
    ok = (grid[i] < x) & (grid[i + 1] >= x)
    i += 1
    if not ok.all():
        bad = ~ok
        i[bad] = np.searchsorted(grid, x[bad])
    return i


def _mean_se(vals: np.ndarray):
    """Sample mean and standard error (ddof=1); ValueError if either overflows."""
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.shape[0]))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise ValueError(f"sample statistics are not finite (mean {mean}, "
                         f"standard error {se})")
    return mean, se


def _require_int(name: str, value) -> None:
    """ValueError unless value is a Python or numpy integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")


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
    dominant for r > 0, hence invertible, and the dense LU factorization
    with partial pivoting is backward stable: its residual is small
    normwise.  The entries of w lose relative accuracy in proportion to
    lambda / r on a generator scaled by lambda: for a 3-regime chain at
    r = 0.05 and lambda = 1e8, w was off by 8.7e-8 relative to a 60-digit
    solve.  ROADMAP.md item 8 (cancellation-free M-matrix solves) is the
    open fix.
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
    n_paths must be at least 2.  The paths run through _pool.map_paths, a
    path worth its expected jumps plus _PATH_JUMPS, at _SHARE_JUMPS or
    _WARM_JUMPS a share.  Raises ValueError, before any walk or worker,
    unless r is positive and finite, g finite and n_paths and seed integers
    (seed nonnegative), for per-path values (_VALUE_BYTES a path) over
    _KEEP_BUDGET bytes, and as _walks does.
    """
    g = _functional_args(gen, r, g)
    _require_int("n_paths", n_paths)
    _require_int("seed", seed)
    if n_paths < 2:
        raise ValueError("discounted_functional_mc needs n_paths >= 2")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    _walks(gen, i0, horizon, ())  # its checks, before any walk or worker
    held = n_paths * _VALUE_BYTES
    if held > _KEEP_BUDGET:
        raise ValueError(f"the run would hold {held / 2**30:.3g} GiB of per-path values, over "
                         f"the {_KEEP_BUDGET / 2**30:g} GiB budget; use fewer paths")
    per_path = horizon * float(np.max(-np.diag(gen.q))) + _PATH_JUMPS
    (vals,) = _pool.map_paths(__name__, "_functional_share", (gen, r, g, i0, horizon, seed),
                              n_paths, per_path, _SHARE_JUMPS, _WARM_JUMPS)
    return _mean_se(vals)


def _functional_share(gen: Generator, r: float, g: np.ndarray, i0: int, horizon: float,
                      seed: int, lo: int, hi: int) -> tuple:
    """discounted_functional_mc's per-path values for paths lo..hi-1, as a 1-tuple.

    Path k's value is g(states) @ (disc[:-1] - disc[1:]) / r, with disc
    e^{-r t} at its jump times and then at the horizon.  A block of one
    path appends the horizon to its times, so its reduction is that dot
    product alone; a wider block inserts the horizon after each path.
    """
    vals = np.empty(hi - lo)
    for path, t, st in _walks(gen, i0, horizon, ([seed, k] for k in range(lo, hi))):
        if path[0] == path[-1]:  # one path
            starts, ends = [0], [t.size]
            disc = np.append(t, horizon)
        else:
            starts = np.flatnonzero(np.r_[True, path[1:] != path[:-1]])
            ends = np.append(starts[1:], t.size)
            disc = np.insert(t, ends, horizon)  # each path's times, then the horizon
            starts, ends = starts.tolist(), ends.tolist()
        np.exp(np.multiply(disc, -r, out=disc), out=disc)
        step = disc[:-1] - disc[1:]
        gs = g[st]
        for j, (a, b) in enumerate(zip(starts, ends)):
            vals[path[a]] = gs[a:b] @ step[a + j:b + j] / r
    return (vals,)

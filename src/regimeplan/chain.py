"""Exact simulation of the driving Markov chain and discounted regime functionals.

Paths are generated with the embedded-jump-chain method: the holding time in
state i is exponential with rate -q_ii and the next state is j with
probability q_ij / (-q_ii).  Discounted expectations of regime functionals,

    w(i) = E[ integral_0^inf e^{-rt} g(alpha_t) dt | alpha_0 = i ],

solve the strictly diagonally dominant linear system (r I - Q) w = g, which
is used as the analytic route; a path-wise Monte Carlo estimator over exact
jump segments provides the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Generator

_BLOCK_JUMPS = 1 << 20  # most expected jumps on one path; sde sizes its blocks by it

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
    """Per-state exit rates and cumulative next-state distributions as plain lists."""
    q, m = gen.q, gen.m
    rates = [float(-q[i, i]) for i in range(m)]
    cums, targets = [], []
    for i in range(m):
        entries = [(float(q[i, j]), j) for j in range(m) if j != i and q[i, j] > 0.0]
        total = sum(w for w, _ in entries)
        acc = 0.0
        cu, tg = [], []
        for w, j in entries:
            acc += w
            cu.append(acc / total)
            tg.append(j)
        if cu:
            cu[-1] = 1.0  # guard against rounding in the last cumulative weight
        cums.append(cu)
        targets.append(tg)
    return rates, cums, targets


def _walk(rates, cums, targets, i0, horizon, rng):
    """Jump-chain walk from 0-based state i0; returns (jump_times, states) lists.

    Draws come in geometrically growing chunks from `rng` so that long paths
    amortize generator overhead; unused draws are discarded (each path owns
    its stream, so this wastes nothing shared).
    """
    t = 0.0
    s = i0
    jt = [0.0]
    st = [s]
    expo: list = []
    unif: list = []
    k = 0
    size = 0
    while True:
        rate = rates[s]
        if rate <= 0.0:
            break  # absorbing state: the path simply stops jumping
        if k >= size:
            size = 64 if size == 0 else min(size * 2, 8192)
            expo = rng.standard_exponential(size).tolist()
            unif = rng.random(size).tolist()
            k = 0
        t += expo[k] / rate
        u = unif[k]
        k += 1
        if t >= horizon:
            break
        cu = cums[s]
        j = 0
        while u > cu[j]:
            j += 1
        nxt = targets[s][j]
        jt.append(t)
        st.append(nxt)
        s = nxt
    return jt, st


def _walks(gen: Generator, i0: int, horizon: float, streams):
    """One _walk from 1-based i0 per stream seed, each on its own default_rng.

    Raises ValueError, before any walk, unless i0 is in 1..m, the horizon is
    positive and finite, and horizon x largest exit rate <= _BLOCK_JUMPS.
    """
    if not 1 <= i0 <= gen.m:
        raise ValueError(f"i0 must be in 1..{gen.m}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    rates, cums, targets = _jump_tables(gen)
    if horizon * max(rates) > _BLOCK_JUMPS:
        raise ValueError(f"a path expects {horizon * max(rates):.3g} regime jumps, over the "
                         f"{_BLOCK_JUMPS} budget; shorten the horizon or slow the chain")
    return (_walk(rates, cums, targets, i0 - 1, horizon, np.random.default_rng(key))
            for key in streams)


def simulate_chain(gen: Generator, i0: int, horizon: float, seed: int) -> RegimePath:
    """Simulate one statistically exact chain path.

    Deterministic given (gen, i0, horizon, seed), i0 1-based; ValueError as _walks.
    """
    ((jt, st),) = _walks(gen, i0, horizon, [seed])
    st = np.asarray(st, dtype=np.int64)
    counts = np.zeros((gen.m, gen.m), dtype=np.int64)
    np.add.at(counts, (st[:-1], st[1:]), 1)
    return RegimePath(
        jump_times=np.asarray(jt, dtype=float),
        states=st + 1,
        jump_counts=counts,
        horizon=float(horizon),
    )


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
    n_paths must be at least 2.  Raises ValueError unless r is positive and
    finite and g finite, and as _walks does.
    """
    g = _functional_args(gen, r, g)
    if n_paths < 2:
        raise ValueError("discounted_functional_mc needs n_paths >= 2")
    vals = []
    for jt, st in _walks(gen, i0, horizon, ([seed, k] for k in range(n_paths))):
        disc = np.exp(-r * np.append(jt, horizon))
        vals.append(g[st] @ (disc[:-1] - disc[1:]) / r)
    return _mean_se(np.array(vals))

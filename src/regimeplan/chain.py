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

    def state_at(self, t):
        """Regime occupied at time t (vectorized; jumps take effect at the jump time)."""
        idx = np.searchsorted(self.jump_times, t, side="right") - 1
        return self.states[idx]


def _jump_tables(gen: Generator):
    """Per-state exit rates and cumulative next-state distributions as plain lists."""
    q = gen.q
    m = q.shape[0]
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


def _walk(rates, cums, targets, i0, horizon, rng, counts=None):
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
        if counts is not None:
            counts[s][nxt] += 1
        jt.append(t)
        st.append(nxt)
        s = nxt
    return jt, st


def simulate_chain(gen: Generator, i0: int, horizon: float, seed: int) -> RegimePath:
    """Simulate one statistically exact chain path.

    Deterministic given (gen, i0, horizon, seed).  i0 is 1-based.
    """
    if not 1 <= i0 <= gen.m:
        raise ValueError(f"i0 must be in 1..{gen.m}")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    rates, cums, targets = _jump_tables(gen)
    counts = [[0] * gen.m for _ in range(gen.m)]
    jt, st = _walk(rates, cums, targets, i0 - 1, horizon, rng, counts)
    return RegimePath(
        jump_times=np.asarray(jt, dtype=float),
        states=np.asarray(st, dtype=np.int64) + 1,
        jump_counts=np.asarray(counts, dtype=np.int64),
        horizon=float(horizon),
    )


def regimes_on_grid(jump_times, states, grid) -> np.ndarray:
    """Sample a piecewise-constant regime path at grid times (0-based states in, same out)."""
    idx = np.searchsorted(jump_times, grid, side="right") - 1
    return np.asarray(states)[idx]


def discounted_resolvent(gen: Generator, r: float, g) -> np.ndarray:
    """Solve (r I - Q) w = g for the discounted regime functional w.

    r I - Q is strictly diagonally dominant for r > 0, hence invertible; the
    dense LU factorization with partial pivoting is numerically safe here.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    g = np.asarray(g, dtype=float)
    if g.shape != (gen.m,):
        raise ValueError(f"g must have length m={gen.m}")
    a = r * np.eye(gen.m) - gen.q
    return np.linalg.solve(a, g)


def discounted_functional_mc(gen: Generator, r: float, g, i0: int,
                             horizon: float, n_paths: int, seed: int):
    """Monte Carlo estimate of E integral_0^horizon e^{-rt} g(alpha_t) dt.

    The integral is evaluated exactly on each constant segment of each path,
    so the only error sources are statistics and the horizon truncation.
    Path k draws from the stream derived from (seed, k).  Returns
    (mean, std_error) with the sample standard deviation using ddof=1.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if not 1 <= i0 <= gen.m:
        raise ValueError(f"i0 must be in 1..{gen.m}")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    g = np.asarray(g, dtype=float)
    if g.shape != (gen.m,):
        raise ValueError(f"g must have length m={gen.m}")
    rates, cums, targets = _jump_tables(gen)
    vals = np.empty(n_paths)
    for kpath in range(n_paths):
        rng = np.random.default_rng([seed, kpath])
        jt, st = _walk(rates, cums, targets, i0 - 1, horizon, rng)
        disc = np.exp(-r * np.append(jt, horizon))
        vals[kpath] = g[st] @ (disc[:-1] - disc[1:]) / r
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return mean, se


"""Closed-loop simulation and Monte Carlo cost verification.

Under a feedback control u the inventory follows

    dX_t = (u(X_t, a_t, t) - theta(a_t)) dt + sigma(a_t) dW_t,

with a_t the exactly simulated switching process (module chain).  Paths are
advanced by Euler-Maruyama on a uniform grid; the regime is held at its value
at the left endpoint of each step (exact jump times are available separately
for diagnostics, the scheme does not sub-step at jumps since its weak order
is O(dt) regardless).  The running discounted cost

    int_0^t e^{-rs} (1/2)[N(a_s)(X_s - c(a_s))^2 + R(a_s)(u_s - h(a_s))^2] ds

is accumulated by the trapezoidal rule, matching the scheme's order, with
the trapezoid and the discount folded into node weights dt e^{-r t_k},
halved at both ends.

The engine takes affine laws u = s_i x + k_i only (PolicyCoefficients, which
the optimal feedback and shifted_policy are).  Each folds into constant
per-regime tables: the step is x <- A_i x + B_i + sigma_i dW and the
integrand alpha_i (x - xstar_i)^2 + gamma_i with alpha_i, gamma_i >= 0, so
no policy is called per step.  Each path keeps its current table entries and
changes them only at its regime jumps, so there is no per-step regime lookup
either.

Every path owns fixed random streams keyed by (seed, path index), with the
regime path drawn from one substream and the normals from another.  Paths
run in blocks of _BLOCK and time in chunks of _CHUNK grid nodes.  As the
chain walk yields a block's paths, their jumps are cut to events: each
path's last jump before a grid node, at the first node at or after it, in
the narrowest unsigned dtypes the node count, block width and m allow (5
bytes an event on the benchmark, about three times that while they are
sorted by node).  The normals are drawn _CHUNK at a time per path (equal,
bit for bit, to one full draw), 64 paths at a time, and turned time-major.
A block's working set is thus its (_CHUNK x width) float increments (8 MiB
at full width), its events and a few floats per path: a 2048-path block at
T = 200 and dt = 0.01 traces at 15 MiB.  A block holds all its paths'
events, so it narrows below _BLOCK paths where horizon x (largest exit
rate) would bring more than chain._BLOCK_JUMPS expected jumps, and the
chain walk refuses a path that alone expects more; past one block, memory
grows by one float per path.  The engine keeps per-path reductions and, at
the grid nodes a caller lists and within chain._KEEP_BUDGET bytes, every
path's state, regime and running cost: asymptotic_decay lists its
checkpoints and takes both X and Y = phi(a) X + psi(a) there, and
simulate_controlled lists every node and derives u through the law, so kept
paths take the same step and the same quadrature as the estimates.  Every
per-path operation is elementwise and runs in grid order, and all reductions run over arrays in
global path order, so a given SimConfig produces bit-identical results
whatever the block, chunk and share sizes.  A run's paths go to worker
processes in shares (_pool.map_paths, at _SHARE_WORK or _WARM_WORK
path-steps a share).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _pool, chain
from .model import ModelParams
from .policy import PolicyCoefficients, policy_coefficients
from .riccati import RiccatiSolution

__all__ = [
    "SimConfig",
    "ControlledPath",
    "MCEstimate",
    "simulate_controlled",
    "mc_cost",
    "asymptotic_decay",
    "adjoint_residual",
    "shifted_policy",
]

_BLOCK = 2048  # most paths per vectorized block
_CHUNK = 512   # grid nodes per time chunk; with _BLOCK bounds transient memory
_KEPT_PER_NODE = 32     # bytes per path and node: x, regime, cost and a derived u
# fewest path-steps a share needs to pay for a new worker: on a 2-core VM a
# worker took 0.24-0.35 s to start, mostly numpy's import
_SHARE_WORK = 1 << 23
# fewest path-steps a share needs to pay for an idle worker's round trip
# (0.2-0.3 ms).  Every share pays Python time per node, so on a 2-core VM two
# warm shares beat one from about 1.3e5 path-steps at 10^3 steps a path
# (512 x 10^3: 22 against 33 ms), but only from about 1.3e6 at 10^4 steps
# (512 x 10^4: 166 against 227 ms; 32 x 10^4 lost, 93 against 80 ms)
_WARM_WORK = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: grid step, horizon, path count, seed, start point."""

    dt: float
    horizon: float
    n_paths: int
    seed: int
    x0: float
    i0: int

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.horizon >= self.dt and math.isfinite(self.horizon)):
            raise ValueError("horizon must be finite and at least dt")
        if not self.horizon / self.dt < 2.0 ** 53:  # float64's exact-integer limit
            raise ValueError("horizon / dt must be below 2**53 steps")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        for name in ("n_paths", "seed", "i0"):
            chain._require_int(name, getattr(self, name))
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.i0 < 1:
            raise ValueError("i0 must be a 1-based regime index")

    @property
    def n_steps(self) -> int:
        """Euler step count; the horizon is rounded to a whole number of steps."""
        return max(1, int(round(self.horizon / self.dt)))

    def times(self) -> np.ndarray:
        """The grid 0, dt, ..., n_steps*dt."""
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True, eq=False)
class ControlledPath:
    """One simulated trajectory sampled on the grid.

    regime holds 1-based labels; disc_cost[k] is the trapezoidal running
    discounted cost over [0, times[k]], so disc_cost[0] = 0 and the sequence
    is nondecreasing (the integrand is nonnegative).
    """

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    regime: np.ndarray
    disc_cost: np.ndarray

    def __post_init__(self) -> None:
        n = self.times.shape[0]
        for name in ("x", "u", "regime", "disc_cost"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length differs from times")


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean, standard error and tail bound of a truncated cost estimate."""

    mean: float
    std_error: float
    n: int
    truncation_bound: float

    def __post_init__(self) -> None:
        if not self.std_error >= 0:
            raise ValueError("std_error must be nonnegative")
        if not self.truncation_bound >= 0:
            raise ValueError("truncation_bound must be nonnegative")
        if self.n < 1:
            raise ValueError("n must be positive")


def _ro(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _affine_tables(p: ModelParams, coeffs: PolicyCoefficients, dt: float) -> np.ndarray:
    """Per-regime rows A, B, sigma, xstar, alpha, gamma of an affine law u = s x + k.

    The Euler step becomes x <- A x + B + sigma dW with A = 1 + s dt and
    B = (k - theta) dt, and the running cost 1/2 [N (x - c)^2 + R (u - h)^2]
    becomes alpha (x - xstar)^2 + gamma with alpha = 1/2 (N + R s^2) and
    gamma = 1/2 N R (s c + k - h)^2 / (N + R s^2), both nonnegative.  Where
    N + R s^2 = 0 the cost does not depend on x.  Every law enters the engine
    here, so ValueError for coefficients of the wrong length or not finite,
    and for a law whose rows are not finite (N + R s^2 or gamma overflows).
    """
    s, k = coeffs.slope, coeffs.intercept
    if s.shape != (p.m,) or k.shape != (p.m,):
        raise ValueError(f"policy coefficients must have length m={p.m}")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(k))):
        raise ValueError("policy coefficients must be finite")
    curv = p.N + p.R * s * s
    flat = curv == 0.0
    den = np.where(flat, 1.0, curv)
    xstar = np.where(flat, 0.0, (p.N * p.c - p.R * s * (k - p.h)) / den)
    gamma = np.where(flat, 0.5 * (p.N * p.c ** 2 + p.R * (k - p.h) ** 2),
                     0.5 * p.N * p.R * (s * p.c + k - p.h) ** 2 / den)
    tables = np.array([1.0 + s * dt, (k - p.theta) * dt, p.sigma, xstar, 0.5 * curv, gamma])
    if not np.all(np.isfinite(tables)):
        raise ValueError("policy coefficients overflow the folded step or cost")
    return tables


def _jump_events(p: ModelParams, cfg: SimConfig, lo: int, hi: int):
    """Regime changes of paths lo..hi-1 on the grid, sorted by node.

    Returns (node, path offset, new 0-based state) arrays, each in the
    narrowest unsigned integer dtype its bound allows (n_steps + 1,
    hi - lo - 1 and m - 1).  A jump at time t takes effect at the first grid
    node k with k dt >= t, as in chain.regimes_on_grid; when a path jumps
    more than once before the next node only its last state is kept.  Each
    block the chain walk yields is cut to these kept events as it arrives,
    so the paths' whole walk is never held at once; one stable sort then
    orders them by node, each node's events in path order.
    """
    n, dt = cfg.n_steps, cfg.dt
    types = [np.min_scalar_type(bound) for bound in (n + 1, hi - lo - 1, p.m - 1)]
    parts = []
    for path, t, state in chain._walks(p.gen, cfg.i0, n * dt,
                                       ([cfg.seed, k, 0] for k in range(lo, hi))):
        jump = np.r_[False, path[1:] == path[:-1]]  # all but each path's start
        path, t, state = path[jump], t[jump], state[jump]
        # grid node k sits at k * dt exactly; t / dt may round across a node
        node = np.ceil(t / dt)
        node += node * dt < t
        node -= (node - 1.0) * dt >= t
        # a path's jumps come in time order, so its last one before a node ends a run
        last = np.ones(node.shape[0], dtype=bool)
        last[:-1] = (node[1:] != node[:-1]) | (path[1:] != path[:-1])
        parts.append(tuple(a[last].astype(ty) for a, ty in zip((node, path, state), types)))
    node, path, state = (np.concatenate(a) for a in zip(*parts))
    del parts
    order = np.argsort(node, kind="stable")  # keeps each node's events in path order
    return node[order], path[order], state[order]


def _require_finite(costs: np.ndarray) -> None:
    """Turn an overflowed cost, computed with numpy's warnings off, into ValueError."""
    bad = ~np.isfinite(costs)
    if bad.any():
        raise ValueError(f"discounted cost is not finite ({costs[bad][0]}) on "
                         f"{int(bad.sum())} of {costs.size} paths; the start point "
                         "or the cost scale overflows")


@np.errstate(over="ignore", invalid="ignore")
def _run(p: ModelParams, coeffs: PolicyCoefficients, cfg: SimConfig, record=()) -> tuple:
    """Drive all paths through the Euler scheme in shares, path blocks and time chunks.

    coeffs is the affine law, folded into _affine_tables' rows; this returns
    _share's results over all paths.  Raises ValueError before any walk or
    worker as _affine_tables does, and for a record and per-path costs and
    tails (2 x chain._VALUE_BYTES a path) over chain._KEEP_BUDGET bytes, a
    start regime outside 1..m or a path the chain walk's budget refuses; and
    after all shares for a non-finite cost.
    """
    if not p.r > 0:
        raise ValueError("r not positive")
    n_paths = cfg.n_paths
    n = cfg.n_steps
    tables = _affine_tables(p, coeffs, cfg.dt)
    kept = n_paths * (len(record) * _KEPT_PER_NODE + 2 * chain._VALUE_BYTES)
    if kept > chain._KEEP_BUDGET:
        raise ValueError(f"simulation would retain {kept / 2**30:.3g} GiB of paths, over the "
                         f"{chain._KEEP_BUDGET / 2**30:g} GiB budget; use fewer paths or nodes")
    chain._walks(p.gen, cfg.i0, n * cfg.dt, ())  # its checks, before any walk or worker
    jumps = n * cfg.dt * float(np.max(-np.diag(p.gen.q)))
    width = min(_BLOCK, n_paths, max(1, int(chain._BLOCK_JUMPS / max(jumps, 1.0))))
    args = (p, tables, cfg, width, _CHUNK, record)
    out = _pool.map_paths(__name__, "_share", args, n_paths, n, _SHARE_WORK, _WARM_WORK)
    _require_finite(out[0])
    return out


@np.errstate(over="ignore", invalid="ignore")
def _share(p: ModelParams, tables: np.ndarray, cfg: SimConfig, width: int, chunk: int,
           record, lo: int, hi: int):
    """Paths lo..hi-1 in blocks of `width` paths and chunks of `chunk` nodes.

    tables are _affine_tables' per-regime rows.  Returns the paths' costs,
    their largest undiscounted integrand over the last quarter of the grid,
    and (len(record), hi - lo) matrices of their states, 0-based regimes and
    running trapezoid costs (0 at node 0) at the distinct record nodes, in
    record's order.
    """
    n_paths = hi - lo
    n = cfg.n_steps
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    r = float(p.r)
    i0 = cfg.i0 - 1
    tail_from = (3 * n) // 4
    rows = {int(k): j for j, k in enumerate(record)}
    rec_x = np.empty((len(rows), n_paths))
    rec_reg = np.empty((len(rows), n_paths), dtype=np.int64)
    rec_cost = np.empty((len(rows), n_paths))
    costs = np.empty(n_paths)
    tails = np.empty(n_paths)
    width = min(width, n_paths)
    tile = np.empty((64, chunk))
    dw_time = np.empty((chunk, width))
    for b0 in range(0, n_paths, width):
        b1 = min(b0 + width, n_paths)
        nb = b1 - b0
        ev_node, ev_path, ev_state = _jump_events(p, cfg, lo + b0, lo + b1)
        normals = [np.random.default_rng([cfg.seed, k, 1]) for k in range(lo + b0, lo + b1)]
        reg = np.full(nb, i0, dtype=np.intp)
        cur = np.repeat(tables[:, i0:i0 + 1], nb, axis=1)  # table rows per path
        a_, b_, sig, xstar, alpha, gamma = cur
        x = np.full(nb, float(cfg.x0))
        cost = np.zeros(nb)
        tail = np.zeros(nb)
        f = np.empty(nb)
        tmp = np.empty(nb)
        for c0 in range(0, n + 1, chunk):
            c1 = min(c0 + chunk, n + 1)
            steps = min(c1, n) - c0
            dw = dw_time[:steps, :nb]
            for j in range(0, nb, 64):  # 64 paths at a time, turned time-major
                zt = tile[:min(64, nb - j), :steps]
                for z, gen in zip(zt, normals[j:j + 64]):
                    gen.standard_normal(out=z)
                np.multiply(zt.T, sqrt_dt, out=dw[:, j:j + 64])
            bounds = np.searchsorted(ev_node, np.arange(c0, c1 + 1, dtype=ev_node.dtype))
            e_lo, e_hi = int(bounds[0]), int(bounds[-1])
            ch_path = ev_path[e_lo:e_hi].astype(np.intp)  # index arrays, once per chunk
            ch_state = ev_state[e_lo:e_hi].astype(np.intp)
            bounds = (bounds - e_lo).tolist()
            disc = np.exp(-r * (np.arange(c0, c1) * dt)).tolist()
            for t in range(c1 - c0):
                node = c0 + t
                e0, e1 = bounds[t], bounds[t + 1]
                if e0 < e1:
                    cols, new = ch_path[e0:e1], ch_state[e0:e1]
                    reg[cols] = new
                    cur[:, cols] = tables[:, new]
                np.subtract(x, xstar, out=f)
                np.multiply(f, f, out=f)
                np.multiply(f, alpha, out=f)
                np.add(f, gamma, out=f)
                if node >= tail_from:
                    np.maximum(tail, f, out=tail)
                j = rows.get(node)
                if j is not None:
                    rec_x[j, b0:b1] = x
                    rec_reg[j, b0:b1] = reg
                    # the sum so far plus this node's half weight, 0 at node 0
                    np.multiply(f, dt * disc[t] * 0.5 if node else 0.0, out=tmp)
                    np.add(cost, tmp, out=rec_cost[j, b0:b1])
                weight = dt * disc[t]  # trapezoid weight, halved at both ends
                if node == 0 or node == n:
                    weight *= 0.5
                np.multiply(f, weight, out=tmp)
                np.add(cost, tmp, out=cost)
                if node < n:
                    np.multiply(x, a_, out=x)
                    np.add(x, b_, out=x)
                    np.multiply(sig, dw[t], out=tmp)
                    np.add(x, tmp, out=x)
        costs[b0:b1] = cost
        tails[b0:b1] = tail
        del ev_node, ev_path, ev_state, ch_path, ch_state, normals  # before the next walk
    return costs, tails, rec_x, rec_reg, rec_cost


def simulate_controlled(p: ModelParams, sol: RiccatiSolution,
                        cfg: SimConfig) -> list:
    """Simulate cfg.n_paths closed-loop trajectories, one ControlledPath each.

    The paths take the optimal law u*(x, i) = -(phi(i) x + psi(i))/R(i) + h(i)
    through mc_cost's folded step, so the mean-reversion rate in regime i is
    phi(i)/R(i).  The engine records every state, regime and running cost,
    so a path's final disc_cost is its mc_cost sample bit for bit; u is
    derived afterwards by evaluating the law (PolicyCoefficients) on the
    recorded states.  Deterministic per (cfg.seed, path index): path k here
    equals path k of any run sharing the seed with n_paths > k.  The paths
    are read-only columns of four (node x path) matrices.

    Retains every grid value of every path, so _run refuses a request over
    chain._KEEP_BUDGET bytes; for large-sample estimates use mc_cost, which streams
    paths and keeps only reductions.  Raises ValueError as _run does.
    """
    law = policy_coefficients(sol, p)
    _, _, xs, regs, cost = _run(p, law, cfg, record=range(cfg.n_steps + 1))
    regs += 1  # 1-based labels, in place
    times = cfg.times()
    us = np.empty_like(xs)
    for c0 in range(0, cfg.n_steps + 1, _CHUNK):  # bounds the law's temporaries
        span = slice(c0, c0 + _CHUNK)
        us[span] = law(xs[span], regs[span], times[span, None])
    for a in (times, xs, us, regs, cost):
        _ro(a)
    return [ControlledPath(times=times, x=xs[:, k], u=us[:, k], regime=regs[:, k],
                           disc_cost=cost[:, k])
            for k in range(cfg.n_paths)]


@np.errstate(over="ignore", invalid="ignore")
def mc_cost(p: ModelParams, sol_or_policy, cfg: SimConfig) -> MCEstimate:
    """Mean and standard error of the discounted cost truncated at the horizon.

    sol_or_policy is either a RiccatiSolution (optimal feedback) or an affine
    law, a PolicyCoefficients such as shifted_policy returns for domination
    experiments; anything else raises ValueError before any walk or worker.
    truncation_bound is e^{-rT} * C_tail / r with C_tail the largest
    undiscounted integrand value observed over the final quarter of the
    horizon across all paths: a crude plug-in estimate of the post-T
    conditional expectation supremum, reported so comparisons against
    analytic values can budget for the discarded tail.  It is an empirical
    estimate, not a proven bound.  Raises ValueError as _run does, and if a
    path's cost or the statistics overflow.
    """
    if cfg.n_paths < 2:
        raise ValueError("mc_cost needs n_paths >= 2")
    law = sol_or_policy
    if isinstance(law, RiccatiSolution):
        law = policy_coefficients(law, p)
    elif not isinstance(law, PolicyCoefficients):
        raise ValueError("mc_cost takes a RiccatiSolution or a PolicyCoefficients, "
                         f"not {type(law).__name__}")
    costs, tails, *_ = _run(p, law, cfg)
    mean, se = chain._mean_se(costs)
    t_end = cfg.n_steps * cfg.dt
    bound = math.exp(-p.r * t_end) * float(tails.max()) / p.r
    return MCEstimate(mean=mean, std_error=se, n=cfg.n_paths,
                      truncation_bound=bound)


@np.errstate(over="ignore", invalid="ignore")
def asymptotic_decay(p: ModelParams, sol: RiccatiSolution, cfg: SimConfig,
                     checkpoints) -> list:
    """MC estimates of e^{-rT} E|X_T|^2 and e^{-rT} E|Y_T|^2 at each checkpoint time.

    Y_T = phi(a_T) X_T + psi(a_T) is the adjoint process.  One engine run
    records X and the regime at every checkpoint, so both statistics come
    from the same paths.  checkpoints must be strictly increasing and lie on
    the grid (each is matched to the nearest node; the discount uses the
    node time).  Returns [(T, x_mean, x_se, y_mean, y_se), ...].  Raises
    ValueError if any statistic overflows, so a caller that reads only X's
    columns also gets ValueError when Y's overflow, and as _run does.
    """
    if cfg.n_paths < 2:
        raise ValueError("asymptotic_decay needs n_paths >= 2")
    cps = [float(t) for t in checkpoints]
    if not cps:
        raise ValueError("checkpoints must be nonempty")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    nodes = []
    for t in cps:
        k = t / cfg.dt
        k = round(k) if math.isfinite(k) else -1
        if not 0 <= k <= cfg.n_steps:
            raise ValueError(f"checkpoint {t} outside the grid")
        nodes.append(k)
    if len(set(nodes)) != len(nodes):
        raise ValueError("checkpoints collide on the grid")
    _, _, rec_x, rec_reg, _ = _run(p, policy_coefficients(sol, p), cfg, record=nodes)
    result = []
    for t, k, xs, ids in zip(cps, nodes, rec_x, rec_reg):
        w = math.exp(-p.r * k * cfg.dt)
        x_mean, x_se = chain._mean_se(xs ** 2)
        y_mean, y_se = chain._mean_se((sol.phi[ids] * xs + sol.psi[ids]) ** 2)
        result.append((t, w * x_mean, w * x_se, w * y_mean, w * y_se))
    return result


def _adjoint_terms(p: ModelParams, sol: RiccatiSolution, samples):
    """Per-sample defect of adjoint_residual's identity and the sum of its terms' sizes.

    The second array adds the absolute values of every term of the identity,
    with u* = s x + k and the chain sums taken term by term, so rounding in
    the defect stays below a small multiple of it whatever the model's scale.
    """
    phi, psi = sol.phi, sol.psi
    if np.any(phi < 0):
        raise ValueError("phi must be nonnegative")
    xs = np.array([float(s[0]) for s in samples])
    ii = np.array([int(s[1]) for s in samples])
    if xs.size == 0:
        raise ValueError("samples must be nonempty")
    idx = ii - 1
    coeffs = policy_coefficients(sol, p)
    u = coeffs(xs, ii, 0.0)
    qphi = p.gen.q @ phi
    qpsi = p.gen.q @ psi
    drift_y = phi[idx] * (u - p.theta[idx]) + xs * qphi[idx] + qpsi[idx]
    res = drift_y + p.N[idx] * (xs - p.c[idx]) - p.r * (phi[idx] * xs + psi[idx])
    ax, aq = np.abs(xs), np.abs(p.gen.q)
    scale = (phi[idx] * (np.abs(coeffs.slope[idx]) * ax + np.abs(coeffs.intercept[idx])
                         + np.abs(p.theta[idx]))
             + ax * (aq @ phi)[idx] + (aq @ np.abs(psi))[idx]
             + p.N[idx] * (ax + np.abs(p.c[idx])) + p.r * (phi[idx] * ax + np.abs(psi[idx])))
    return res, scale


def adjoint_residual(p: ModelParams, sol: RiccatiSolution, samples) -> float:
    """Largest drift defect of Y = phi(a) X + psi(a) over the given samples.

    For each (x, i), i 1-based, the Ito drift of Y under the feedback law,

        phi(i)(u*(x, i) - theta(i)) + sum_j q_ij (phi(j) x + psi(j)),

    must equal the adjoint drift -[N(i)(x - c(i)) - r(phi(i) x + psi(i))];
    the return value is the maximum absolute difference.  At an exact
    curvature/slope solution the identity is algebraic, so the residual is
    rounding-level and scales like (solver tolerance) * (1 + |x|).
    """
    res, _ = _adjoint_terms(p, sol, samples)
    return float(np.max(np.abs(res)))


def shifted_policy(sol: RiccatiSolution, p: ModelParams,
                   delta: float) -> PolicyCoefficients:
    """The feedback law plus a constant offset, as an affine policy.

    Useful for cost-domination experiments: any nonzero delta is strictly
    suboptimal, with cost excess of order delta^2 at first order.
    """
    coeffs = policy_coefficients(sol, p)
    return PolicyCoefficients(slope=coeffs.slope,
                              intercept=_ro(coeffs.intercept + float(delta)))

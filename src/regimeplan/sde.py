"""Closed-loop simulation and Monte Carlo cost verification.

Under a feedback control u the inventory follows

    dX_t = (u(X_t, a_t, t) - theta(a_t)) dt + sigma(a_t) dW_t,

with a_t the exactly simulated switching process (module chain).  Paths are
advanced by Euler-Maruyama on a uniform grid; the regime is held at its value
at the left endpoint of each step (exact jump times are available separately
for diagnostics, the scheme does not sub-step at jumps since its weak order
is O(dt) regardless).  The running discounted cost

    int_0^t e^{-rs} (1/2)[N(a_s)(X_s - c(a_s))^2 + R(a_s)(u_s - h(a_s))^2] ds

is accumulated by the trapezoidal rule, matching the scheme's order; for
estimates the trapezoid and the discount are folded into node weights
dt e^{-r t_k}, halved at both ends.

Affine laws u = s_i x + k_i (PolicyCoefficients, which the optimal feedback
and shifted_policy are) are folded into per-regime tables: the step is
x <- A_i x + B_i + sigma_i dW and the integrand alpha_i (x - xstar_i)^2 +
gamma_i with alpha_i, gamma_i >= 0, so no policy is called per step.  Any
other callable policy is evaluated at every grid node with the plain Euler
arithmetic.  Each path keeps its current table entries and changes them only
at its regime jumps, so there is no per-step regime lookup either.

Every path owns fixed random streams keyed by (seed, path index), with the
regime path drawn from one substream and the normals from another.  Paths
run in blocks of _BLOCK and time in chunks of _CHUNK grid nodes: a block's
jump times become events at the first grid node at or after each jump, and
its normals are drawn _CHUNK at a time per path (equal, bit for bit, to one
full draw) and turned time-major.  The engine keeps per-path reductions and,
at the grid nodes a caller lists, every path's state and regime:
asymptotic_decay lists its checkpoints, and simulate_controlled lists every
node and derives u and the running cost afterwards, so kept paths take the
same folded step as the estimates.  mc_cost's memory does not grow with the
horizon, and grows with the path count by one float per path.  Every
per-path operation is elementwise and runs in grid order, and all reductions
run over arrays in global path order, so a given SimConfig produces
bit-identical results whatever the block and chunk sizes.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .chain import _jump_tables, _walk
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
    "write_path_csv",
    "write_mc_summary_csv",
]

_BLOCK = 2048  # paths per vectorized block
_CHUNK = 512   # grid nodes per time chunk; with _BLOCK bounds transient memory
_KEEP_BUDGET = 1 << 30  # bytes simulate_controlled may retain
_KEPT_PER_NODE = 32     # bytes per path and node: x, u, regime, disc_cost


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
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
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
    N + R s^2 = 0 the cost does not depend on x.
    """
    s, k = coeffs.slope, coeffs.intercept
    if s.shape != (p.m,) or k.shape != (p.m,):
        raise ValueError(f"policy coefficients must have length m={p.m}")
    curv = p.N + p.R * s * s
    flat = curv == 0.0
    den = np.where(flat, 1.0, curv)
    xstar = np.where(flat, 0.0, (p.N * p.c - p.R * s * (k - p.h)) / den)
    gamma = np.where(flat, 0.5 * (p.N * p.c ** 2 + p.R * (k - p.h) ** 2),
                     0.5 * p.N * p.R * (s * p.c + k - p.h) ** 2 / den)
    return np.array([1.0 + s * dt, (k - p.theta) * dt, p.sigma, xstar, 0.5 * curv, gamma])


def _jump_events(p: ModelParams, cfg: SimConfig, lo: int, hi: int):
    """Regime changes of paths lo..hi-1 on the grid, sorted by node.

    Returns (node, path offset, new 0-based state) arrays.  A jump at time t
    takes effect at the first grid node k with k dt >= t, as in
    chain.regimes_on_grid; when a path jumps more than once before the next
    node only its last state is kept.
    """
    rates, cums, targets = _jump_tables(p.gen)
    horizon = cfg.n_steps * cfg.dt
    times, states, counts = [], [], []
    for k in range(lo, hi):
        rng = np.random.default_rng([cfg.seed, k, 0])
        jt, st = _walk(rates, cums, targets, cfg.i0 - 1, horizon, rng)
        times += jt[1:]
        states += st[1:]
        counts.append(len(jt) - 1)
    t = np.asarray(times, dtype=float)
    # grid node k sits at k * dt exactly; t / dt may round across a node
    node = np.ceil(t / cfg.dt)
    node += node * cfg.dt < t
    node -= (node - 1.0) * cfg.dt >= t
    node = node.astype(np.intp)
    path = np.repeat(np.arange(hi - lo), counts)
    state = np.asarray(states, dtype=np.intp)
    order = np.argsort(node, kind="stable")  # keeps each path's jumps in time order
    node, path, state = node[order], path[order], state[order]
    last = np.ones(node.shape[0], dtype=bool)
    last[:-1] = (node[1:] != node[:-1]) | (path[1:] != path[:-1])
    return node[last], path[last], state[last]


@dataclass
class _EngineOut:
    costs: np.ndarray          # per-path truncated discounted cost, global order
    tail_max: float            # max undiscounted integrand over the last quarter
    x: np.ndarray              # (len(record), n_paths) states at the recorded nodes
    regime: np.ndarray         # (len(record), n_paths) 0-based regimes there


def _run(p: ModelParams, policy, cfg: SimConfig, record=()) -> _EngineOut:
    """Drive all paths through the Euler scheme in path blocks and time chunks.

    policy is a PolicyCoefficients (folded tables, no call per step) or any
    callable (x, i, t) -> u, called once per grid node with the array of
    states, the matching array of 1-based regimes and the scalar time, and
    returning something that broadcasts to the states' shape.  At the j-th
    grid node listed in record (distinct nodes) every path's state and
    0-based regime are written to row j of the two time-major matrices.
    """
    if not p.r > 0:
        raise ValueError("r not positive")
    if not 1 <= cfg.i0 <= p.m:
        raise ValueError(f"i0 out of range: {cfg.i0}")
    n_paths = cfg.n_paths
    n = cfg.n_steps
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    r = float(p.r)
    affine = isinstance(policy, PolicyCoefficients)
    if affine:
        tables = _affine_tables(p, policy, dt)
    else:
        tables = np.array([p.N, p.c, p.R, p.h, p.theta, p.sigma])
    i0 = cfg.i0 - 1
    tail_from = (3 * n) // 4
    rows = {int(k): j for j, k in enumerate(record)}
    rec_x = np.empty((len(rows), n_paths))
    rec_reg = np.empty((len(rows), n_paths), dtype=np.int64)
    costs = np.empty(n_paths)
    tail_max = 0.0
    width = min(_BLOCK, n_paths)
    z_paths = np.empty((width, _CHUNK))
    dw_time = np.empty((_CHUNK, width))
    for lo in range(0, n_paths, _BLOCK):
        hi = min(lo + _BLOCK, n_paths)
        nb = hi - lo
        ev_node, ev_path, ev_state = _jump_events(p, cfg, lo, hi)
        normals = [np.random.default_rng([cfg.seed, k, 1]) for k in range(lo, hi)]
        reg = np.full(nb, i0, dtype=np.intp)
        cur = np.repeat(tables[:, i0:i0 + 1], nb, axis=1)  # table rows per path
        if affine:
            a_, b_, sig, xstar, alpha, gamma = cur
        else:
            n_, c_, r_, h_, th_, sig = cur
        x = np.full(nb, float(cfg.x0))
        cost = np.zeros(nb)
        tail = np.zeros(nb)
        f = np.empty(nb)
        tmp = np.empty(nb)
        for c0 in range(0, n + 1, _CHUNK):
            c1 = min(c0 + _CHUNK, n + 1)
            steps = min(c1, n) - c0
            zp = z_paths[:nb, :steps]
            for k, gen in enumerate(normals):
                gen.standard_normal(out=zp[k])
            dw = dw_time[:steps, :nb]
            for j in range(0, nb, 64):  # tiled transpose, several times faster
                np.multiply(zp[j:j + 64].T, sqrt_dt, out=dw[:, j:j + 64])
            bounds = np.searchsorted(ev_node, np.arange(c0, c1 + 1)).tolist()
            disc = np.exp(-r * (np.arange(c0, c1) * dt)).tolist()
            for t in range(c1 - c0):
                node = c0 + t
                e0, e1 = bounds[t], bounds[t + 1]
                if e0 < e1:
                    cols, new = ev_path[e0:e1], ev_state[e0:e1]
                    reg[cols] = new
                    cur[:, cols] = tables[:, new]
                if affine:
                    np.subtract(x, xstar, out=f)
                    np.multiply(f, f, out=f)
                    np.multiply(f, alpha, out=f)
                    np.add(f, gamma, out=f)
                else:
                    u = np.broadcast_to(
                        np.asarray(policy(x, reg + 1, node * dt), dtype=float), x.shape)
                    np.subtract(x, c_, out=f)
                    np.multiply(f, f, out=f)
                    np.multiply(f, n_, out=f)
                    np.subtract(u, h_, out=tmp)
                    np.multiply(tmp, tmp, out=tmp)
                    np.multiply(tmp, r_, out=tmp)
                    np.add(f, tmp, out=f)
                    np.multiply(f, 0.5, out=f)
                if node >= tail_from:
                    np.maximum(tail, f, out=tail)
                j = rows.get(node)
                if j is not None:
                    rec_x[j, lo:hi] = x
                    rec_reg[j, lo:hi] = reg
                weight = dt * disc[t]  # trapezoid weight, halved at both ends
                if node == 0 or node == n:
                    weight *= 0.5
                np.multiply(f, weight, out=tmp)
                np.add(cost, tmp, out=cost)
                if node < n:
                    if affine:
                        np.multiply(x, a_, out=x)
                        np.add(x, b_, out=x)
                    else:
                        x = x + (u - th_) * dt
                    np.multiply(sig, dw[t], out=tmp)
                    np.add(x, tmp, out=x)
        costs[lo:hi] = cost
        tail_max = max(tail_max, float(tail.max()))
    return _EngineOut(costs=costs, tail_max=tail_max, x=rec_x, regime=rec_reg)


def simulate_controlled(p: ModelParams, sol: RiccatiSolution,
                        cfg: SimConfig) -> list:
    """Simulate cfg.n_paths closed-loop trajectories, one ControlledPath each.

    The paths take the optimal law u*(x, i) = -(phi(i) x + psi(i))/R(i) + h(i)
    through mc_cost's folded step, so the mean-reversion rate in regime i is
    phi(i)/R(i); the engine records every state and regime, and u and the
    running cost are derived afterwards, the cost as the sequential sum of
    1/2 dt (g_{k-1} + g_k) with g = f e^{-r t}.  Deterministic per (cfg.seed,
    path index): path k here equals path k of any run sharing the seed with
    n_paths > k.  The paths are read-only columns of four (node x path)
    matrices.

    Retains every grid value of every path, and refuses with ValueError,
    before allocating, a request that would retain more than _KEEP_BUDGET
    bytes; for large-sample estimates use mc_cost, which streams paths and
    keeps only reductions.
    """
    kept = cfg.n_paths * (cfg.n_steps + 1) * _KEPT_PER_NODE
    if kept > _KEEP_BUDGET:
        raise ValueError(f"simulation would retain {kept / 2**30:.3g} GiB of paths, "
                         f"over the {_KEEP_BUDGET / 2**30:g} GiB budget; "
                         "use fewer paths, a shorter horizon or a larger dt")
    coeffs = policy_coefficients(sol, p)
    n = cfg.n_steps
    out = _run(p, coeffs, cfg, record=range(n + 1))
    xs, regs = out.x, out.regime
    us = np.empty_like(xs)
    cost = np.empty_like(xs)
    times = cfg.times()
    disc = np.exp(-float(p.r) * times)
    half_dt = 0.5 * cfg.dt
    # tiles of _CHUNK nodes by _BLOCK paths bound the temporaries
    for lo in range(0, cfg.n_paths, _BLOCK):
        cols = slice(lo, lo + _BLOCK)
        for c0 in range(0, n + 1, _CHUNK):
            span = slice(c0, c0 + _CHUNK)
            x, i = xs[span, cols], regs[span, cols]
            u = us[span, cols]
            u[...] = coeffs.slope[i] * x + coeffs.intercept[i]
            g = 0.5 * (p.N[i] * (x - p.c[i]) ** 2 + p.R[i] * (u - p.h[i]) ** 2)
            g *= disc[span, None]
            acc = cost[span, cols]
            acc[0] = (g_last + g[0]) * half_dt + cost[c0 - 1, cols] if c0 else 0.0
            np.multiply(g[:-1] + g[1:], half_dt, out=acc[1:])
            np.cumsum(acc, axis=0, out=acc)
            g_last = g[-1]
    regs += 1  # 1-based labels, in place
    for a in (times, xs, us, regs, cost):
        _ro(a)
    return [ControlledPath(times=times, x=xs[:, k], u=us[:, k], regime=regs[:, k],
                           disc_cost=cost[:, k])
            for k in range(cfg.n_paths)]


def mc_cost(p: ModelParams, sol_or_policy, cfg: SimConfig) -> MCEstimate:
    """Mean and standard error of the discounted cost truncated at the horizon.

    sol_or_policy is either a RiccatiSolution (optimal feedback) or a callable
    policy (x, i, t) -> u for domination experiments; a PolicyCoefficients
    (such as shifted_policy returns) takes the folded affine fast path.  truncation_bound is
    e^{-rT} * C_tail / r with C_tail the largest undiscounted integrand value
    observed over the final quarter of the horizon across all paths: a crude
    plug-in estimate of the post-T conditional expectation supremum, reported
    so comparisons against analytic values can budget for the discarded tail.
    It is an empirical estimate, not a proven bound.
    """
    if cfg.n_paths < 2:
        raise ValueError("mc_cost needs n_paths >= 2")
    policy = sol_or_policy
    if not callable(policy):
        policy = policy_coefficients(policy, p)
    out = _run(p, policy, cfg)
    mean = float(np.mean(out.costs))
    se = float(np.std(out.costs, ddof=1) / math.sqrt(cfg.n_paths))
    t_end = cfg.n_steps * cfg.dt
    bound = math.exp(-p.r * t_end) * out.tail_max / p.r
    return MCEstimate(mean=mean, std_error=se, n=cfg.n_paths,
                      truncation_bound=bound)


def asymptotic_decay(p: ModelParams, sol: RiccatiSolution, cfg: SimConfig,
                     checkpoints, adjoint: bool = False) -> list:
    """MC estimates of e^{-rT} E|X_T|^2 at each checkpoint time.

    checkpoints must be strictly increasing and lie on the grid (each is
    matched to the nearest node; the discount uses the node time).  With
    adjoint=True the statistic is taken on Y_T = phi(a_T) X_T + psi(a_T)
    instead of X_T.  Returns [(T, estimate, standard error), ...].
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
        k = int(round(t / cfg.dt))
        if not 0 <= k <= cfg.n_steps:
            raise ValueError(f"checkpoint {t} outside the grid")
        nodes.append(k)
    if len(set(nodes)) != len(nodes):
        raise ValueError("checkpoints collide on the grid")
    out = _run(p, policy_coefficients(sol, p), cfg, record=nodes)
    result = []
    for t, k, xs, ids in zip(cps, nodes, out.x, out.regime):
        if adjoint:
            vals = (sol.phi[ids] * xs + sol.psi[ids]) ** 2
        else:
            vals = xs ** 2
        w = math.exp(-p.r * k * cfg.dt)
        mean = w * float(np.mean(vals))
        se = w * float(np.std(vals, ddof=1) / math.sqrt(vals.shape[0]))
        result.append((t, mean, se))
    return result


def adjoint_residual(p: ModelParams, sol: RiccatiSolution, samples) -> float:
    """Largest drift defect of Y = phi(a) X + psi(a) over the given samples.

    For each (x, i), i 1-based, the Ito drift of Y under the feedback law,

        phi(i)(u*(x, i) - theta(i)) + sum_j q_ij (phi(j) x + psi(j)),

    must equal the adjoint drift -[N(i)(x - c(i)) - r(phi(i) x + psi(i))];
    the return value is the maximum absolute difference.  At an exact
    curvature/slope solution the identity is algebraic, so the residual is
    rounding-level and scales like (solver tolerance) * (1 + |x|).
    """
    phi, psi = sol.phi, sol.psi
    if np.any(phi < 0):
        raise ValueError("phi must be nonnegative")
    xs = np.array([float(s[0]) for s in samples])
    ii = np.array([int(s[1]) for s in samples])
    if xs.size == 0:
        raise ValueError("samples must be nonempty")
    if np.any((ii < 1) | (ii > p.m)):
        raise ValueError("regime index out of range")
    idx = ii - 1
    coeffs = policy_coefficients(sol, p)
    u = coeffs.slope[idx] * xs + coeffs.intercept[idx]
    qphi = p.gen.q @ phi
    qpsi = p.gen.q @ psi
    drift_y = phi[idx] * (u - p.theta[idx]) + xs * qphi[idx] + qpsi[idx]
    res = drift_y + p.N[idx] * (xs - p.c[idx]) - p.r * (phi[idx] * xs + psi[idx])
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


def write_path_csv(cp: ControlledPath, fp) -> None:
    """Serialize a path as CSV with columns t, x, u, regime, disc_cost."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["t", "x", "u", "regime", "disc_cost"])
    for k in range(cp.times.shape[0]):
        writer.writerow([
            format(float(cp.times[k]), ".12g"),
            format(float(cp.x[k]), ".12g"),
            format(float(cp.u[k]), ".12g"),
            int(cp.regime[k]),
            format(float(cp.disc_cost[k]), ".12g"),
        ])


def write_mc_summary_csv(rows, fp) -> None:
    """Serialize (label, MCEstimate) pairs with columns quantity, mean, std_error, n, truncation_bound."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["quantity", "mean", "std_error", "n", "truncation_bound"])
    for name, est in rows:
        writer.writerow([
            name,
            format(float(est.mean), ".12g"),
            format(float(est.std_error), ".12g"),
            int(est.n),
            format(float(est.truncation_bound), ".12g"),
        ])

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

Every policy runs through per-regime tables: the step is
x <- A_i x + B_i + sigma_i dW and the integrand alpha_i (x - xstar_i)^2 +
gamma_i.  Affine laws u = s_i x + k_i (PolicyCoefficients, which the optimal
feedback and shifted_policy are) fold into constant tables with alpha_i,
gamma_i >= 0, so no policy is called per step.  Any other callable policy
has A = 1, xstar = c and alpha = N/2, and is evaluated at every grid node to
refill B = (u - theta) dt and gamma = 1/2 (u - h)^2 R; halving is exact, so
this is the plain Euler arithmetic bit for bit.  Each path keeps its current
table entries and changes them only at its regime jumps, so there is no
per-step regime lookup either.

Every path owns fixed random streams keyed by (seed, path index), with the
regime path drawn from one substream and the normals from another.  Paths
run in blocks of _BLOCK and time in chunks of _CHUNK grid nodes: a block's
jump times become events at the first grid node at or after each jump, and
its normals are drawn _CHUNK at a time per path (equal, bit for bit, to one
full draw) and turned time-major.  A block holds all its paths' jumps, so
it narrows below _BLOCK paths where horizon x (largest exit rate) would
bring more than chain._BLOCK_JUMPS expected jumps, and the chain walk
refuses a path that alone expects more; memory thus grows by one float per
path.  The engine keeps per-path reductions and, at the grid nodes a caller
lists and within _KEEP_BUDGET bytes, every path's state, regime and running
cost: asymptotic_decay lists its checkpoints, and simulate_controlled lists
every node and derives u through the law, so kept paths take the same step
and the same quadrature as the estimates.  Every per-path operation is
elementwise and runs in grid order, and all reductions run over arrays in
global path order, so a given SimConfig produces bit-identical results
whatever the block and chunk sizes.

Because paths are independent, an affine run splits its paths into
contiguous shares, one per CPU the process may use (os.sched_getaffinity,
else os.cpu_count), but never more shares than blocks and none below
_SHARE_WORK path-steps, so small runs pay no worker start-up.  The caller
runs the first share and a worker process each other one (module _pool,
which the chain functional shares); results land in global path order, so
estimates and kept paths are bitwise equal for any worker count.  Workers
are fresh interpreters started with -c, never a fork of the caller, and
they import only this package, so a script needs no
`if __name__ == "__main__"` guard.  A callable policy runs in process,
since it may not pickle and is called per node anyway.
"""

import math
from contextlib import closing
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
_KEEP_BUDGET = 1 << 30  # bytes a recording may retain
_KEPT_PER_NODE = 32     # bytes per path and node: x, regime, cost and a derived u
_SHARE_WORK = 1 << 23   # fewest path-steps worth a worker process (~0.2 s to start)


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
    path, t, state = map(np.concatenate, zip(*chain._walks(
        p.gen, cfg.i0, cfg.n_steps * cfg.dt, ([cfg.seed, k, 0] for k in range(lo, hi)))))
    jump = np.r_[False, path[1:] == path[:-1]]  # all but each path's start
    path, t, state = path[jump], t[jump], state[jump]
    # grid node k sits at k * dt exactly; t / dt may round across a node
    node = np.ceil(t / cfg.dt)
    node += node * cfg.dt < t
    node -= (node - 1.0) * cfg.dt >= t
    node = node.astype(np.intp)
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
    cost: np.ndarray           # (len(record), n_paths) running trapezoid cost there


def _require_finite(costs: np.ndarray) -> None:
    """Turn an overflowed cost, computed with numpy's warnings off, into ValueError."""
    bad = ~np.isfinite(costs)
    if bad.any():
        raise ValueError(f"discounted cost is not finite ({costs[bad][0]}) on "
                         f"{int(bad.sum())} of {costs.size} paths; the start point "
                         "or the cost scale overflows")


@np.errstate(over="ignore", invalid="ignore")
def _run(p: ModelParams, policy, cfg: SimConfig, record=()) -> _EngineOut:
    """Drive all paths through the Euler scheme in shares, path blocks and time chunks.

    policy is a PolicyCoefficients (folded tables, no call per step) or any
    callable (x, i, t) -> u, called once per grid node with the array of
    states, the matching array of 1-based regimes and the scalar time, and
    returning something that broadcasts to the states' shape; its u refills
    the B and gamma rows, from the theta, h and R rows carried after them.
    Both kinds share one node body (_share).  At the j-th grid node listed
    in record (distinct nodes) every path's state, 0-based regime and running
    cost are written to row j of three time-major matrices; the running cost
    is the trapezoid over [0, t_node], so 0 at node 0 and each path's final
    cost at node n_steps.  An affine run worth more than one worker (see
    _pool._workers) splits its paths into contiguous shares of at least one block
    each: the parent runs the first, a worker process each other one, and
    the results land in global path order.  Raises ValueError, before any
    walk or worker, for a record over _KEEP_BUDGET bytes, a start regime
    outside 1..m or a path the chain walk's budget refuses, and after all
    shares for a non-finite cost.
    """
    if not p.r > 0:
        raise ValueError("r not positive")
    n_paths = cfg.n_paths
    n = cfg.n_steps
    affine = isinstance(policy, PolicyCoefficients)
    if affine:
        tables = _affine_tables(p, policy, cfg.dt)
        policy = None
    else:  # rows A..gamma, then theta, h, R; B and gamma are refilled from u
        one, zero = np.ones(p.m), np.zeros(p.m)
        tables = np.array([one, zero, p.sigma, p.c, 0.5 * p.N, zero,
                           p.theta, p.h, p.R])
    kept = len(record) * n_paths * _KEPT_PER_NODE
    if kept > _KEEP_BUDGET:
        raise ValueError(f"simulation would retain {kept / 2**30:.3g} GiB of paths, over "
                         f"the {_KEEP_BUDGET / 2**30:g} GiB budget; use fewer paths or nodes")
    chain._walks(p.gen, cfg.i0, n * cfg.dt, ())  # its checks, before any walk or worker
    jumps = n * cfg.dt * float(np.max(-np.diag(p.gen.q)))
    width = min(_BLOCK, n_paths, max(1, int(chain._BLOCK_JUMPS / max(jumps, 1.0))))
    shares = (min(_pool._workers(n_paths * n, _SHARE_WORK), -(-n_paths // width))
              if affine else 1)
    cuts = [n_paths * s // shares for s in range(shares + 1)]
    args = [(p, tables, policy, cfg, lo, hi, width, _CHUNK, record)
            for lo, hi in zip(cuts, cuts[1:])]
    with closing(_pool.run(__name__, "_share", args)) as parts:
        if shares == 1:
            costs, tail_max, rec_x, rec_reg, rec_cost = next(parts)
        else:
            costs = np.empty(n_paths)
            tail_max = 0.0
            rec_x = np.empty((len(record), n_paths))
            rec_reg = np.empty((len(record), n_paths), dtype=np.int64)
            rec_cost = np.empty((len(record), n_paths))
            for lo, hi, part in zip(cuts, cuts[1:], parts):
                costs[lo:hi], tail, rec_x[:, lo:hi], rec_reg[:, lo:hi], rec_cost[:, lo:hi] = part
                tail_max = max(tail_max, tail)
                del part  # frees a share's record before the next one arrives
    _require_finite(costs)
    return _EngineOut(costs=costs, tail_max=tail_max, x=rec_x, regime=rec_reg,
                      cost=rec_cost)


@np.errstate(over="ignore", invalid="ignore")
def _share(p: ModelParams, tables: np.ndarray, policy, cfg: SimConfig, lo: int, hi: int,
           width: int, chunk: int, record):
    """Paths lo..hi-1 in blocks of `width` paths and chunks of `chunk` nodes.

    tables are _run's per-regime rows; policy is None for affine tables, else
    the callable whose u refills them at every node.  Returns the paths'
    costs, their tail maximum and their (len(record), hi - lo) states,
    0-based regimes and running costs at the record nodes.
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
    tail_max = 0.0
    width = min(width, n_paths)
    z_paths = np.empty((width, chunk))
    dw_time = np.empty((chunk, width))
    for b0 in range(0, n_paths, width):
        b1 = min(b0 + width, n_paths)
        nb = b1 - b0
        ev_node, ev_path, ev_state = _jump_events(p, cfg, lo + b0, lo + b1)
        normals = [np.random.default_rng([cfg.seed, k, 1]) for k in range(lo + b0, lo + b1)]
        reg = np.full(nb, i0, dtype=np.intp)
        cur = np.repeat(tables[:, i0:i0 + 1], nb, axis=1)  # table rows per path
        a_, b_, sig, xstar, alpha, gamma, *by_u = cur
        x = np.full(nb, float(cfg.x0))
        cost = np.zeros(nb)
        tail = np.zeros(nb)
        f = np.empty(nb)
        tmp = np.empty(nb)
        for c0 in range(0, n + 1, chunk):
            c1 = min(c0 + chunk, n + 1)
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
                if policy is not None:
                    u = np.asarray(policy(x, reg + 1, node * dt), dtype=float)
                    th_, h_, r_ = by_u
                    np.subtract(u, th_, out=b_)
                    np.multiply(b_, dt, out=b_)
                    np.subtract(u, h_, out=gamma)
                    np.multiply(gamma, gamma, out=gamma)
                    np.multiply(gamma, r_, out=gamma)
                    np.multiply(gamma, 0.5, out=gamma)
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
        tail_max = max(tail_max, float(tail.max()))
    return costs, tail_max, rec_x, rec_reg, rec_cost


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
    _KEEP_BUDGET bytes; for large-sample estimates use mc_cost, which streams
    paths and keeps only reductions.  Raises ValueError as _run does.
    """
    law = policy_coefficients(sol, p)
    out = _run(p, law, cfg, record=range(cfg.n_steps + 1))
    xs, regs, cost = out.x, out.regime, out.cost
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

    sol_or_policy is either a RiccatiSolution (optimal feedback) or a callable
    policy (x, i, t) -> u for domination experiments; a PolicyCoefficients
    (such as shifted_policy returns) takes the folded affine fast path.  truncation_bound is
    e^{-rT} * C_tail / r with C_tail the largest undiscounted integrand value
    observed over the final quarter of the horizon across all paths: a crude
    plug-in estimate of the post-T conditional expectation supremum, reported
    so comparisons against analytic values can budget for the discarded tail.
    It is an empirical estimate, not a proven bound.  Raises ValueError if a
    path's cost or the statistics overflow.
    """
    if cfg.n_paths < 2:
        raise ValueError("mc_cost needs n_paths >= 2")
    policy = sol_or_policy
    if not callable(policy):
        policy = policy_coefficients(policy, p)
    out = _run(p, policy, cfg)
    mean, se = chain._mean_se(out.costs)
    t_end = cfg.n_steps * cfg.dt
    bound = math.exp(-p.r * t_end) * out.tail_max / p.r
    return MCEstimate(mean=mean, std_error=se, n=cfg.n_paths,
                      truncation_bound=bound)


@np.errstate(over="ignore", invalid="ignore")
def asymptotic_decay(p: ModelParams, sol: RiccatiSolution, cfg: SimConfig,
                     checkpoints, adjoint: bool = False) -> list:
    """MC estimates of e^{-rT} E|X_T|^2 at each checkpoint time.

    checkpoints must be strictly increasing and lie on the grid (each is
    matched to the nearest node; the discount uses the node time).  With
    adjoint=True the statistic is taken on Y_T = phi(a_T) X_T + psi(a_T)
    instead of X_T.  Returns [(T, estimate, standard error), ...].  Raises
    ValueError if a statistic overflows, and as _run does.
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
    out = _run(p, policy_coefficients(sol, p), cfg, record=nodes)
    result = []
    for t, k, xs, ids in zip(cps, nodes, out.x, out.regime):
        if adjoint:
            vals = (sol.phi[ids] * xs + sol.psi[ids]) ** 2
        else:
            vals = xs ** 2
        w = math.exp(-p.r * k * cfg.dt)
        mean, se = chain._mean_se(vals)
        result.append((t, w * mean, w * se))
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

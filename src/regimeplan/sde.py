"""Closed-loop simulation and Monte Carlo cost verification.

Under a feedback control u the inventory follows

    dX_t = (u(X_t, a_t, t) - theta(a_t)) dt + sigma(a_t) dW_t,

with a_t the exactly simulated switching process (module chain).  Paths are
advanced by Euler-Maruyama on a uniform grid; the regime is held at its value
at the left endpoint of each step (exact jump times are available separately
for diagnostics, the scheme does not sub-step at jumps since its weak order
is O(dt) regardless).  The running discounted cost

    int_0^t e^{-rs} (1/2)[N(a_s)(X_s - c(a_s))^2 + R(a_s)(u_s - h(a_s))^2] ds

is accumulated by the trapezoidal rule, matching the scheme's order.

Every path owns fixed random streams keyed by (seed, path index), with the
regime path drawn from one substream and the Brownian increments from
another, and all reductions run over arrays in global path order.  A given
SimConfig therefore produces bit-identical results no matter how paths are
batched into blocks.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .chain import _jump_tables, _walk, regimes_on_grid
from .model import ModelParams
from .policy import policy_coefficients
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

_BLOCK = 2048  # paths per vectorized block; bounds transient memory


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
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.horizon >= self.dt:
            raise ValueError("horizon must be at least dt")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
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


def _apply_fn(p: ModelParams, sol_or_policy):
    """Vectorized control evaluator from a solution or a user policy.

    A user policy is any callable (x, i, t) -> u taking an array of states x,
    the matching array of 1-based regimes i and the scalar time t, returning
    something that broadcasts to x's shape.
    """
    if callable(sol_or_policy):
        fn = sol_or_policy

        def apply(x, idx, t):
            u = np.asarray(fn(x, idx + 1, t), dtype=float)
            return np.broadcast_to(u, x.shape)

        return apply
    coeffs = policy_coefficients(sol_or_policy, p)
    slope = coeffs.slope
    intercept = coeffs.intercept

    def apply(x, idx, t):
        return slope[idx] * x + intercept[idx]

    return apply


@dataclass
class _EngineOut:
    costs: np.ndarray          # per-path truncated discounted cost, global order
    tail_max: float            # max undiscounted integrand over the last quarter
    snaps: dict                # node -> (x values, 0-based regimes) per path
    paths: tuple | None        # (times, X, U, REG, COST) matrices if kept


def _run(p: ModelParams, apply, cfg: SimConfig, *,
         keep_paths: bool = False, checkpoint_nodes=()) -> _EngineOut:
    """Drive all paths through the Euler scheme in blocks."""
    if not p.r > 0:
        raise ValueError("r not positive")
    if not 1 <= cfg.i0 <= p.m:
        raise ValueError(f"i0 out of range: {cfg.i0}")
    n_paths = cfg.n_paths
    n = cfg.n_steps
    times = cfg.times()
    dt = cfg.dt
    disc = np.exp(-p.r * times)
    sqrt_dt = math.sqrt(dt)
    theta, sigma = p.theta, p.sigma
    cvec, hvec, nvec, rvec = p.c, p.h, p.N, p.R
    rates, cums, targets = _jump_tables(p.gen)
    i0 = cfg.i0 - 1
    horizon = float(times[-1])
    tail_from = (3 * n) // 4
    want = {int(k) for k in checkpoint_nodes}
    costs = np.empty(n_paths)
    snaps = {k: (np.empty(n_paths), np.empty(n_paths, dtype=np.int16)) for k in want}
    big_x = big_u = big_cost = big_reg = None
    if keep_paths:
        big_x = np.empty((n_paths, n + 1))
        big_u = np.empty((n_paths, n + 1))
        big_reg = np.empty((n_paths, n + 1), dtype=np.int16)
        big_cost = np.empty((n_paths, n + 1))
    tail_max = 0.0
    for lo in range(0, n_paths, _BLOCK):
        hi = min(lo + _BLOCK, n_paths)
        nb = hi - lo
        reg = np.empty((nb, n + 1), dtype=np.int16)
        dw = np.empty((nb, n))
        for k in range(nb):
            chain_rng = np.random.default_rng([cfg.seed, lo + k, 0])
            jt, st = _walk(rates, cums, targets, i0, horizon, chain_rng)
            reg[k] = regimes_on_grid(jt, st, times)
            z = np.random.default_rng([cfg.seed, lo + k, 1]).standard_normal(n)
            dw[k] = sqrt_dt * z
        x = np.full(nb, float(cfg.x0))
        cost = np.zeros(nb)
        g_prev = None
        for node in range(n + 1):
            idx = reg[:, node]
            u = apply(x, idx, float(times[node]))
            f = 0.5 * (nvec[idx] * (x - cvec[idx]) ** 2 + rvec[idx] * (u - hvec[idx]) ** 2)
            g = disc[node] * f
            if node:
                cost += (0.5 * dt) * (g_prev + g)
            g_prev = g
            if node >= tail_from:
                peak = float(f.max())
                if peak > tail_max:
                    tail_max = peak
            if node in want:
                xs, ids = snaps[node]
                xs[lo:hi] = x
                ids[lo:hi] = idx
            if keep_paths:
                big_x[lo:hi, node] = x
                big_u[lo:hi, node] = u
                big_reg[lo:hi, node] = idx
                big_cost[lo:hi, node] = cost
            if node < n:
                x = x + (u - theta[idx]) * dt + sigma[idx] * dw[:, node]
        costs[lo:hi] = cost
    paths = (times, big_x, big_u, big_reg, big_cost) if keep_paths else None
    return _EngineOut(costs=costs, tail_max=tail_max, snaps=snaps, paths=paths)


def simulate_controlled(p: ModelParams, sol: RiccatiSolution,
                        cfg: SimConfig) -> list:
    """Simulate cfg.n_paths closed-loop trajectories, one ControlledPath each.

    The drift applies the feedback law exactly as feedback_control prescribes,
    u*(x, i) = -(phi(i) x + psi(i))/R(i) + h(i), so the mean-reversion rate in
    regime i is phi(i)/R(i).  Deterministic per (cfg.seed, path index): path k
    here equals path k of any run sharing the seed with n_paths > k.

    Retains every grid value of every path; for large-sample estimates use
    mc_cost, which streams paths in blocks and keeps only reductions.
    """
    out = _run(p, _apply_fn(p, sol), cfg, keep_paths=True)
    times, xs, us, regs, cost = out.paths
    t_shared = _ro(times.copy())
    paths = []
    for k in range(cfg.n_paths):
        paths.append(ControlledPath(
            times=t_shared,
            x=_ro(xs[k].copy()),
            u=_ro(us[k].copy()),
            regime=_ro(regs[k].astype(np.int64) + 1),
            disc_cost=_ro(cost[k].copy()),
        ))
    return paths


def mc_cost(p: ModelParams, sol_or_policy, cfg: SimConfig) -> MCEstimate:
    """Mean and standard error of the discounted cost truncated at the horizon.

    sol_or_policy is either a RiccatiSolution (optimal feedback) or a callable
    policy (x, i, t) -> u for domination experiments.  truncation_bound is
    e^{-rT} * C_tail / r with C_tail the largest undiscounted integrand value
    observed over the final quarter of the horizon across all paths: a crude
    plug-in estimate of the post-T conditional expectation supremum, reported
    so comparisons against analytic values can budget for the discarded tail.
    It is an empirical estimate, not a proven bound.
    """
    if cfg.n_paths < 2:
        raise ValueError("mc_cost needs n_paths >= 2")
    out = _run(p, _apply_fn(p, sol_or_policy), cfg)
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
    out = _run(p, _apply_fn(p, sol), cfg, checkpoint_nodes=nodes)
    result = []
    for t, k in zip(cps, nodes):
        xs, ids = out.snaps[k]
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


def shifted_policy(sol: RiccatiSolution, p: ModelParams, delta: float):
    """The feedback law plus a constant offset, as a policy callable.

    Useful for cost-domination experiments: any nonzero delta is strictly
    suboptimal, with cost excess of order delta^2 at first order.
    """
    coeffs = policy_coefficients(sol, p)
    slope = coeffs.slope
    intercept = coeffs.intercept
    d = float(delta)

    def policy(x, i, t):
        idx = np.asarray(i, dtype=np.int64) - 1
        return slope[idx] * np.asarray(x, dtype=float) + intercept[idx] + d

    return policy


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

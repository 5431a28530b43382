"""Optimal feedback law and the analytic value function.

With the curvature phi and slope psi solved, the optimal production rate is
the affine feedback, the pointwise minimizer over u of the Hamiltonian
(strictly convex in u because R > 0),

    u*(x, i) = -[phi(i) x + psi(i)] / R(i) + h(i),

negative values being read as scrapping, and the value function decomposes as

    v(x, i) = 1/2 phi(i) x^2 + psi(i) x + w(i),

where w is the discounted regime functional of

    g(i) = 1/2 [ N(i) c(i)^2 + phi(i) sigma(i)^2 - psi(i)^2 / R(i)
                 + 2 psi(i) (h(i) - theta(i)) ].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import discounted_resolvent
from .model import ModelParams
from .riccati import RiccatiSolution

__all__ = [
    "PolicyCoefficients",
    "ValueReport",
    "policy_coefficients",
    "value_constant",
    "value_function",
    "value_report",
    "default_grid",
]


@dataclass(frozen=True, eq=False)
class PolicyCoefficients:
    """Per-regime affine coefficients of the feedback law u = slope x + intercept.

    Calling it evaluates the law as a policy (x, i, t) -> u with 1-based
    regimes i in 1..m, as simulate_controlled does to derive u on its kept
    paths.  The Monte Carlo engine takes only this type (or the solution it
    is derived from) and folds the law into per-regime tables instead of
    calling it at every step.
    """

    slope: np.ndarray
    intercept: np.ndarray

    def __call__(self, x, i, t):
        idx = _index(i, self.slope.shape[0])
        return self.slope[idx] * np.asarray(x, dtype=float) + self.intercept[idx]


@dataclass(frozen=True, eq=False)
class ValueReport:
    """Analytic value function tabulated on a grid: table[k, i-1] = v(grid[k], i)."""

    grid: np.ndarray
    table: np.ndarray


def _index(i, m: int):
    """0-based index of 1-based regime(s) i; ValueError for any outside 1..m."""
    idx = np.asarray(i, dtype=np.int64) - 1
    if np.any((idx < 0) | (idx >= m)):
        raise ValueError(f"regime index must be in 1..{m}")
    return idx


def default_grid(lo: float = -10.0, hi: float = 10.0, points: int = 401) -> np.ndarray:
    """Inventory grid for tabulation and nonnegativity checks."""
    return np.linspace(lo, hi, points)


def policy_coefficients(sol: RiccatiSolution, p: ModelParams) -> PolicyCoefficients:
    slope = -(sol.phi / p.R)
    intercept = -(sol.psi / p.R) + p.h
    slope.setflags(write=False)
    intercept.setflags(write=False)
    return PolicyCoefficients(slope=slope, intercept=intercept)


def value_constant(sol: RiccatiSolution, p: ModelParams) -> np.ndarray:
    """Constant term w of the value function, via the resolvent of the chain."""
    g = 0.5 * (p.N * p.c ** 2 + sol.phi * p.sigma ** 2
               - sol.psi ** 2 / p.R + 2.0 * sol.psi * (p.h - p.theta))
    return discounted_resolvent(p.gen, p.r, g)


def value_function(x: float, i: int, sol: RiccatiSolution, p: ModelParams) -> float:
    j = _index(i, p.m)
    w = value_constant(sol, p)
    return float(0.5 * sol.phi[j] * x * x + sol.psi[j] * x + w[j])


def value_report(sol: RiccatiSolution, p: ModelParams, grid=None) -> ValueReport:
    """Tabulate v on a grid (default 401 points over [-10, 10]).

    Raises ValueError if a table entry is not finite, as on a grid so wide
    that x^2 overflows.
    """
    if grid is None:
        grid = default_grid()
    grid = np.array(grid, dtype=float)
    w = value_constant(sol, p)
    with np.errstate(over="ignore", invalid="ignore"):
        table = (0.5 * sol.phi[None, :] * grid[:, None] ** 2
                 + sol.psi[None, :] * grid[:, None] + w[None, :])
    if not np.all(np.isfinite(table)):
        raise ValueError("value table is not finite on this grid; narrow the grid")
    grid.setflags(write=False)
    table.setflags(write=False)
    return ValueReport(grid=grid, table=table)

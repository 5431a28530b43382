"""Hamiltonian, optimal feedback law, and the analytic value function.

With the curvature phi and slope psi solved, the optimal production rate is
the affine feedback

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
    "hamiltonian",
    "hamiltonian_minimizer",
    "feedback_control",
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
    regimes i; the Monte Carlo engine recognises the type and folds the law
    into per-regime tables instead of calling it at every step.
    """

    slope: np.ndarray
    intercept: np.ndarray

    def __call__(self, x, i, t):
        idx = np.asarray(i, dtype=np.int64) - 1
        return self.slope[idx] * np.asarray(x, dtype=float) + self.intercept[idx]


@dataclass(frozen=True, eq=False)
class ValueReport:
    """Analytic value function, decomposed and tabulated on a grid.

    v(x, i) = quad(i) x^2 + lin(i) x + const(i); table[k, i-1] = v(grid[k], i).
    """

    quad: np.ndarray
    lin: np.ndarray
    const: np.ndarray
    grid: np.ndarray
    table: np.ndarray

    def value(self, x: float, i: int) -> float:
        j = i - 1
        return float(self.quad[j] * x * x + self.lin[j] * x + self.const[j])


def default_grid(lo: float = -10.0, hi: float = 10.0, points: int = 401) -> np.ndarray:
    """Inventory grid for tabulation and nonnegativity checks."""
    return np.linspace(lo, hi, points)


def hamiltonian(x: float, i: int, u: float, y: float, z: float,
                p: ModelParams) -> float:
    """Discounted-problem Hamiltonian at state x, regime i, control u, adjoints (y, z).

    H = (u - theta(i)) y + sigma(i) z
        + 1/2 [N(i)(x - c(i))^2 + R(i)(u - h(i))^2] - r x y.
    """
    j = i - 1
    running = 0.5 * (p.N[j] * (x - p.c[j]) ** 2 + p.R[j] * (u - p.h[j]) ** 2)
    return float((u - p.theta[j]) * y + p.sigma[j] * z + running - p.r * x * y)


def hamiltonian_minimizer(i: int, y: float, p: ModelParams) -> float:
    """argmin over u of the Hamiltonian: u = h(i) - y / R(i)."""
    j = i - 1
    return float(p.h[j] - y / p.R[j])


def policy_coefficients(sol: RiccatiSolution, p: ModelParams) -> PolicyCoefficients:
    slope = -(sol.phi / p.R)
    intercept = -(sol.psi / p.R) + p.h
    slope.setflags(write=False)
    intercept.setflags(write=False)
    return PolicyCoefficients(slope=slope, intercept=intercept)


def feedback_control(x, i: int, sol: RiccatiSolution, p: ModelParams):
    """Optimal production rate at inventory x in regime i (broadcasts over x)."""
    j = i - 1
    u = -(sol.phi[j] * np.asarray(x, dtype=float) + sol.psi[j]) / p.R[j] + p.h[j]
    return float(u) if np.ndim(x) == 0 else u


def value_constant(sol: RiccatiSolution, p: ModelParams) -> np.ndarray:
    """Constant term w of the value function, via the resolvent of the chain."""
    g = 0.5 * (p.N * p.c ** 2 + sol.phi * p.sigma ** 2
               - sol.psi ** 2 / p.R + 2.0 * sol.psi * (p.h - p.theta))
    return discounted_resolvent(p.gen, p.r, g)


def value_function(x: float, i: int, sol: RiccatiSolution, p: ModelParams) -> float:
    j = i - 1
    w = value_constant(sol, p)
    return float(0.5 * sol.phi[j] * x * x + sol.psi[j] * x + w[j])


def value_report(sol: RiccatiSolution, p: ModelParams, grid=None) -> ValueReport:
    """Tabulate v on a grid (default 401 points over [-10, 10])."""
    if grid is None:
        grid = default_grid()
    grid = np.array(grid, dtype=float)
    w = value_constant(sol, p)
    table = (0.5 * sol.phi[None, :] * grid[:, None] ** 2
             + sol.psi[None, :] * grid[:, None] + w[None, :])
    for arr in (grid, table, w):
        arr.setflags(write=False)
    return ValueReport(quad=0.5 * sol.phi, lin=sol.psi, const=w,
                       grid=grid, table=table)

"""Coupled algebraic Riccati system for the value-function curvature and slope.

The curvature vector phi >= 0 solves, for each regime i,

    phi(i)^2 / R(i) + r phi(i) - sum_j q_ij phi(j) - N(i) = 0,        (quadratic system)

and the slope vector psi solves the linear system B_phi psi = b with

    B_phi(i,i) = phi(i)/R(i) + r + sum_{j != i} q_ij,
    B_phi(i,j) = -q_ij                       (j != i),
    b(i)       = (h(i) - theta(i)) phi(i) - N(i) c(i).

The quadratic system has a unique nonnegative solution; two independent
solvers are provided (damped Newton and the coordinate-elimination method)
together with a diagonal-dominance certificate of that uniqueness.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "NonConvergence",
    "BracketFailure",
    "DominanceCertificate",
    "RiccatiSolution",
    "are_residual",
    "solve_are",
    "solve_psi",
    "psi_residual",
    "elimination_solve",
    "uniqueness_certificate",
    "solve",
    "write_solution_csv",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "ELIMINATION_MAX_M",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
#: The elimination oracle nests one bisection level per regime; keep it small.
ELIMINATION_MAX_M = 4


class NonConvergence(RuntimeError):
    """Solver failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


class BracketFailure(RuntimeError):
    """The elimination root-finder could not bracket a sign change.

    This signals a bug, not a model property: a nonnegative solution always
    exists for valid parameters.
    """


@dataclass(frozen=True, eq=False)
class DominanceCertificate:
    """Strict diagonal dominance record for the matrix A_phi.

    A positive minimum margin certifies that the quadratic system cannot have
    two distinct nonnegative solutions.
    """

    matrix_A_phi: np.ndarray

    def margins(self) -> np.ndarray:
        """Row dominance margins: diagonal minus the off-diagonal absolute sums."""
        a = self.matrix_A_phi
        diag = np.diag(a)
        return diag - (np.sum(np.abs(a), axis=1) - np.abs(diag))

    @property
    def min_dominance_margin(self) -> float:
        """Smallest row margin; a positive value certifies uniqueness."""
        return float(np.min(self.margins()))


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    phi: np.ndarray
    psi: np.ndarray
    residual_phi: np.ndarray
    residual_psi: np.ndarray
    iterations: int
    certificate: DominanceCertificate


def _require_solvable(p: ModelParams) -> None:
    """Reject parameters outside the solver's hypotheses.

    Only what the quadratic and slope systems rely on is checked: finite
    inputs, nonnegative switching rates, r > 0, and strictly positive N and R.
    Noise and target levels never enter these systems, so sigma = 0 or
    arbitrary c, h are fine here even though the full model validation flags
    them.
    """
    problems = []
    for name, val in (("generator", p.gen.q), ("r", p.r), ("theta", p.theta),
                      ("c", p.c), ("h", p.h), ("N", p.N), ("R", p.R)):
        if not np.all(np.isfinite(val)):
            problems.append(f"{name} not finite")
    off = p.gen.q - np.diag(np.diag(p.gen.q))
    if np.any(off < 0.0):
        problems.append("generator off-diagonal entry negative")
    if not p.r > 0.0:
        problems.append("r not positive")
    if np.any(p.N <= 0.0):
        problems.append("N not positive")
    if np.any(p.R <= 0.0):
        problems.append("R not positive")
    if problems:
        raise ValueError("parameters outside solver hypotheses: " + "; ".join(problems))


def are_residual(phi, p: ModelParams) -> np.ndarray:
    """Componentwise defect of the quadratic system at phi (zero at a solution)."""
    phi = np.asarray(phi, dtype=float)
    return phi * phi / p.R + p.r * phi - p.gen.q @ phi - p.N


def solve_are(p: ModelParams) -> np.ndarray:
    """Unique nonnegative solution of the quadratic system by damped Newton.

    Starts at phi = 0.  The Jacobian diag(2 phi(i)/R(i) + r) - Q is strictly
    diagonally dominant for phi >= 0, hence invertible at every iterate; each
    step is halved until the residual norm decreases (at most 60 halvings) and
    iterates are clamped at 0 componentwise.

    Raises :class:`NonConvergence` if DEFAULT_MAX_ITER iterations do not
    reach DEFAULT_TOL.
    """
    phi, _ = _newton(p, DEFAULT_TOL, DEFAULT_MAX_ITER)
    return phi


def _newton(p: ModelParams, tol: float, max_iter: int):
    _require_solvable(p)
    if not tol > 0:
        raise ValueError("tol must be positive")
    q = p.gen.q
    phi = np.zeros(p.m)
    res = are_residual(phi, p)
    norm = float(np.max(np.abs(res)))
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return phi, it - 1
        jac = np.diag(2.0 * phi / p.R + p.r) - q
        step = np.linalg.solve(jac, -res)
        scale = 1.0
        for _ in range(60):
            cand = np.maximum(phi + scale * step, 0.0)
            cres = are_residual(cand, p)
            cnorm = float(np.max(np.abs(cres)))
            if cnorm < norm:
                break
            scale *= 0.5
        phi, res, norm = cand, cres, cnorm
    if norm <= tol:
        return phi, max_iter
    raise NonConvergence(
        f"Newton did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {norm:.3e})", norm)


def solve_psi(phi, p: ModelParams) -> np.ndarray:
    """Solve the linear slope system B_phi psi = b for a nonnegative curvature."""
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < 0):
        raise ValueError("phi must be nonnegative")
    bmat, rhs = _psi_system(phi, p)
    return np.linalg.solve(bmat, rhs)


def psi_residual(phi, psi, p: ModelParams) -> np.ndarray:
    """Componentwise defect B_phi psi - b of the slope system."""
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    bmat, rhs = _psi_system(phi, p)
    return bmat @ psi - rhs


def _psi_system(phi, p: ModelParams):
    q = p.gen.q
    exit_rates = -np.diag(q)  # row sums vanish, so sum_{j != i} q_ij = -q_ii
    off = q - np.diag(np.diag(q))
    bmat = np.diag(phi / p.R + p.r + exit_rates) - off
    rhs = (p.h - p.theta) * phi - p.N * p.c
    return bmat, rhs


def elimination_solve(p: ModelParams) -> np.ndarray:
    """Independent curvature solver by coordinate elimination.

    For fixed (phi_2, ..., phi_m) the first equation is a scalar quadratic in
    phi_1 with exactly one nonnegative root, available in closed form:

        phi_1 = [-(r + s_1) + sqrt((r + s_1)^2 + 4 (N_1 + coupling)/R_1)] * R_1 / 2,

    with s_i the exit rate of regime i.  Substituting that root eliminates
    phi_1; each remaining coordinate is then solved by bisection (the residual
    at 0 is <= -N(i) < 0, and an upper bracket is found by doubling), recursing
    through the last coordinate.  Shares no code with the Newton route.
    """
    _require_solvable(p)
    m = p.m
    if m > ELIMINATION_MAX_M:
        raise ValueError(f"elimination solver is limited to m <= {ELIMINATION_MAX_M}")
    q = p.gen.q
    big_r = [float(v) for v in p.R]
    big_n = [float(v) for v in p.N]
    r = p.r
    exit_rates = [float(-q[i, i]) for i in range(m)]
    off = q - np.diag(np.diag(q))

    def head_root(others) -> float:
        # unique nonnegative root of the first coordinate's quadratic
        coupling = float(off[0, 1:] @ others) if m > 1 else 0.0
        lin = r + exit_rates[0]
        disc = lin * lin + 4.0 * (big_n[0] + coupling) / big_r[0]
        return big_r[0] * (-lin + math.sqrt(disc)) / 2.0

    def solve_prefix(k: int, tail: np.ndarray) -> np.ndarray:
        # coordinates 0..k solved exactly, given fixed coordinates k+1..m-1
        if k == 0:
            return np.array([head_root(tail)])

        def residual_k(x: float) -> float:
            head = solve_prefix(k - 1, np.concatenate(([x], tail)))
            full = np.concatenate((head, [x], tail))
            coupling = float(off[k] @ full)
            return x * x / big_r[k] + (r + exit_rates[k]) * x - coupling - big_n[k]

        lo = 0.0  # residual_k(0) <= -N(k) < 0 because couplings are nonnegative
        hi = 1.0
        doublings = 0
        while residual_k(hi) <= 0.0:
            hi *= 2.0
            doublings += 1
            if doublings > 200:
                raise BracketFailure(
                    f"no sign change for coordinate {k + 1} below {hi:g}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break  # interval collapsed to machine resolution
            if residual_k(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        head = solve_prefix(k - 1, np.concatenate(([x], tail)))
        return np.concatenate((head, [x]))

    phi = solve_prefix(m - 1, np.empty(0))
    norm = float(np.max(np.abs(are_residual(phi, p))))
    if norm > 1e-10:
        raise NonConvergence(
            f"elimination residual {norm:.3e} above tol=1e-10", norm)
    return phi


def uniqueness_certificate(phi_a, phi_b, p: ModelParams) -> DominanceCertificate:
    """Certificate that two nonnegative solutions phi_a, phi_b must coincide.

    Builds A_phi with diagonal (phi_a(i)+phi_b(i))/R(i) + r + sum_{j != i} q_ij
    and off-diagonal -q_ij; its dominance margin is (phi_a+phi_b)/R + r >= r > 0
    rowwise, so A_phi is nonsingular and the difference phi_a - phi_b, which it
    annihilates, vanishes.
    """
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    if np.any(phi_a < 0) or np.any(phi_b < 0):
        raise ValueError("certificate inputs must be nonnegative")
    q = p.gen.q
    a = np.diag((phi_a + phi_b) / p.R + p.r) - q
    a.setflags(write=False)
    return DominanceCertificate(matrix_A_phi=a)


def solve(p: ModelParams, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> RiccatiSolution:
    """Full solve: curvature, slope, residuals, and the self-certificate."""
    phi, iterations = _newton(p, tol, max_iter)
    psi = solve_psi(phi, p)
    phi.setflags(write=False)
    psi.setflags(write=False)
    return RiccatiSolution(
        phi=phi,
        psi=psi,
        residual_phi=are_residual(phi, p),
        residual_psi=psi_residual(phi, psi, p),
        iterations=iterations,
        certificate=uniqueness_certificate(phi, phi, p),
    )


def write_solution_csv(sol: RiccatiSolution, fp) -> None:
    """Serialize per-regime solution values with columns regime, phi, psi, residual_phi, residual_psi."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["regime", "phi", "psi", "residual_phi", "residual_psi"])
    for i in range(len(sol.phi)):
        writer.writerow([
            i + 1,
            format(float(sol.phi[i]), ".12g"),
            format(float(sol.psi[i]), ".12g"),
            format(float(sol.residual_phi[i]), ".3e"),
            format(float(sol.residual_psi[i]), ".3e"),
        ])

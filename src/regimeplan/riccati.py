"""Coupled algebraic Riccati system for the value-function curvature and slope.

The curvature vector phi >= 0 solves, for each regime i,

    phi(i)^2 / R(i) + r phi(i) - sum_j q_ij phi(j) - N(i) = 0,        (quadratic system)

and the slope vector psi solves the linear system B_phi psi = b with

    B_phi(i,i) = phi(i)/R(i) + r + sum_{j != i} q_ij,
    B_phi(i,j) = -q_ij                       (j != i),
    b(i)       = (h(i) - theta(i)) phi(i) - N(i) c(i).

The quadratic system has a unique nonnegative solution; two independent
solvers are provided (damped Newton and the coordinate-elimination method)
together with the dominance margins (phi_a + phi_b)/R + r that certify it.
Newton (solve_are and solve) refuses a curvature outside the cheap bracket
[rho, cbar] that every row's own root and the constant supersolution give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "NonConvergence",
    "DominanceCertificate",
    "RiccatiSolution",
    "are_residual",
    "solve_are",
    "solve_psi",
    "psi_residual",
    "elimination_solve",
    "uniqueness_certificate",
    "solve",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "ELIMINATION_MAX_M",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
#: The elimination oracle nests one root search per regime; keep it small.
ELIMINATION_MAX_M = 4


class NonConvergence(RuntimeError):
    """Solver failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class DominanceCertificate:
    """Row dominance margins (phi_a + phi_b)/R + r of a uniqueness certificate.

    A positive minimum margin certifies that the quadratic system cannot have
    two distinct nonnegative solutions.
    """

    margins: np.ndarray

    @property
    def min_dominance_margin(self) -> float:
        """Smallest row margin; a positive value certifies uniqueness."""
        return float(np.min(self.margins))


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    phi: np.ndarray
    psi: np.ndarray
    residual_phi: np.ndarray
    residual_psi: np.ndarray
    iterations: int
    certificate: DominanceCertificate


def _require_solvable(p: ModelParams) -> None:
    """Reject parameters outside the solver's hypotheses: r > 0, N > 0 and R > 0.

    Finite inputs and nonnegative switching rates hold by construction of
    ModelParams and Generator.  Noise and target levels never enter the
    quadratic and slope systems, so sigma = 0 or arbitrary c, h are fine here
    even though validate_params flags them.
    """
    problems = []
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

    Starts at phi = 0.  The system is convex and its Jacobian
    diag(2 phi(i)/R(i) + r) - Q is a nonsingular M-matrix for phi >= 0, so a
    full step from phi >= 0 lands at or above the solution; steps are halved
    until the residual norm decreases (at most 60 halvings), staying >= 0.

    Raises :class:`NonConvergence` if DEFAULT_MAX_ITER iterations do not
    reach DEFAULT_TOL, if 60 halvings find no decrease, if the Jacobian
    is singular in floating point (rates so fast that r + exit rate rounds
    to the exit rate), or if the converged phi lies outside its bracket
    [rho, cbar] (_require_bracketed), as it does at the benchmark with N and
    R scaled by 2^-40, where Newton stops at phi = 0 after 0 iterations.
    Inside the bracket phi can still be off: 1.4% with N and R scaled by
    2^-34 to 2^-37.
    """
    phi, _ = _newton(p)
    return phi


def _newton(p: ModelParams):
    _require_solvable(p)
    tol, max_iter = DEFAULT_TOL, DEFAULT_MAX_ITER
    q = p.gen.q
    phi = np.zeros(p.m)
    res = are_residual(phi, p)
    norm = float(np.max(np.abs(res)))
    it = 0
    while norm > tol:
        if it == max_iter:
            raise NonConvergence(
                f"Newton did not reach tol={tol:g} in {max_iter} iterations "
                f"(last residual {norm:.3e})", norm)
        it += 1
        jac = np.diag(2.0 * phi / p.R + p.r) - q
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            raise NonConvergence(f"Newton's Jacobian is singular at iteration {it} "
                                 f"(last residual {norm:.3e})", norm) from None
        scale = 1.0
        for _ in range(60):
            cand = phi + scale * step
            cres = are_residual(cand, p)
            cnorm = float(np.max(np.abs(cres)))
            if cnorm < norm:
                break
            scale *= 0.5
        else:
            raise NonConvergence(f"Newton's line search stalled at iteration {it} "
                                 f"(last residual {norm:.3e})", norm)
        phi, res, norm = cand, cres, cnorm
    _require_bracketed(phi, p)
    return phi, it


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
    bmat = np.diag(phi / p.R + p.r) - p.gen.q
    rhs = (p.h - p.theta) * phi - p.N * p.c
    return bmat, rhs


def elimination_solve(p: ModelParams) -> np.ndarray:
    """Independent curvature solver by coordinate elimination.

    For fixed (phi_2, ..., phi_m) the first equation is a scalar quadratic in
    phi_1 with exactly one nonnegative root, available in closed form:

        phi_1 = 2 (N_1 + coupling) / [(r + s_1) + sqrt((r + s_1)^2 + 4 (N_1 + coupling)/R_1)],

    with s_i the exit rate of regime i and coupling = sum_{j != 1} q_1j phi_j.
    This is the textbook root R_1 [-(r + s_1) + sqrt(...)] / 2 rationalised: the
    textbook form cancels where 4 (N_1 + coupling)/R_1 is far below (r + s_1)^2,
    this one adds two positive terms.  Substituting that root eliminates
    phi_1; each remaining coordinate is then found by _bracketed_root on
    [0, cbar], recursing through the last coordinate.  The constant vector
    cbar = max_i 2 N_i / (r + sqrt(r^2 + 4 N_i/R_i)) is a supersolution (Q
    annihilates constants), and the off-diagonal rates are nonnegative, so
    every partially eliminated residual is <= -N_k at 0 and
    >= cbar^2/R_k + r cbar - N_k >= 0 at cbar.  The nest runs on Python
    floats and shares no code with the Newton route.

    Raises :class:`NonConvergence` unless every row's residual is at most
    1e-12 of the sum of its terms' magnitudes,
    phi_i^2/R_i + r phi_i + sum_j |q_ij| phi_j + N_i.
    """
    _require_solvable(p)
    m = p.m
    if m > ELIMINATION_MAX_M:
        raise ValueError(f"elimination solver is limited to m <= {ELIMINATION_MAX_M}")
    q = p.gen.q.tolist()
    big_r = p.R.tolist()
    big_n = p.N.tolist()
    r = p.r
    lin = [r - q[i][i] for i in range(m)]  # r + exit rate of regime i
    cbar = max(2.0 * n / (r + math.sqrt(r * r + 4.0 * n / rr)) for n, rr in zip(big_n, big_r))
    x = [0.0] * m  # the current point: solved head, trial coordinate, fixed tail

    def solve_prefix(k: int) -> None:
        # set x[0..k] to the exact solution given the fixed x[k+1..m-1]
        if k == 0:
            # unique nonnegative root of the first coordinate's quadratic
            coupling = 0.0
            for j in range(1, m):
                coupling += q[0][j] * x[j]
            disc = lin[0] * lin[0] + 4.0 * (big_n[0] + coupling) / big_r[0]
            x[0] = 2.0 * (big_n[0] + coupling) / (lin[0] + math.sqrt(disc))
            return
        row, rk, lk, nk = q[k], big_r[k], lin[k], big_n[k]

        def residual_k(t: float) -> float:
            x[k] = t
            solve_prefix(k - 1)
            coupling = 0.0
            for j in range(m):
                if j != k:
                    coupling += row[j] * x[j]
            return t * t / rk + lk * t - coupling - nk

        x[k] = _bracketed_root(residual_k, cbar)
        solve_prefix(k - 1)

    solve_prefix(m - 1)
    phi = np.array(x)
    terms = phi * phi / p.R + r * phi + np.abs(p.gen.q) @ phi + p.N
    worst = float(np.max(np.abs(are_residual(phi, p)) / terms))
    if not worst <= 1e-12:  # a NaN residual fails too
        raise NonConvergence(
            f"elimination relative residual {worst:.3e} above tol=1e-12", worst)
    return phi


def _bracketed_root(f, hi: float) -> float:
    """The sign change of f on [0, hi], for f(0) < 0 and f(hi) >= 0.

    Returns hi if f(hi) <= 0, which only rounding can cause for the caller's
    bracket, and returns any trial point where f is exactly 0.  Otherwise
    the bracket shrinks by false position with the Illinois modification
    (Dowell and Jarratt, BIT 11, 1971): an end kept twice in a row has its f
    value halved.  A trial point that rounds onto or past an end puts the
    root within rounding of that end, so the next float inside it is tried
    instead; halving from there took ~20 more evaluations.  A NaN trial
    point is replaced by the midpoint.  The search stops when the ends are
    adjacent floats, and returns their midpoint.  Where bisection takes ~55
    evaluations per level, this takes 7-14 (median 10) over 300 m = 2
    draws of the benchmark's instance generator.
    """
    lo, f_lo = 0.0, f(0.0)
    f_hi = f(hi)
    if f_hi <= 0.0:
        return hi
    side = 0  # +1 after the upper end moved, -1 after the lower end moved
    while hi - lo > math.ulp(hi):
        t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = (math.nextafter(lo, hi) if t <= lo else math.nextafter(hi, lo) if t >= hi
                 else 0.5 * (lo + hi))  # a NaN trial point bisects
            if not lo < t < hi:
                break  # interval collapsed to machine resolution
        f_t = f(t)
        if f_t > 0.0:
            hi, f_hi = t, f_t
            if side > 0:
                f_lo *= 0.5
            side = 1
        elif f_t < 0.0:
            lo, f_lo = t, f_t
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            return t
    return 0.5 * (lo + hi)


def uniqueness_certificate(phi_a, phi_b, p: ModelParams) -> DominanceCertificate:
    """Certificate that two nonnegative solutions phi_a, phi_b must coincide.

    A_phi = diag((phi_a + phi_b)/R + r) - Q annihilates phi_a - phi_b.  Q has
    nonnegative off-diagonal rates and zero row sums, so row i of A_phi is
    diagonally dominant by exactly (phi_a(i) + phi_b(i))/R(i) + r >= r > 0, the
    margin returned; A_phi is nonsingular and the difference vanishes.
    """
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    if np.any(phi_a < 0) or np.any(phi_b < 0):
        raise ValueError("certificate inputs must be nonnegative")
    margins = (phi_a + phi_b) / p.R + p.r
    margins.setflags(write=False)
    return DominanceCertificate(margins=margins)


def _require_bracketed(phi: np.ndarray, p: ModelParams) -> None:
    """NonConvergence unless phi lies in its cheap bracket, up to 1e-8 relative.

    Below: with the coupling sum_{j != i} q_ij phi(j) >= 0 dropped, row i's
    root is rho(i) = 2 N(i) / (l(i) + sqrt(l(i)^2 + 4 N(i)/R(i))) with
    l(i) = r - q_ii, and phi(i) >= rho(i).  Above: the constant cbar of
    elimination_solve is a supersolution, so phi(i) <= cbar.  The margin
    sits above the 2.4e-9 relative drift Newton shows on single-regime
    draws, where rho = cbar is the root; a NaN phi fails too.
    """
    lin = p.r - p.gen.q.diagonal()
    ratio = 4.0 * p.N / p.R
    low = 2.0 * p.N / (lin + np.sqrt(lin * lin + ratio))
    cbar = float(np.max(2.0 * p.N / (p.r + np.sqrt(p.r * p.r + ratio))))
    inside = (phi >= low * (1.0 - 1e-8)) & (phi <= cbar * (1.0 + 1e-8))
    if not inside.all():
        i = int(np.argmin(inside))
        norm = float(np.max(np.abs(are_residual(phi, p))))
        raise NonConvergence(
            f"Newton's phi({i + 1}) = {phi[i]:.6g} lies outside its bracket "
            f"[{low[i]:.6g}, {cbar:.6g}] (last residual {norm:.3e})", norm)


def solve(p: ModelParams) -> RiccatiSolution:
    """Full solve: curvature, slope, residuals, and the self-certificate.

    Raises NonConvergence as solve_are does, bracket refusal included.
    """
    phi, iterations = _newton(p)
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

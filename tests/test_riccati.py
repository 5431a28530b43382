"""Coupled quadratic system: Newton solver, elimination oracle, certificates."""

import io
import math

import numpy as np
import pytest

from regimeplan import (
    Generator,
    ModelParams,
    NonConvergence,
    are_residual,
    elimination_solve,
    psi_residual,
    solve,
    solve_are,
    solve_psi,
    uniqueness_certificate,
)
from regimeplan.riccati import write_solution_csv

from conftest import random_params

# independently frozen benchmark solution (12-digit run, rounded to 8 decimals)
PHI_BENCH = np.array([0.40833148, 0.36221726])
PSI_BENCH = np.array([-0.54891677, -0.23297408])


def one_regime_params():
    return ModelParams(gen=Generator([[0.0]]), r=0.05, theta=[4.0], sigma=[0.0],
                       c=[3.0], h=[5.0], N=[0.4], R=[0.5])


def test_benchmark_solution_frozen(sol_bench):
    assert np.max(np.abs(sol_bench.phi - PHI_BENCH)) < 1e-6
    assert np.max(np.abs(sol_bench.psi - PSI_BENCH)) < 1e-6
    # published 3-decimal cells
    assert np.max(np.abs(sol_bench.phi - [0.408, 0.362])) < 5e-4
    assert np.max(np.abs(sol_bench.psi - [-0.549, -0.233])) < 5e-4


def test_benchmark_residuals(p_bench, sol_bench):
    assert np.max(np.abs(are_residual(sol_bench.phi, p_bench))) <= 1e-10
    assert np.max(np.abs(psi_residual(sol_bench.phi, sol_bench.psi, p_bench))) <= 1e-10
    assert np.array_equal(sol_bench.residual_phi, are_residual(sol_bench.phi, p_bench))
    assert np.array_equal(sol_bench.residual_psi,
                          psi_residual(sol_bench.phi, sol_bench.psi, p_bench))
    assert sol_bench.iterations >= 1


def test_one_regime_closed_form():
    p = one_regime_params()
    sol = solve(p)
    r, N, R = p.r, p.N[0], p.R[0]
    phi_exact = 0.5 * R * (-r + math.sqrt(r * r + 4.0 * N / R))
    psi_exact = ((p.h[0] - p.theta[0]) * phi_exact - N * p.c[0]) / (phi_exact / R + r)
    assert sol.phi[0] == pytest.approx(phi_exact, abs=1e-12)
    assert sol.psi[0] == pytest.approx(psi_exact, abs=1e-12)


def test_nonnegative_root_selected(make_params):
    rng = np.random.default_rng(14)
    for _ in range(10):
        sol = solve(make_params(rng))
        assert np.all(sol.phi >= 0.0)


def test_cross_solver_benchmark(p_bench):
    phi_newton = solve_are(p_bench)
    phi_elim = elimination_solve(p_bench)
    assert np.max(np.abs(phi_newton - phi_elim)) <= 1e-8


def test_cross_solver_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = random_params(rng)
        phi_newton = solve_are(p)
        phi_elim = elimination_solve(p)
        assert np.max(np.abs(phi_newton - phi_elim)) <= 1e-8
        assert np.max(np.abs(are_residual(phi_newton, p))) <= 1e-10


def test_psi_linear_system(p_bench, sol_bench):
    psi = solve_psi(sol_bench.phi, p_bench)
    assert np.max(np.abs(psi - sol_bench.psi)) < 1e-12
    assert np.max(np.abs(psi_residual(sol_bench.phi, psi, p_bench))) <= 1e-12


def test_sigma_never_enters(p_bench, sol_bench):
    for sig in ([0.0, 0.0], [0.1, 0.3], [0.8, 1.2], [3.0, 5.0]):
        sol = solve(p_bench.replace(sigma=sig))
        assert np.max(np.abs(sol.phi - sol_bench.phi)) < 1e-12
        assert np.max(np.abs(sol.psi - sol_bench.psi)) < 1e-12


def test_phi_monotone_in_state_weight():
    rng = np.random.default_rng(7)
    for _ in range(15):
        p = random_params(rng, m=int(rng.integers(2, 4)))
        i = int(rng.integers(0, p.m))
        bumped = np.array(p.N)
        bumped[i] += float(rng.uniform(0.1, 1.0))
        phi_lo = solve_are(p)
        phi_hi = solve_are(p.replace(N=bumped))
        assert np.all(phi_hi >= phi_lo - 1e-12)
        assert phi_hi[i] > phi_lo[i]


def test_certificate_margin(p_bench, sol_bench):
    cert = sol_bench.certificate
    expected = 2.0 * PHI_BENCH[0] / 0.5 + 0.05  # row 1 attains the min
    assert cert.min_dominance_margin == pytest.approx(expected, abs=1e-6)
    assert cert.min_dominance_margin == pytest.approx(1.683326, abs=1e-5)
    a = np.diag(2.0 * sol_bench.phi / p_bench.R + p_bench.r) - p_bench.gen.q
    assert np.allclose(cert.matrix_A_phi, a)


def test_certificate_standalone(p_bench, sol_bench):
    cert = uniqueness_certificate(sol_bench.phi, sol_bench.phi, p_bench)
    assert cert.min_dominance_margin > p_bench.r
    with pytest.raises(ValueError, match="nonnegative"):
        uniqueness_certificate(-sol_bench.phi, sol_bench.phi, p_bench)


def test_determinism(p_bench):
    a = solve(p_bench)
    b = solve(p_bench)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.psi, b.psi)


def test_nonconvergence_raises(p_bench):
    with pytest.raises(NonConvergence) as err:
        solve(p_bench, max_iter=1)
    assert err.value.residual > 0.0


def test_solver_hypothesis_checks(p_bench):
    with pytest.raises(ValueError, match="N not positive"):
        solve(p_bench.replace(N=[0.4, 0.0]))
    with pytest.raises(ValueError, match="r not positive"):
        solve(p_bench.replace(r=0.0))
    with pytest.raises(ValueError, match="off-diagonal"):
        solve(p_bench.replace(gen=Generator([[1.0, -1.0], [2.0, -2.0]])))
    with pytest.raises(ValueError, match="tol"):
        solve(p_bench, tol=0.0)
    with pytest.raises(ValueError, match="theta not finite"):
        solve(p_bench.replace(theta=[np.nan, 2.5]))
    with pytest.raises(ValueError, match="r not finite"):
        solve(p_bench.replace(r=np.inf))


def test_zero_sigma_accepted(p_bench):
    # noise never enters the quadratic or slope systems
    sol = solve(p_bench.replace(sigma=[0.0, 0.0]))
    assert np.max(np.abs(sol.phi - PHI_BENCH)) < 1e-6


def test_elimination_size_cap():
    rng = np.random.default_rng(3)
    p = random_params(rng, m=3)
    big = ModelParams(gen=Generator(rng.uniform(0.1, 1.0, size=(5, 5))), r=0.05,
                      theta=np.ones(5), sigma=np.ones(5), c=np.ones(5),
                      h=np.ones(5), N=np.ones(5), R=np.ones(5))
    elimination_solve(p)  # within the cap
    with pytest.raises(ValueError, match="m <= 4"):
        elimination_solve(big)


def test_solution_csv(sol_bench):
    buf = io.StringIO()
    write_solution_csv(sol_bench, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "regime,phi,psi,residual_phi,residual_psi"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(PHI_BENCH[0], abs=1e-6)

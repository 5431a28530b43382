"""Hamiltonian structure, feedback law, and the analytic value function."""

import numpy as np
import pytest

from regimeplan import (
    default_grid,
    feedback_control,
    hamiltonian,
    hamiltonian_minimizer,
    policy_coefficients,
    value_constant,
    value_function,
    value_report,
)

SLOPE_BENCH = np.array([-0.81666297, -0.90554315])
INTERCEPT_BENCH = np.array([6.09783353, 4.58243521])
W_BENCH = np.array([10.83452872, 10.35298187])


def test_feedback_coefficients_frozen(p_bench, sol_bench):
    coeffs = policy_coefficients(sol_bench, p_bench)
    assert np.max(np.abs(coeffs.slope - SLOPE_BENCH)) < 1e-6
    assert np.max(np.abs(coeffs.intercept - INTERCEPT_BENCH)) < 1e-6
    # published 3-decimal cells derive from rounded phi, psi; stay within a cell
    assert np.max(np.abs(coeffs.slope - [-0.816, -0.906])) < 1e-3
    assert np.max(np.abs(coeffs.intercept - [6.098, 4.582])) < 1e-3


def test_minimizer_formula_and_optimality(p_bench):
    rng = np.random.default_rng(9)
    for _ in range(20):
        i = int(rng.integers(1, 3))
        x = float(rng.uniform(-8.0, 8.0))
        y = float(rng.uniform(-5.0, 5.0))
        z = float(rng.uniform(-2.0, 2.0))
        u_star = hamiltonian_minimizer(i, y, p_bench)
        assert u_star == pytest.approx(p_bench.h[i - 1] - y / p_bench.R[i - 1])
        h0 = hamiltonian(x, i, u_star, y, z, p_bench)
        for eps in (-0.5, -1e-3, 1e-3, 0.5):
            assert hamiltonian(x, i, u_star + eps, y, z, p_bench) >= h0


def test_hamiltonian_curvatures(p_bench):
    # H is quadratic, so second differences recover N and R exactly
    x, i, y, z, e = 1.7, 2, 0.8, -0.4, 0.5
    u = 3.0
    d2u = (hamiltonian(x, i, u + e, y, z, p_bench)
           - 2.0 * hamiltonian(x, i, u, y, z, p_bench)
           + hamiltonian(x, i, u - e, y, z, p_bench)) / e ** 2
    assert d2u == pytest.approx(p_bench.R[i - 1], abs=1e-9)
    d2x = (hamiltonian(x + e, i, u, y, z, p_bench)
           - 2.0 * hamiltonian(x, i, u, y, z, p_bench)
           + hamiltonian(x - e, i, u, y, z, p_bench)) / e ** 2
    assert d2x == pytest.approx(p_bench.N[i - 1], abs=1e-9)


def test_feedback_is_pointwise_minimizer(p_bench, sol_bench):
    for i in (1, 2):
        for x in (-6.0, 0.0, 4.5):
            y = sol_bench.phi[i - 1] * x + sol_bench.psi[i - 1]
            assert feedback_control(x, i, sol_bench, p_bench) == pytest.approx(
                hamiltonian_minimizer(i, y, p_bench), abs=1e-12)


def test_feedback_broadcasts(p_bench, sol_bench):
    xs = np.array([-1.0, 0.0, 2.0])
    us = feedback_control(xs, 1, sol_bench, p_bench)
    assert us.shape == (3,)
    assert us[1] == pytest.approx(feedback_control(0.0, 1, sol_bench, p_bench))


def test_value_constant_frozen(p_bench, sol_bench):
    w = value_constant(sol_bench, p_bench)
    assert np.max(np.abs(w - W_BENCH)) < 1e-6


def test_value_report_decomposition(p_bench, sol_bench):
    rep = value_report(sol_bench, p_bench)
    assert rep.grid.shape == (401,)
    assert rep.grid[0] == -10.0
    assert rep.grid[-1] == 10.0
    assert rep.table.shape == (401, 2)
    for k in (0, 137, 400):
        for i in (1, 2):
            direct = value_function(float(rep.grid[k]), i, sol_bench, p_bench)
            assert rep.table[k, i - 1] == pytest.approx(direct, abs=1e-12)
            assert rep.value(float(rep.grid[k]), i) == pytest.approx(direct, abs=1e-12)
    assert np.allclose(2.0 * rep.quad, sol_bench.phi)
    assert np.allclose(rep.lin, sol_bench.psi)


def test_value_nonnegative_on_grid(p_bench, sol_bench):
    rep = value_report(sol_bench, p_bench)
    assert np.all(rep.table >= 0.0)


def test_value_curvature(p_bench, sol_bench):
    e = 1.0
    for i in (1, 2):
        d2 = (value_function(e, i, sol_bench, p_bench)
              - 2.0 * value_function(0.0, i, sol_bench, p_bench)
              + value_function(-e, i, sol_bench, p_bench)) / e ** 2
        assert d2 == pytest.approx(sol_bench.phi[i - 1], abs=1e-9)


def test_default_grid_override():
    g = default_grid(-2.0, 2.0, 5)
    assert np.array_equal(g, [-2.0, -1.0, 0.0, 1.0, 2.0])

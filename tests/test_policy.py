"""Feedback law and the analytic value function."""

import numpy as np
import pytest

from regimeplan import (
    PolicyCoefficients,
    default_grid,
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


def test_value_report_rejects_non_finite_table(p_bench, sol_bench):
    # x^2 overflows at 1e160; the overflow warning must not leak either
    with pytest.raises(ValueError, match="value table is not finite"):
        value_report(sol_bench, p_bench, default_grid(-1e160, 1e160, 3))


def test_regime_out_of_range_raises(p_bench, sol_bench):
    # neither 0 (which would wrap to regime m) nor m + 1 names a regime
    coeffs = PolicyCoefficients(slope=np.array([-1.0, -2.0]),
                                intercept=np.array([1.0, 2.0]))
    for i in (0, p_bench.m + 1):
        with pytest.raises(ValueError, match="regime index must be in 1..2"):
            value_function(0.0, i, sol_bench, p_bench)
        with pytest.raises(ValueError, match="regime index must be in 1..2"):
            coeffs(1.0, i, 0.0)
        with pytest.raises(ValueError, match="regime index must be in 1..2"):
            coeffs(np.zeros(3), np.array([1, i, 2]), 0.0)

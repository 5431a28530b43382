"""The fast-switching limit as an oracle: with Q = lambda Q0 and pi the
stationary law of Q0, phi -> phibar 1, where phibar is the positive root of
phibar^2 <1/R>_pi + r phibar - <N>_pi = 0, and w -> <g>_pi / r, each at
rate 1 / lambda (Yin & Zhang, Continuous-Time Markov Chains and
Applications: A Two-Time-Scale Approach, 2nd ed., 2013)."""

import numpy as np
import pytest

from regimeplan import (
    Generator,
    ModelParams,
    discounted_resolvent,
    elimination_solve,
    solve_are,
)

Q0 = np.array([[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3], [1.0, 1.0, -2.0]])
N = np.array([0.4, 0.3, 0.9])
R = np.array([0.5, 0.4, 0.2])
G = np.array([1.0, -2.0, 3.0])
RATE = 0.05

# max |phi - phibar| x lambda read 0.090-0.091 for Newton and elimination,
# and max |w - wbar| x lambda 2.01, at lambda = 1e2 ... 1e5; fixed from those
# readings before these tests first ran
PHI_SCALE = 0.1
W_SCALE = 2.1


def stationary(q0):
    """pi with pi Q0 = 0 and sum(pi) = 1."""
    a = np.vstack([q0.T, np.ones(q0.shape[0])])
    return np.linalg.lstsq(a, np.r_[np.zeros(q0.shape[0]), 1.0], rcond=None)[0]


def limits():
    """(phibar, wbar) of the instance above."""
    pi = stationary(Q0)
    a, c = pi @ (1.0 / R), pi @ N
    phibar = 2.0 * c / (RATE + np.sqrt(RATE * RATE + 4.0 * a * c))  # the positive root
    return phibar, pi @ G / RATE


def fast(lam):
    one = np.ones(3)
    return ModelParams(gen=Generator(lam * Q0), r=RATE, theta=one, sigma=one, c=one, h=one,
                       N=N, R=R)


def test_limits_solve_their_equations():
    phibar, wbar = limits()
    pi = stationary(Q0)
    assert np.allclose(pi @ Q0, 0.0, atol=1e-15) and pi.min() > 0
    assert phibar > 0
    assert phibar ** 2 * (pi @ (1.0 / R)) + RATE * phibar - pi @ N == pytest.approx(0.0, abs=1e-15)
    assert wbar == pytest.approx(pi @ G / RATE)


@pytest.mark.parametrize("lam", [1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("solver", [solve_are, elimination_solve])
def test_phi_tends_to_the_averaged_root(solver, lam):
    phibar, _ = limits()
    assert np.max(np.abs(solver(fast(lam)) - phibar)) * lam <= PHI_SCALE


@pytest.mark.parametrize("lam", [1e2, 1e3, 1e4, 1e5])
def test_w_tends_to_the_averaged_functional(lam):
    _, wbar = limits()
    w = discounted_resolvent(Generator(lam * Q0), RATE, G)
    assert np.max(np.abs(w - wbar)) * lam <= W_SCALE


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND: elimination_solve passes its relative gate "
                   "at lambda = 1e13 while phi is off the limit by ~1e8 / lambda")
def test_elimination_at_extreme_rates():
    phibar, _ = limits()
    assert np.max(np.abs(elimination_solve(fast(1e13)) - phibar)) * 1e13 <= PHI_SCALE


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND and ROADMAP item 8: the dense LU in "
                   "discounted_resolvent loses accuracy as lambda / r; ~104 / lambda at 1e8")
def test_resolvent_at_extreme_rates():
    _, wbar = limits()
    w = discounted_resolvent(Generator(1e8 * Q0), RATE, G)
    assert np.max(np.abs(w - wbar)) * 1e8 <= W_SCALE

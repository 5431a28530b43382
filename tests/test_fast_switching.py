"""The fast-switching limit as an oracle: with Q = lambda Q0 and pi the
stationary law of Q0, phi -> phibar 1, where phibar is the positive root of
phibar^2 <1/R>_pi + r phibar - <N>_pi = 0, and w -> <g>_pi / r, each at
rate 1 / lambda; phi's first-order term phi1 leaves an O(lambda^-2)
remainder (Yin & Zhang, Continuous-Time Markov Chains and Applications: A
Two-Time-Scale Approach, 2nd ed., 2013)."""

import numpy as np
import pytest

from regimeplan import (
    Generator,
    ModelParams,
    NonConvergence,
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
# max |phi - phibar - phi1 / lambda| x lambda^2 read 0.172-0.179 on the instance
# above and 0.084-0.108 on random_q0(100) and random_q0(101), for Newton and
# elimination at lambda = 1e2 ... 1e5; fixed from those readings before the
# first-order test first ran
PHI1_SCALE = 0.5


def stationary(q0):
    """pi with pi Q0 = 0 and sum(pi) = 1."""
    a = np.vstack([q0.T, np.ones(q0.shape[0])])
    return np.linalg.lstsq(a, np.r_[np.zeros(q0.shape[0]), 1.0], rcond=None)[0]


def averaged_root(pi):
    """phibar of the instance's N and R under the stationary law pi."""
    a, c = pi @ (1.0 / R), pi @ N
    return 2.0 * c / (RATE + np.sqrt(RATE * RATE + 4.0 * a * c))  # the positive root


def limits():
    """(phibar, wbar) of the instance above."""
    pi = stationary(Q0)
    return averaged_root(pi), pi @ G / RATE


def first_order(q0):
    """(phibar, phi1) with phi = phibar 1 + phi1 / lambda + O(lambda^-2) at Q = lambda q0.

    phi1 = y + kappa 1, where q0 y = d and pi . y = 0 with
    d_i = phibar^2 / R_i + r phibar - N_i (pi . d = 0 makes it solvable), and
    kappa = -pi . ((2 phibar / R + r) y) / pi . (2 phibar / R + r), which is
    what the O(1 / lambda) equation needs to be solvable in turn.
    """
    pi = stationary(q0)
    phibar = averaged_root(pi)
    d = phibar ** 2 / R + RATE * phibar - N
    y = np.linalg.lstsq(np.vstack([q0, pi]), np.r_[d, 0.0], rcond=None)[0]
    slope = 2.0 * phibar / R + RATE
    return phibar, y - (pi @ (slope * y)) / (pi @ slope)


def random_q0(seed):
    """A 3-regime generator with off-diagonal rates uniform over 0.1..1."""
    off = np.random.default_rng(seed).uniform(0.1, 1.0, size=(3, 3))
    np.fill_diagonal(off, 0.0)
    return off - np.diag(off.sum(axis=1))


def fast(lam, q0=Q0):
    one = np.ones(3)
    return ModelParams(gen=Generator(lam * q0), r=RATE, theta=one, sigma=one, c=one, h=one,
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


@pytest.mark.parametrize("solver, lam", [
    *((solver, lam) for solver in (solve_are, elimination_solve) for lam in (1e2, 1e3, 1e4)),
    pytest.param(solve_are, 1e5, marks=pytest.mark.xfail(
        strict=True, raises=NonConvergence,
        reason="ROADMAP item 2: Newton's absolute 1e-12 tolerance is below the rounding "
        "floor of lambda-sized rows, so its line search stalls on some draws")),
    (elimination_solve, 1e5),
])
def test_phi_first_order_term(solver, lam):
    for seed in range(10):
        q0 = random_q0(seed)
        phibar, phi1 = first_order(q0)
        assert np.max(np.abs(solver(fast(lam, q0)) - phibar - phi1 / lam)) * lam ** 2 <= PHI1_SCALE


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

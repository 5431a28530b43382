"""Coupled quadratic system: Newton solver, elimination oracle, certificates."""

import importlib.util
import math
from pathlib import Path

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
from regimeplan import riccati

from conftest import random_params

# perfbench's instance generator, which the benchmark's Newton-vs-elimination ops draw from
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# independently frozen benchmark solution (12-digit run, rounded to 8 decimals)
PHI_BENCH = np.array([0.40833148, 0.36221726])
PSI_BENCH = np.array([-0.54891677, -0.23297408])


def relative_residual(phi, p):
    """max_i |F_i(phi)| over the magnitudes of row i's terms."""
    terms = phi * phi / p.R + p.r * phi + np.abs(p.gen.q) @ phi + p.N
    return float(np.max(np.abs(are_residual(phi, p)) / terms))


@pytest.fixture
def root_evaluations(monkeypatch):
    """Evaluations of f in each _bracketed_root call, in call order."""
    counts = []
    bracketed_root = riccati._bracketed_root

    def counted(f, *args):
        counts.append(0)
        slot = len(counts) - 1

        def g(t):
            counts[slot] += 1
            return f(t)

        return bracketed_root(g, *args)

    monkeypatch.setattr(riccati, "_bracketed_root", counted)
    return counts


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


def test_nonconvergence_raises(p_bench, monkeypatch):
    monkeypatch.setattr(riccati, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(NonConvergence) as err:
        solve(p_bench)
    assert err.value.residual > 0.0


def test_solver_hypothesis_checks(p_bench):
    with pytest.raises(ValueError, match="N not positive"):
        solve(p_bench.replace(N=[0.4, 0.0]))
    with pytest.raises(ValueError, match="r not positive"):
        solve(p_bench.replace(r=0.0))
    with pytest.raises(ValueError, match="off-diagonal"):
        solve(p_bench.replace(gen=Generator([[1.0, -1.0], [2.0, -2.0]])))
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


def test_elimination_matches_newton_at_m4():
    rng = np.random.default_rng(44)
    for _ in range(5):
        p = random_params(rng, m=4)
        phi_elim = elimination_solve(p)
        assert np.max(np.abs(solve_are(p) - phi_elim)) <= 1e-8
        assert np.max(np.abs(are_residual(phi_elim, p))) <= 1e-10


def test_elimination_identical_regimes_closed_form(root_evaluations):
    # equal regimes: the couplings cancel and each phi(i) is the scalar root,
    # which is also the upper end of the bracket; rounding leaves f <= 0 there,
    # so the search returns that end after evaluating f at both ends
    r, n, big_r = 0.05, 0.7, 0.3
    p = ModelParams(gen=Generator.two_state_symmetric(1.3), r=r, theta=[1.0, 1.0],
                    sigma=[0.5, 0.5], c=[2.0, 2.0], h=[3.0, 3.0], N=[n, n], R=[big_r, big_r])
    phi_exact = 0.5 * big_r * (-r + math.sqrt(r * r + 4.0 * n / big_r))
    phi = elimination_solve(p)
    assert phi == pytest.approx([phi_exact, phi_exact], rel=1e-14)
    assert root_evaluations == [2]


def test_elimination_wide_weight_scales():
    q = [[0.0, 0.5, 0.2, 0.3], [0.4, 0.0, 0.1, 0.6],
         [1.0, 0.2, 0.0, 0.8], [0.3, 0.3, 0.3, 0.0]]
    ones = np.ones(4)
    p = ModelParams(gen=Generator(q), r=0.05, theta=ones, sigma=ones, c=ones, h=ones,
                    N=[1e-6, 0.3, 40.0, 1e3], R=[0.5, 2.0, 0.1, 1.0])
    phi_elim = elimination_solve(p)
    phi_newton = solve_are(p)
    assert np.max(np.abs(phi_newton - phi_elim)) <= 1e-8
    assert np.max(np.abs(are_residual(phi_elim, p))) <= 1e-10


def test_elimination_keeps_relative_accuracy_at_small_state_weights():
    # with N scaled by 1e-9, 4 (N_1 + coupling)/R_1 is far below (r + s_1)^2:
    # the textbook first root cancels to ~1e-8 relative, the rationalised one
    # stays at rounding; instances are drawn as the benchmark draws its m <= 3 ones
    rng = np.random.default_rng(0)
    worst = 0.0
    for m in (1, 2, 3):
        for _ in range(20):
            p = workloads.random_params(rng, m, 0.1, 3.0)
            p = p.replace(N=p.N * 1e-9)
            worst = max(worst, relative_residual(elimination_solve(p), p))
    assert worst <= 1e-14


def test_elimination_outer_level_takes_few_evaluations(root_evaluations):
    # an exact zero of the outer residual used to become the lower end, after
    # which the search bisected from there; it now returns that point
    rng = np.random.default_rng(5)
    for _ in range(6):
        elimination_solve(workloads.random_params(rng, 2, 0.1, 3.0))
    assert len(root_evaluations) == 6  # m = 2: one bracketed level per solve
    assert sum(root_evaluations) <= 100


def test_elimination_outer_level_does_not_crawl(root_evaluations):
    # on the fourth draw false position lands on the root, where f rounds to
    # -2.2e-16; the next trial point rounds onto that lower end, and halving
    # from there took 31 evaluations where the other draws take 10-11
    rng = np.random.default_rng(5)
    for _ in range(6):
        elimination_solve(workloads.random_params(rng, 2, 0.1, 3.0))
    assert len(root_evaluations) == 6
    assert max(root_evaluations) <= 15


@pytest.mark.parametrize("scale", ["N x 1e9", "N x 1e-9", "R x 1e-9", "rate 1e8"])
def test_elimination_scale_relative_at_extreme_scales(p_bench, scale):
    p = {"N x 1e9": p_bench.replace(N=p_bench.N * 1e9),
         "N x 1e-9": p_bench.replace(N=p_bench.N * 1e-9),
         "R x 1e-9": p_bench.replace(R=p_bench.R * 1e-9),
         "rate 1e8": p_bench.replace(gen=Generator.two_state_symmetric(1e8))}[scale]
    assert relative_residual(elimination_solve(p), p) <= 1e-14


def test_elimination_refuses_an_overflowing_residual():
    # phi is ~1e300, so phi^2/R overflows and the relative residual is inf/inf
    p = one_regime_params().replace(N=[1e300], R=[1e300])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonConvergence):
        elimination_solve(p)


def test_elimination_solves_draws_over_wide_scales():
    # m = 1-4; N and R log-uniform over 1e-9..1e9; off-diagonal rates
    # log-uniform over 1e-3..1e3 with 30% zeros; r log-uniform over 1e-3..1
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        off = 10.0 ** rng.uniform(-3.0, 3.0, size=(m, m)) * (rng.uniform(size=(m, m)) >= 0.3)
        ones = np.ones(m)
        p = ModelParams(gen=Generator(off), r=float(10.0 ** rng.uniform(-3.0, 0.0)),
                        theta=ones, sigma=ones, c=ones, h=ones,
                        N=10.0 ** rng.uniform(-9.0, 9.0, size=m),
                        R=10.0 ** rng.uniform(-9.0, 9.0, size=m))
        elimination_solve(p)


@pytest.mark.parametrize("f, hi, root", [(lambda t: t * t - 2.0, 2.0, math.sqrt(2.0)),
                                         (lambda t: math.sqrt(t) - 0.3, 1.0, 0.09)],
                         ids=["convex", "concave"])
def test_bracketed_root_converges_in_few_steps(f, hi, root):
    # a convex f pins the upper end and a concave f the lower one, so each
    # case needs its own Illinois halving
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    assert abs(riccati._bracketed_root(counted, hi) - root) <= math.ulp(root)
    assert len(calls) <= 15  # bisection would take ~55


def test_bracketed_root_returns_an_exact_zero():
    calls = []

    def f(t):
        calls.append(t)
        return t - 0.5

    assert riccati._bracketed_root(f, 1.0) == 0.5
    assert len(calls) <= 3


@pytest.mark.parametrize("f_hi", [0.0, -1e-16])
def test_bracketed_root_returns_upper_end_without_sign_change(f_hi):
    calls = []

    def f(t):
        calls.append(t)
        return -1.0 if t < 1.0 else f_hi

    assert riccati._bracketed_root(f, 1.0) == 1.0
    assert calls == [0.0, 1.0]

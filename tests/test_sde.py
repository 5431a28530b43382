"""Controlled simulation: scheme order, determinism, estimators, adjoint identity."""

import io
import math

import numpy as np
import pytest

from regimeplan import (
    Generator,
    MCEstimate,
    ModelParams,
    PolicyCoefficients,
    SimConfig,
    adjoint_residual,
    asymptotic_decay,
    mc_cost,
    policy_coefficients,
    shifted_policy,
    simulate_controlled,
    solve,
    value_function,
)
from regimeplan import sde
from regimeplan.riccati import RiccatiSolution
from regimeplan.sde import write_mc_summary_csv, write_path_csv


def one_regime_params():
    return ModelParams(gen=Generator([[0.0]]), r=0.05, theta=[4.0], sigma=[0.0],
                       c=[3.0], h=[5.0], N=[0.4], R=[0.5])


def closed_loop_equilibrium(sol, p, i):
    coeffs = policy_coefficients(sol, p)
    j = i - 1
    return (p.theta[j] - coeffs.intercept[j]) / coeffs.slope[j]


def test_simconfig_validation():
    with pytest.raises(ValueError, match="dt"):
        SimConfig(dt=0.0, horizon=1.0, n_paths=1, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(dt=0.5, horizon=0.1, n_paths=1, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig(dt=0.1, horizon=1.0, n_paths=0, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="i0"):
        SimConfig(dt=0.1, horizon=1.0, n_paths=1, seed=0, x0=0.0, i0=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=bad, horizon=1.0, n_paths=1, seed=0, x0=0.0, i0=1)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(dt=0.1, horizon=bad, n_paths=1, seed=0, x0=0.0, i0=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x0"):
            SimConfig(dt=0.1, horizon=1.0, n_paths=1, seed=0, x0=bad, i0=1)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(dt=0.1, horizon=1.0, n_paths=1, seed=-1, x0=0.0, i0=1)


def test_simconfig_grid():
    cfg = SimConfig(dt=0.1, horizon=0.94, n_paths=1, seed=0, x0=0.0, i0=1)
    assert cfg.n_steps == 9
    t = cfg.times()
    assert t.shape == (10,)
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.9)


def test_mc_estimate_validation():
    with pytest.raises(ValueError, match="std_error"):
        MCEstimate(mean=1.0, std_error=-1.0, n=2, truncation_bound=0.0)
    with pytest.raises(ValueError, match="truncation_bound"):
        MCEstimate(mean=1.0, std_error=0.0, n=2, truncation_bound=-0.1)
    with pytest.raises(ValueError, match="n must be positive"):
        MCEstimate(mean=1.0, std_error=0.0, n=0, truncation_bound=0.0)


def test_noiseless_path_converges_at_first_order():
    # with sigma = 0 and one regime the dynamics reduce to a linear ODE
    p = one_regime_params()
    sol = solve(p)
    kappa = float(sol.phi[0] / p.R[0])
    xbar = closed_loop_equilibrium(sol, p, 1)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        cfg = SimConfig(dt=dt, horizon=10.0, n_paths=1, seed=0, x0=0.0, i0=1)
        cp = simulate_controlled(p, sol, cfg)[0]
        exact = xbar + (0.0 - xbar) * np.exp(-kappa * cp.times)
        errs.append(float(np.max(np.abs(cp.x - exact))))
    assert errs[0] > errs[1] > errs[2]
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


def test_equilibrium_start_stays_put():
    p = one_regime_params()
    sol = solve(p)
    xbar = closed_loop_equilibrium(sol, p, 1)
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=1, seed=0, x0=xbar, i0=1)
    cp = simulate_controlled(p, sol, cfg)[0]
    assert np.max(np.abs(cp.x - xbar)) < 1e-10


def test_zero_weights_zero_cost():
    p = ModelParams(gen=Generator.two_state_symmetric(1.0), r=0.05,
                    theta=[4.0, 2.5], sigma=[0.6, 0.8], c=[3.0, 1.5],
                    h=[5.0, 4.0], N=[0.0, 0.0], R=[0.0, 0.0])
    cfg = SimConfig(dt=0.05, horizon=5.0, n_paths=4, seed=3, x0=0.0, i0=1)
    zero = np.zeros(2)
    for policy in (lambda x, i, t: np.zeros_like(x), PolicyCoefficients(zero, zero)):
        est = mc_cost(p, policy, cfg)
        assert est.mean == 0.0
        assert est.std_error == 0.0
        assert est.truncation_bound == 0.0


def test_bitwise_determinism(p_bench, sol_bench):
    cfg = SimConfig(dt=0.05, horizon=5.0, n_paths=6, seed=99, x0=0.0, i0=1)
    a = simulate_controlled(p_bench, sol_bench, cfg)
    b = simulate_controlled(p_bench, sol_bench, cfg)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x, pb.x)
        assert np.array_equal(pa.u, pb.u)
        assert np.array_equal(pa.regime, pb.regime)
        assert np.array_equal(pa.disc_cost, pb.disc_cost)
    assert mc_cost(p_bench, sol_bench, cfg) == mc_cost(p_bench, sol_bench, cfg)


def test_path_k_independent_of_batch_size(p_bench, sol_bench):
    big = SimConfig(dt=0.05, horizon=5.0, n_paths=6, seed=99, x0=0.0, i0=1)
    small = SimConfig(dt=0.05, horizon=5.0, n_paths=3, seed=99, x0=0.0, i0=1)
    a = simulate_controlled(p_bench, sol_bench, big)
    b = simulate_controlled(p_bench, sol_bench, small)
    for k in range(3):
        assert np.array_equal(a[k].x, b[k].x)
        assert np.array_equal(a[k].regime, b[k].regime)


def test_block_and_chunk_invariance(p_bench, sol_bench, monkeypatch):
    # 401 grid nodes: not a multiple of the patched chunk of 7
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=10, seed=5, x0=1.0, i0=2)
    est = mc_cost(p_bench, sol_bench, cfg)
    paths = simulate_controlled(p_bench, sol_bench, cfg)
    monkeypatch.setattr(sde, "_BLOCK", 3)
    monkeypatch.setattr(sde, "_CHUNK", 7)
    assert mc_cost(p_bench, sol_bench, cfg) == est
    for a, b in zip(paths, simulate_controlled(p_bench, sol_bench, cfg)):
        for name in ("x", "u", "regime", "disc_cost"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_kept_paths_share_estimate_arithmetic(p_bench, sol_bench):
    # simulate_controlled records the states the estimators integrate
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=50, seed=8, x0=1.0, i0=1)
    paths = simulate_controlled(p_bench, sol_bench, cfg)
    x_end = np.array([cp.x[-1] for cp in paths])
    ((_, decay, _),) = asymptotic_decay(p_bench, sol_bench, cfg, (cfg.horizon,))
    assert math.exp(-p_bench.r * cfg.n_steps * cfg.dt) * float(np.mean(x_end ** 2)) == decay
    kept_cost = float(np.mean([cp.disc_cost[-1] for cp in paths]))
    assert kept_cost == pytest.approx(mc_cost(p_bench, sol_bench, cfg).mean, rel=1e-12)


def test_shifted_policy_fast_path_matches_callable(p_bench, sol_bench):
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=50, seed=8, x0=0.0, i0=1)
    shifted = shifted_policy(sol_bench, p_bench, 0.5)
    coeffs = policy_coefficients(sol_bench, p_bench)

    def plain(x, i, t):
        idx = np.asarray(i) - 1
        return coeffs.slope[idx] * x + coeffs.intercept[idx] + 0.5

    xs, regs = np.linspace(-3.0, 3.0, 4), np.array([1, 2, 2, 1])
    np.testing.assert_allclose(shifted(xs, regs, 0.0), plain(xs, regs, 0.0), rtol=1e-14)
    a = mc_cost(p_bench, shifted, cfg)
    b = mc_cost(p_bench, plain, cfg)
    assert a.mean == pytest.approx(b.mean, rel=1e-12)
    assert a.std_error == pytest.approx(b.std_error, rel=1e-12)
    assert a.truncation_bound == pytest.approx(b.truncation_bound, rel=1e-12)


def test_simulate_refuses_retention_over_budget(p_bench, sol_bench):
    cfg = SimConfig(dt=1e-4, horizon=1e5, n_paths=1, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="budget"):
        simulate_controlled(p_bench, sol_bench, cfg)


def test_path_invariants(p_bench, sol_bench):
    cfg = SimConfig(dt=0.02, horizon=20.0, n_paths=2, seed=5, x0=1.0, i0=2)
    coeffs = policy_coefficients(sol_bench, p_bench)
    for cp in simulate_controlled(p_bench, sol_bench, cfg):
        assert cp.times.shape == cp.x.shape == cp.u.shape == cp.disc_cost.shape
        assert cp.regime[0] == 2
        assert set(np.unique(cp.regime)) <= {1, 2}
        assert cp.disc_cost[0] == 0.0
        assert np.all(np.diff(cp.disc_cost) >= -1e-15)
        idx = cp.regime - 1
        assert np.allclose(cp.u, coeffs.slope[idx] * cp.x + coeffs.intercept[idx],
                           atol=1e-12)


def test_mc_needs_two_paths(p_bench, sol_bench):
    cfg = SimConfig(dt=0.1, horizon=1.0, n_paths=1, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        mc_cost(p_bench, sol_bench, cfg)


def test_mc_rejects_coefficients_of_wrong_length(p_bench):
    cfg = SimConfig(dt=0.1, horizon=1.0, n_paths=2, seed=0, x0=0.0, i0=1)
    three = np.zeros(3)
    with pytest.raises(ValueError, match="length m=2"):
        mc_cost(p_bench, PolicyCoefficients(three, three), cfg)


def test_mc_matches_analytic_value(p_bench, sol_bench):
    v0 = value_function(0.0, 1, sol_bench, p_bench)
    cfg = SimConfig(dt=0.02, horizon=150.0, n_paths=1500, seed=2024, x0=0.0, i0=1)
    est = mc_cost(p_bench, sol_bench, cfg)
    assert est.n == 1500
    assert 0.0 < est.truncation_bound < 0.1
    assert abs(est.mean - v0) <= 4.0 * est.std_error + est.truncation_bound + 0.04


def test_truncation_bound_shrinks_with_horizon(p_bench, sol_bench):
    bounds = []
    for horizon in (20.0, 60.0, 120.0):
        cfg = SimConfig(dt=0.05, horizon=horizon, n_paths=2, seed=1, x0=0.0, i0=1)
        bounds.append(mc_cost(p_bench, sol_bench, cfg).truncation_bound)
    assert bounds[0] > bounds[1] > bounds[2] > 0.0


def test_shifted_policy_costs_more(p_bench, sol_bench):
    v0 = value_function(0.0, 1, sol_bench, p_bench)
    cfg = SimConfig(dt=0.05, horizon=80.0, n_paths=1500, seed=33, x0=0.0, i0=1)
    shifted = shifted_policy(sol_bench, p_bench, 0.5)
    est = mc_cost(p_bench, shifted, cfg)
    assert est.mean - v0 > 4.0 * est.std_error


def test_coarse_richardson_gap_shrinks(p_bench, sol_bench):
    means = []
    for dt in (0.4, 0.2, 0.1):
        cfg = SimConfig(dt=dt, horizon=100.0, n_paths=6000, seed=17, x0=0.0, i0=1)
        means.append(mc_cost(p_bench, sol_bench, cfg).mean)
    d1 = abs(means[0] - means[1])
    d2 = abs(means[1] - means[2])
    assert d2 < d1


def test_decay_deterministic_case():
    p = one_regime_params()
    sol = solve(p)
    xbar = closed_loop_equilibrium(sol, p, 1)
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=2, seed=0, x0=xbar, i0=1)
    rows = asymptotic_decay(p, sol, cfg, (1.0, 5.0, 10.0))
    for t_req, mean, se in rows:
        assert se == 0.0
        assert mean == pytest.approx(math.exp(-p.r * t_req) * xbar ** 2, rel=1e-9)


def test_decay_from_displaced_start(p_bench, sol_bench):
    cfg = SimConfig(dt=0.02, horizon=100.0, n_paths=600, seed=55, x0=5.0, i0=1)
    for adjoint in (False, True):
        rows = asymptotic_decay(p_bench, sol_bench, cfg, (1.0, 10.0, 50.0, 100.0),
                                adjoint=adjoint)
        means = [mean for _, mean, _ in rows]
        assert means[0] > means[1] > means[2] > means[3] > 0.0
        assert means[3] < 0.02 * means[0]


def test_decay_validation(p_bench, sol_bench):
    cfg = SimConfig(dt=0.5, horizon=10.0, n_paths=2, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="nonempty"):
        asymptotic_decay(p_bench, sol_bench, cfg, ())
    with pytest.raises(ValueError, match="strictly increasing"):
        asymptotic_decay(p_bench, sol_bench, cfg, (5.0, 1.0))
    with pytest.raises(ValueError, match="outside"):
        asymptotic_decay(p_bench, sol_bench, cfg, (5.0, 20.0))
    with pytest.raises(ValueError, match="collide"):
        asymptotic_decay(p_bench, sol_bench, cfg, (5.0, 5.1))
    one = SimConfig(dt=0.5, horizon=10.0, n_paths=1, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        asymptotic_decay(p_bench, sol_bench, one, (5.0,))


def test_adjoint_residual_at_solution(p_bench, sol_bench):
    rng = np.random.default_rng(0)
    samples = [(float(x), int(i)) for x, i in zip(rng.uniform(-20.0, 20.0, 1000),
                                                  rng.integers(1, 3, 1000))]
    assert adjoint_residual(p_bench, sol_bench, samples) <= 1e-9


def test_adjoint_residual_flags_perturbation(p_bench, sol_bench):
    wrong = RiccatiSolution(phi=sol_bench.phi + 0.01, psi=sol_bench.psi,
                            residual_phi=sol_bench.residual_phi,
                            residual_psi=sol_bench.residual_psi,
                            iterations=sol_bench.iterations,
                            certificate=sol_bench.certificate)
    res = adjoint_residual(p_bench, wrong, [(x, i) for x in (-5.0, 0.0, 5.0)
                                            for i in (1, 2)])
    assert res > 1e-3


def test_adjoint_residual_at_origin_equals_slope_defect(p_bench, sol_bench):
    res = adjoint_residual(p_bench, sol_bench, [(0.0, 1), (0.0, 2)])
    assert res == pytest.approx(float(np.max(np.abs(sol_bench.residual_psi))), abs=1e-14)


def test_adjoint_residual_validation(p_bench, sol_bench):
    with pytest.raises(ValueError, match="nonempty"):
        adjoint_residual(p_bench, sol_bench, [])
    with pytest.raises(ValueError, match="regime index"):
        adjoint_residual(p_bench, sol_bench, [(0.0, 3)])


def test_user_policy_callable(p_bench, sol_bench):
    # a callable policy reproducing the feedback law must give identical paths
    coeffs = policy_coefficients(sol_bench, p_bench)

    def mimic(x, i, t):
        idx = np.asarray(i) - 1
        return coeffs.slope[idx] * x + coeffs.intercept[idx]

    cfg = SimConfig(dt=0.05, horizon=10.0, n_paths=4, seed=11, x0=0.0, i0=1)
    a = mc_cost(p_bench, sol_bench, cfg)
    b = mc_cost(p_bench, mimic, cfg)
    assert a.mean == pytest.approx(b.mean, abs=1e-12)
    assert a.std_error == pytest.approx(b.std_error, abs=1e-12)


def test_write_path_csv(p_bench, sol_bench):
    cfg = SimConfig(dt=0.5, horizon=2.0, n_paths=1, seed=2, x0=1.0, i0=1)
    cp = simulate_controlled(p_bench, sol_bench, cfg)[0]
    buf = io.StringIO()
    write_path_csv(cp, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x,u,regime,disc_cost"
    assert len(lines) == 1 + cfg.n_steps + 1
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[1]) == 1.0
    assert row[4] == "0"


def test_write_mc_summary_csv():
    rows = [("mc_cost", MCEstimate(mean=10.5, std_error=0.02, n=100,
                                   truncation_bound=0.001))]
    buf = io.StringIO()
    write_mc_summary_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "quantity,mean,std_error,n,truncation_bound"
    assert lines[1] == "mc_cost,10.5,0.02,100,0.001"

"""Controlled simulation: scheme order, determinism, estimators, adjoint identity."""

import math
import os
import subprocess
import sys
from pathlib import Path

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
    simulate_chain,
    simulate_controlled,
    solve,
    value_function,
)
from regimeplan import _pool, chain, sde
from regimeplan.chain import regimes_on_grid
from regimeplan.riccati import RiccatiSolution

from conftest import all_reaped


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
    for dt in (1e-300, 5e-324):  # no meaningful step count past 2**53
        with pytest.raises(ValueError, match="below 2"):
            SimConfig(dt=dt, horizon=1.0, n_paths=1, seed=0, x0=0.0, i0=1)


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


def test_one_path_blocks_match(p_bench, sol_bench, monkeypatch):
    # a jump budget of one path's expected jumps leaves one path per block
    fast = p_bench.replace(gen=Generator.two_state_symmetric(8.0))
    cfg = SimConfig(dt=0.05, horizon=10.0, n_paths=5, seed=21, x0=1.0, i0=1)
    cases = [(p, s, mc_cost(p, s, cfg)) for p, s in
             ((p_bench, sol_bench), (fast, solve(fast)))]
    widths = []
    events = sde._jump_events

    def spy(p, cfg, lo, hi):
        widths.append(hi - lo)
        return events(p, cfg, lo, hi)

    monkeypatch.setattr(sde, "_jump_events", spy)
    for p, s, est in cases:
        rate = float(np.max(-np.diag(p.gen.q)))
        monkeypatch.setattr(chain, "_BLOCK_JUMPS", math.ceil(cfg.horizon * rate))
        assert mc_cost(p, s, cfg) == est
    assert widths == [1] * 10


def engine_results(p, sol, cfg):
    """Every engine consumer's output on cfg, as comparable values."""
    paths = simulate_controlled(p, sol, cfg)
    return [mc_cost(p, sol, cfg), mc_cost(p, shifted_policy(sol, p, 0.5), cfg),
            asymptotic_decay(p, sol, cfg, (1.0, 10.0, cfg.horizon)),
            asymptotic_decay(p, sol, cfg, (1.0, 10.0, cfg.horizon), adjoint=True),
            [np.concatenate([cp.x, cp.u, cp.regime, cp.disc_cost]).tobytes()
             for cp in paths]]


def test_worker_counts_bitwise_equal(p_bench, sol_bench, monkeypatch, started):
    # 25 paths in blocks of 4: seven blocks, split unevenly into 2 or 3 shares
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=25, seed=12, x0=1.0, i0=2)
    monkeypatch.setattr(sde, "_BLOCK", 4)
    runs = []
    for k in (1, 2, 3):
        monkeypatch.setattr(_pool, "_workers", lambda work, least, k=k: k)
        runs.append(engine_results(p_bench, sol_bench, cfg))
    assert runs[0] == runs[1] == runs[2]
    assert len(started) == 5 * (1 + 2)  # five engine runs, at 2 and at 3 shares
    assert all_reaped(started)


def test_worker_counts_with_narrow_blocks(p_bench, monkeypatch, started):
    # at rate 10 and T = 200 a path expects 2000 jumps, so blocks narrow to 524
    fast = p_bench.replace(gen=Generator.two_state_symmetric(10.0))
    sol = solve(fast)
    cfg = SimConfig(dt=0.5, horizon=200.0, n_paths=1049, seed=4, x0=0.0, i0=1)
    widths = []
    events = sde._jump_events

    def spy(p, cfg, lo, hi):
        widths.append(hi - lo)
        return events(p, cfg, lo, hi)

    monkeypatch.setattr(sde, "_jump_events", spy)
    ests = []
    for k in (1, 2, 3):
        monkeypatch.setattr(_pool, "_workers", lambda work, least, k=k: k)
        ests.append(mc_cost(fast, sol, cfg))
    assert ests[0] == ests[1] == ests[2]
    # the parent's own shares: all three blocks, then 524 and 349 paths
    assert widths == [524, 524, 1, 524, 349]
    assert len(started) == 3 and all_reaped(started)


def test_callable_policy_runs_in_process(p_bench, sol_bench, monkeypatch, started):
    coeffs = policy_coefficients(sol_bench, p_bench)

    def plain(x, i, t):
        idx = np.asarray(i) - 1
        return coeffs.slope[idx] * x + coeffs.intercept[idx]

    cfg = SimConfig(dt=0.05, horizon=5.0, n_paths=12, seed=2, x0=0.0, i0=1)
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_workers", lambda work, least: 3)
    assert mc_cost(p_bench, plain, cfg).n == 12
    assert started == []


def test_small_runs_stay_in_process(p_bench, sol_bench, started):
    # two blocks, but far below a worker's share of work
    cfg = SimConfig(dt=0.05, horizon=5.0, n_paths=3000, seed=2, x0=0.0, i0=1)
    assert cfg.n_paths * cfg.n_steps < sde._SHARE_WORK
    mc_cost(p_bench, sol_bench, cfg)
    assert started == []


def test_refusals_precede_workers(p_bench, sol_bench, monkeypatch, started):
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_workers", lambda work, least: 2)
    cfg = SimConfig(dt=0.1, horizon=10.0, n_paths=8, seed=0, x0=0.0, i0=3)
    with pytest.raises(ValueError, match="i0 must be in 1..2"):
        mc_cost(p_bench, sol_bench, cfg)
    stiff = p_bench.replace(gen=Generator.two_state_symmetric(1e5))
    cfg = SimConfig(dt=0.1, horizon=100.0, n_paths=8, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="regime jumps"):
        mc_cost(stiff, sol_bench, cfg)
    cfg = SimConfig(dt=0.1, horizon=200.0, n_paths=100_000, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="budget"):
        asymptotic_decay(p_bench, sol_bench, cfg, cfg.times()[1:])
    assert started == []


def test_no_worker_outlives_a_failed_run(p_bench, sol_bench, monkeypatch, started):
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_workers", lambda work, least: 2)
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=8, seed=0, x0=1e200, i0=1)
    with pytest.raises(ValueError, match="discounted cost is not finite"):
        mc_cost(p_bench, sol_bench, cfg)
    assert len(started) == 1 and all_reaped(started)

    def interrupted(*args):  # the parent's own share; the worker runs the real one
        raise KeyboardInterrupt

    monkeypatch.setattr(sde, "_share", interrupted)
    with pytest.raises(KeyboardInterrupt):
        mc_cost(p_bench, sol_bench, SimConfig(dt=0.01, horizon=1.0, n_paths=8, seed=0,
                                              x0=0.0, i0=1))
    assert len(started) == 2 and all_reaped(started)


def test_worker_failures_reach_parent(started):
    proc = _pool._start("regimeplan.sde", "_share", (None,) * 9)  # _share fails on these
    try:
        with pytest.raises(TypeError):
            _pool._collect(proc)
    finally:
        _pool._end(proc)
    proc = _pool._start("regimeplan.sde", "_share", (None,) * 9)
    proc.kill()  # long before it could write a result
    try:
        with pytest.raises(RuntimeError, match="engine worker exited with status -9"):
            _pool._collect(proc)
    finally:
        _pool._end(proc)
    assert len(started) == 2 and all_reaped(started)


def test_two_shares_from_a_script_without_main_guard(p_bench, sol_bench, tmp_path):
    # workers never import __main__ and never fork a threaded parent
    cfg = SimConfig(dt=0.05, horizon=5.0, n_paths=8, seed=3, x0=0.0, i0=1)
    script = tmp_path / "no_guard.py"
    script.write_text(
        "import subprocess\n"
        "from regimeplan import SimConfig, _pool, benchmark_params, mc_cost, sde, solve\n"
        "sde._BLOCK = 4\n"
        "_pool._workers = lambda work, least: 2\n"
        "started = []\n"
        "popen = subprocess.Popen\n"
        "subprocess.Popen = lambda *a, **kw: started.append(1) or popen(*a, **kw)\n"
        "p = benchmark_params()\n"
        f"est = mc_cost(p, solve(p), {cfg!r})\n"
        "print(len(started))\n"
        "print(repr(est))\n")
    src = str(Path(sde.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", str(script)],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["1", repr(mc_cost(p_bench, sol_bench, cfg))]


def test_jumps_land_where_regimes_on_grid_puts_them(p_bench, sol_bench):
    # the engine's jump placement against the chain's own grid sampling
    fast = p_bench.replace(gen=Generator.two_state_symmetric(10.0))
    matched = 0
    for p, sol in ((p_bench, sol_bench), (fast, solve(fast))):
        for dt in (0.1, 0.03, 0.01):
            cfg = SimConfig(dt=dt, horizon=10.0, n_paths=12, seed=17, x0=0.0, i0=2)
            times = cfg.times()
            for k, cp in enumerate(simulate_controlled(p, sol, cfg)):
                path = simulate_chain(p.gen, cfg.i0, cfg.n_steps * dt, [cfg.seed, k, 0])
                assert np.array_equal(cp.regime,
                                      regimes_on_grid(path.jump_times, path.states, times))
                matched += 1
    assert matched == 72


def test_kept_paths_share_estimate_arithmetic(p_bench, sol_bench):
    # simulate_controlled records the states and running costs the estimators use
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=50, seed=8, x0=1.0, i0=1)
    paths = simulate_controlled(p_bench, sol_bench, cfg)
    x_end = np.array([cp.x[-1] for cp in paths])
    ((_, decay, _),) = asymptotic_decay(p_bench, sol_bench, cfg, (cfg.horizon,))
    assert math.exp(-p_bench.r * cfg.n_steps * cfg.dt) * float(np.mean(x_end ** 2)) == decay
    kept = np.array([cp.disc_cost[-1] for cp in paths])
    assert np.array_equal(kept, sde._run(p_bench, policy_coefficients(sol_bench, p_bench),
                                         cfg).costs)
    assert float(np.mean(kept)) == mc_cost(p_bench, sol_bench, cfg).mean


def test_kept_cost_matches_explicit_trapezoid(p_bench, sol_bench):
    # the unfolded integrand on the kept x, u and regime checks the folded
    # alpha, xstar and gamma tables the engine integrates
    fast = p_bench.replace(gen=Generator.two_state_symmetric(5.0))
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=8, seed=3, x0=-2.0, i0=2)
    for p, sol in ((p_bench, sol_bench), (fast, solve(fast))):
        for cp in simulate_controlled(p, sol, cfg):
            i = cp.regime - 1
            g = 0.5 * (p.N[i] * (cp.x - p.c[i]) ** 2 + p.R[i] * (cp.u - p.h[i]) ** 2)
            g *= np.exp(-p.r * cp.times)
            trap = np.concatenate(([0.0], np.cumsum(0.5 * cfg.dt * (g[1:] + g[:-1]))))
            np.testing.assert_allclose(cp.disc_cost, trap, rtol=1e-12, atol=0.0)


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


def test_decay_refuses_retention_over_budget(p_bench, sol_bench):
    # 10^5 paths x 2000 checkpoints would keep ~6 GiB; refused before allocating
    cfg = SimConfig(dt=0.1, horizon=200.0, n_paths=100_000, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="budget"):
        asymptotic_decay(p_bench, sol_bench, cfg, cfg.times()[1:])


def test_stiff_chain_refused(p_bench, sol_bench):
    # one path would expect 10^7 regime jumps
    stiff = p_bench.replace(gen=Generator.two_state_symmetric(1e5))
    cfg = SimConfig(dt=0.1, horizon=100.0, n_paths=2, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="regime jumps"):
        mc_cost(stiff, sol_bench, cfg)


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
    for cps in ((5.0, 20.0), (1.0, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="outside the grid"):
            asymptotic_decay(p_bench, sol_bench, cfg, cps)
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


def test_overflowing_cost_raises(p_bench, sol_bench):
    # x0^2 overflows the running cost; numpy's overflow warning must not leak
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=2, seed=0, x0=1e200, i0=1)
    for fn in (simulate_controlled, mc_cost):
        with pytest.raises(ValueError, match="discounted cost is not finite"):
            fn(p_bench, sol_bench, cfg)
    # finite costs whose spread overflows the standard error
    with pytest.raises(ValueError, match="standard error inf"):
        mc_cost(p_bench, sol_bench, SimConfig(dt=0.01, horizon=1.0, n_paths=2,
                                              seed=0, x0=1e100, i0=1))


def test_decay_statistics_overflow_raises(p_bench, sol_bench):
    # x_T^2 is finite at x0 = 1e100 but its spread overflows the standard error
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=4, seed=0, x0=1e100, i0=1)
    for adjoint in (False, True):
        with pytest.raises(ValueError, match="standard error inf"):
            asymptotic_decay(p_bench, sol_bench, cfg, (1.0,), adjoint=adjoint)

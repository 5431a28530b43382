"""Controlled simulation: scheme order, determinism, estimators, adjoint identity."""

import math
import os
import signal
import subprocess
import sys
import tracemalloc
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
    benchmark_params,
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

import pool_shares
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
    est = mc_cost(p, PolicyCoefficients(zero, zero), cfg)
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
    # numpy integers run as the ints they hold
    same = SimConfig(dt=0.05, horizon=5.0, n_paths=np.int64(6), seed=np.uint32(99), x0=0.0,
                     i0=np.int8(1))
    assert mc_cost(p_bench, sol_bench, same) == mc_cost(p_bench, sol_bench, cfg)


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
            [np.concatenate([cp.x, cp.u, cp.regime, cp.disc_cost]).tobytes()
             for cp in paths]]


def test_worker_counts_bitwise_equal(p_bench, sol_bench, monkeypatch, started):
    # 25 paths in blocks of 4: seven blocks, split unevenly into 2 or 3 shares
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=25, seed=12, x0=1.0, i0=2)
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_cpus", lambda: 3)  # keeps two idle workers
    runs = []
    for k in (1, 2, 3):
        monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm, k=k: k)
        runs.append(engine_results(p_bench, sol_bench, cfg))
    assert runs[0] == runs[1] == runs[2]
    # four engine runs at 2 shares start one worker; four at 3 shares one more
    assert len(started) == 2 and _pool.idle() == 2
    assert not any(proc.poll() for proc in started)
    _pool.close()
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
    monkeypatch.setattr(_pool, "_cpus", lambda: 3)  # keeps two idle workers
    ests = []
    for k in (1, 2, 3, 3):
        monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm, k=k: k)
        ests.append(mc_cost(fast, sol, cfg))
    assert ests == ests[:1] * 4
    # the parent's own shares: all three blocks; while a worker starts, all
    # but one path a worker (1048 and 1047 paths); with both workers warm,
    # an even third (349 paths)
    assert widths == [524, 524, 1, 524, 524, 524, 523, 349]
    # the 2-share run starts a worker, the 3-share runs reuse it and start one
    assert len(started) == 2 and _pool.idle() == 2
    _pool.close()
    assert all_reaped(started)


def test_small_runs_stay_in_process(p_bench, sol_bench, started):
    # two blocks, but far below a worker's share of work
    cfg = SimConfig(dt=0.05, horizon=5.0, n_paths=3000, seed=2, x0=0.0, i0=1)
    assert cfg.n_paths * cfg.n_steps < sde._SHARE_WORK
    mc_cost(p_bench, sol_bench, cfg)
    assert started == []


def test_refusals_precede_workers(p_bench, sol_bench, monkeypatch, started):
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    for bad in ({"i0": 1.5}, {"i0": True}, {"n_paths": 4.0}, {"n_paths": True},
                {"seed": 1.5}, {"seed": np.float64(2.0)}, {"seed": False}):
        with pytest.raises(ValueError, match="must be an integer"):
            SimConfig(**{**dict(dt=0.1, horizon=10.0, n_paths=8, seed=0, x0=0.0, i0=1),
                         **bad})
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
    # 32 B a path of costs and tails, a share's and the gathered copy, with
    # no node kept
    cfg = SimConfig(dt=1.0, horizon=1.0, n_paths=2**28, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="budget"):
        mc_cost(p_bench, sol_bench, cfg)
    monkeypatch.setattr(chain, "_KEEP_BUDGET", 32 * 8 - 1)
    cfg = SimConfig(dt=1.0, horizon=1.0, n_paths=8, seed=0, x0=0.0, i0=1)
    with pytest.raises(ValueError, match="budget"):
        mc_cost(p_bench, sol_bench, cfg)
    assert started == []


def test_no_worker_outlives_a_failed_run(p_bench, sol_bench, monkeypatch, started):
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=8, seed=0, x0=1e200, i0=1)
    with pytest.raises(ValueError, match="discounted cost is not finite"):
        mc_cost(p_bench, sol_bench, cfg)
    # the worker's result was read before the parent refused it: it serves on
    assert len(started) == 1 and _pool.idle() == 1 and started[0].poll() is None

    def interrupted(*args):  # the parent's own share; the worker runs the real one
        raise KeyboardInterrupt

    monkeypatch.setattr(sde, "_share", interrupted)
    with pytest.raises(KeyboardInterrupt):
        mc_cost(p_bench, sol_bench, SimConfig(dt=0.01, horizon=1.0, n_paths=8, seed=0,
                                              x0=0.0, i0=1))
    # the idle worker took the share, and its unread result ended it
    assert len(started) == 1 and _pool.idle() == 0 and all_reaped(started)


def test_interrupted_run_is_not_read_by_the_next(p_bench, sol_bench, monkeypatch, started):
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=8, seed=0, x0=0.0, i0=1)
    other = SimConfig(dt=0.01, horizon=1.0, n_paths=8, seed=1, x0=0.0, i0=1)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 1)
    alone = mc_cost(p_bench, sol_bench, cfg)
    assert started == []
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    share = sde._share

    def interrupted(*args):  # the parent's own share; the worker runs the real one
        raise KeyboardInterrupt

    monkeypatch.setattr(sde, "_share", interrupted)
    with pytest.raises(KeyboardInterrupt):
        mc_cost(p_bench, sol_bench, other)
    assert len(started) == 1 and started[0].returncode == -signal.SIGKILL
    monkeypatch.setattr(sde, "_share", share)
    assert mc_cost(p_bench, sol_bench, cfg) == alone
    assert len(started) == 2 and _pool.idle() == 1


def test_worker_failures_reach_parent(monkeypatch, started):
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    monkeypatch.setattr(pool_shares, "refuse", pool_shares.indices)  # the parent's share only
    with pytest.raises(TypeError, match="refused paths 2..3"):  # the worker's share
        _pool.map_paths("pool_shares", "refuse", (), 4, 1.0, 1.0, 1.0)
    # it wrote its exception whole, so it serves the next run
    assert len(started) == 1 and _pool.idle() == 1

    def kill_worker(seconds, lo, hi):  # the parent's share; the worker sleeps
        started[0].kill()  # long before it could write a result
        return pool_shares.indices(lo, hi)

    monkeypatch.setattr(pool_shares, "slow", kill_worker)
    with pytest.raises(RuntimeError, match="engine worker exited with status -9"):
        _pool.map_paths("pool_shares", "slow", (60.0,), 4, 1.0, 1.0, 1.0)
    assert len(started) == 1 and _pool.idle() == 0 and all_reaped(started)


def test_worker_killed_while_idle_is_replaced(p_bench, sol_bench, monkeypatch, started):
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=8, seed=0, x0=0.0, i0=1)
    est = mc_cost(p_bench, sol_bench, cfg)
    assert len(started) == 1 and _pool.idle() == 1
    started[0].kill()
    started[0].wait()
    assert mc_cost(p_bench, sol_bench, cfg) == est
    assert len(started) == 2 and _pool.idle() == 1 and started[1].poll() is None
    _pool.close()
    assert all_reaped(started)


def test_forked_child_starts_its_own_workers(p_bench, sol_bench, monkeypatch, started):
    # the pool belongs to the pid that started it; a fork sees another pid
    monkeypatch.setattr(sde, "_BLOCK", 4)
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=8, seed=0, x0=0.0, i0=1)
    est = mc_cost(p_bench, sol_bench, cfg)
    assert len(started) == 1 and _pool.idle() == 1
    pid = os.getpid()
    with monkeypatch.context() as child:
        child.setattr(os, "getpid", lambda: pid + 1)
        assert _pool.idle() == 0
        assert mc_cost(p_bench, sol_bench, cfg) == est
        assert len(started) == 2 and _pool.idle() == 1
        _pool.close()  # the child's worker, not its parent's
    assert all_reaped(started[1:]) and started[0].poll() is None
    assert _pool.idle() == 1
    assert mc_cost(p_bench, sol_bench, cfg) == est  # the parent's worker, untouched
    assert len(started) == 2
    _pool.close()
    assert all_reaped(started)


def test_two_shares_from_a_script_without_main_guard(p_bench, sol_bench, tmp_path):
    # workers never import __main__ and never fork a threaded parent; the
    # pool's exit hook, registered after the script's own, reaps the idle one
    cfg = SimConfig(dt=0.05, horizon=5.0, n_paths=8, seed=3, x0=0.0, i0=1)
    script = tmp_path / "no_guard.py"
    script.write_text(
        "import atexit, os, subprocess\n"
        "from regimeplan import SimConfig, _pool, benchmark_params, mc_cost, sde, solve\n"
        "sde._BLOCK = 4\n"
        "_pool._workers = lambda work, cold, warm: 2\n"
        "_pool._cpus = lambda: 2\n"
        "pids = []\n"
        "popen = subprocess.Popen\n"
        "def recorded(*a, **kw):\n"
        "    proc = popen(*a, **kw)\n"
        "    pids.append(proc.pid)\n"
        "    return proc\n"
        "subprocess.Popen = recorded\n"
        "def alive(pid):\n"
        "    try:\n"
        "        os.kill(pid, 0)\n"
        "    except ProcessLookupError:\n"
        "        return False\n"
        "    return True\n"
        "atexit.register(lambda: print(sum(map(alive, pids))))\n"
        "p = benchmark_params()\n"
        f"est = mc_cost(p, solve(p), {cfg!r})\n"
        "print(repr(est))\n"
        "print(_pool.idle(), *pids)\n")
    src = str(Path(sde.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", str(script)],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    est, pool, at_exit = out.stdout.splitlines()
    assert est == repr(mc_cost(p_bench, sol_bench, cfg))
    idle, *pids = map(int, pool.split())
    assert idle == 1 and len(pids) == 1  # one worker, kept until the script ended
    assert at_exit == "0"  # none alive once the pool's exit hook ran
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


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


def concatenated_jump_events(p, cfg, lo, hi):
    """The jump events the streamed reduction replaced: the oracle.

    It concatenates the paths' whole walk as int64 and float64 arrays, sorts
    every jump by node and only then keeps each path's last jump before a node.
    """
    path, t, state = map(np.concatenate, zip(*chain._walks(
        p.gen, cfg.i0, cfg.n_steps * cfg.dt, ([cfg.seed, k, 0] for k in range(lo, hi)))))
    jump = np.r_[False, path[1:] == path[:-1]]
    path, t, state = path[jump], t[jump], state[jump]
    node = np.ceil(t / cfg.dt)
    node += node * cfg.dt < t
    node -= (node - 1.0) * cfg.dt >= t
    node = node.astype(np.intp)
    order = np.argsort(node, kind="stable")
    node, path, state = node[order], path[order], state[order]
    last = np.ones(node.shape[0], dtype=bool)
    last[:-1] = (node[1:] != node[:-1]) | (path[1:] != path[:-1])
    return node[last], path[last], state[last]


def chain_params(gen):
    """ModelParams around gen; _jump_events reads only the chain."""
    one = np.ones(gen.m)
    return ModelParams(gen=gen, r=0.05, theta=one, sigma=one, c=one, h=one, N=one, R=one)


EVENT_CASES = {
    # name: generator, horizon, dt, paths, dtypes of node, path offset and state
    "benchmark": (benchmark_params().gen, 200.0, 0.01, 256, (np.uint16, np.uint8, np.uint8)),
    # 2000 jumps a path: the chain walks blocks of 4 paths
    "narrow blocks": (Generator.two_state_symmetric(10.0), 200.0, 0.5, 40,
                      (np.uint16, np.uint8, np.uint8)),
    "200 regimes": (Generator(np.random.default_rng(200).uniform(0.0, 1.0, size=(200, 200))),
                    20.0, 0.05, 64, (np.uint16, np.uint8, np.uint8)),
    # about 20 jumps between two nodes
    "jumps between nodes": (Generator.two_state_symmetric(40.0), 20.0, 0.5, 30,
                            (np.uint8, np.uint8, np.uint8)),
}


@pytest.mark.parametrize("name", list(EVENT_CASES))
def test_streamed_jump_events_match_concatenated(name):
    gen, horizon, dt, n_paths, dtypes = EVENT_CASES[name]
    p = chain_params(gen)
    cfg = SimConfig(dt=dt, horizon=horizon, n_paths=n_paths + 5, seed=31, x0=0.0, i0=1)
    got = sde._jump_events(p, cfg, 5, 5 + n_paths)
    want = concatenated_jump_events(p, cfg, 5, 5 + n_paths)
    assert [a.dtype for a in got] == [np.dtype(d) for d in dtypes]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if name == "jumps between nodes":  # of ~20 jumps a step, each path keeps one
        assert got[0].size == n_paths * cfg.n_steps


def test_block_working_set_stays_bounded():
    # one full block whose kept events outweigh its time-major normals: the
    # traced peak stays within those normals, 32 bytes per kept event and 4 MiB
    p = benchmark_params().replace(gen=Generator.two_state_symmetric(8.0))
    cfg = SimConfig(dt=0.05, horizon=50.0, n_paths=2048, seed=3, x0=0.0, i0=1)
    tables = sde._affine_tables(p, policy_coefficients(solve(p), p), cfg.dt)
    events = sde._jump_events(p, cfg, 0, 2048)[0].size
    tracemalloc.start()
    try:
        sde._share(p, tables, cfg, 2048, sde._CHUNK, (), 0, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events == 676_346
    assert peak <= 8 * sde._CHUNK * 2048 + 32 * events + (4 << 20)


def test_kept_paths_share_estimate_arithmetic(p_bench, sol_bench):
    # simulate_controlled records the states and running costs the estimators use
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=50, seed=8, x0=1.0, i0=1)
    paths = simulate_controlled(p_bench, sol_bench, cfg)
    x_end = np.array([cp.x[-1] for cp in paths])
    ids = np.array([cp.regime[-1] for cp in paths]) - 1
    y_end = sol_bench.phi[ids] * x_end + sol_bench.psi[ids]
    ((_, decay, _, y_decay, _),) = asymptotic_decay(p_bench, sol_bench, cfg, (cfg.horizon,))
    assert math.exp(-p_bench.r * cfg.n_steps * cfg.dt) * float(np.mean(x_end ** 2)) == decay
    assert math.exp(-p_bench.r * cfg.n_steps * cfg.dt) * float(np.mean(y_end ** 2)) == y_decay
    kept = np.array([cp.disc_cost[-1] for cp in paths])
    costs = sde._run(p_bench, policy_coefficients(sol_bench, p_bench), cfg)[0]
    assert np.array_equal(kept, costs)
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


def plain_euler_costs(p, policy, cfg):
    """Per-path costs and tails of the unfolded Euler scheme: the folded tables' oracle.

    policy is called as policy(x, i, t) on all paths at each node, with
    1-based regimes i.  Path k's regimes are its [seed, k, 0] walk sampled at
    the grid nodes and its increments sqrt(dt) times its [seed, k, 1] normals;
    each step is x += (u - theta) dt + sigma sqrt(dt) z, and the cost the trapezoid
    of e^{-rt} 1/2 [N (x - c)^2 + R (u - h)^2].  The tail is the largest
    undiscounted integrand over the last quarter of the grid.
    """
    n, dt = cfg.n_steps, cfg.dt
    times = cfg.times()
    regs = np.empty((n + 1, cfg.n_paths), dtype=np.intp)
    for path, t, state in chain._walks(p.gen, cfg.i0, n * dt,
                                       ([cfg.seed, k, 0] for k in range(cfg.n_paths))):
        for k in np.unique(path):
            regs[:, k] = regimes_on_grid(t[path == k], state[path == k], times)
    z = np.array([np.random.default_rng([cfg.seed, k, 1]).standard_normal(n)
                  for k in range(cfg.n_paths)]).T
    x = np.full(cfg.n_paths, cfg.x0)
    g = np.empty((n + 1, cfg.n_paths))
    for node, i in enumerate(regs):
        u = policy(x, i + 1, times[node])
        g[node] = 0.5 * (p.N[i] * (x - p.c[i]) ** 2 + p.R[i] * (u - p.h[i]) ** 2)
        if node < n:
            x = x + (u - p.theta[i]) * dt + p.sigma[i] * math.sqrt(dt) * z[node]
    tails = g[(3 * n) // 4:].max(axis=0)
    g *= np.exp(-p.r * times)[:, None]
    return 0.5 * dt * (g[1:] + g[:-1]).sum(axis=0), tails


def test_folded_tables_match_plain_euler_loop(p_bench, sol_bench):
    fast = p_bench.replace(gen=Generator.two_state_symmetric(5.0))
    cfg = SimConfig(dt=0.05, horizon=20.0, n_paths=16, seed=8, x0=-2.0, i0=2)
    for p, sol in ((p_bench, sol_bench), (fast, solve(fast))):
        for law in (policy_coefficients(sol, p), shifted_policy(sol, p, 0.5)):
            costs, tails, *_ = sde._run(p, law, cfg)
            want_costs, want_tails = plain_euler_costs(p, law, cfg)
            np.testing.assert_allclose(costs, want_costs, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(tails, want_tails, rtol=1e-12, atol=0.0)


def plain_euler_estimate(p, policy, cfg):
    """Mean, standard error and truncation bound of plain_euler_costs."""
    costs, tails = plain_euler_costs(p, policy, cfg)
    t_end = cfg.n_steps * cfg.dt
    return (costs.mean(), costs.std(ddof=1) / math.sqrt(costs.size),
            math.exp(-p.r * t_end) * tails.max() / p.r)


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
    mean, se, bound = plain_euler_estimate(p_bench, plain, cfg)
    assert a.mean == pytest.approx(mean, rel=1e-12)
    assert a.std_error == pytest.approx(se, rel=1e-12)
    assert a.truncation_bound == pytest.approx(bound, rel=1e-12)


def test_user_policy_callable(p_bench, sol_bench):
    # a callable policy reproducing the feedback law must give identical paths
    coeffs = policy_coefficients(sol_bench, p_bench)

    def mimic(x, i, t):
        idx = np.asarray(i) - 1
        return coeffs.slope[idx] * x + coeffs.intercept[idx]

    cfg = SimConfig(dt=0.05, horizon=10.0, n_paths=4, seed=11, x0=0.0, i0=1)
    a = mc_cost(p_bench, sol_bench, cfg)
    mean, se, _ = plain_euler_estimate(p_bench, mimic, cfg)
    assert a.mean == pytest.approx(mean, abs=1e-12)
    assert a.std_error == pytest.approx(se, abs=1e-12)


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


def test_mc_takes_finite_affine_laws_only(p_bench, sol_bench, monkeypatch, started):
    walks = []
    monkeypatch.setattr(chain, "_walks", lambda *args: walks.append(args))
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    cfg = SimConfig(dt=0.1, horizon=10.0, n_paths=8, seed=0, x0=0.0, i0=1)
    law = policy_coefficients(sol_bench, p_bench)
    with pytest.raises(ValueError, match="RiccatiSolution or a PolicyCoefficients"):
        mc_cost(p_bench, lambda x, i, t: x, cfg)
    nan_slope = PolicyCoefficients(np.array([math.nan, law.slope[1]]), law.intercept)
    inf_intercept = PolicyCoefficients(law.slope, np.array([law.intercept[0], math.inf]))
    for bad in (nan_slope, inf_intercept, shifted_policy(sol_bench, p_bench, math.inf)):
        with pytest.raises(ValueError, match="policy coefficients must be finite"):
            mc_cost(p_bench, bad, cfg)
    # finite laws whose folded rows are not: N + R s^2 overflows, or gamma does
    steep = PolicyCoefficients(np.array([1e200, law.slope[1]]), law.intercept)
    far = PolicyCoefficients(law.slope, np.array([law.intercept[0], 1e200]))
    for bad in (steep, far):
        with pytest.raises(ValueError, match="overflow the folded step or cost"):
            mc_cost(p_bench, bad, cfg)
    assert walks == [] and started == []
    flat = PolicyCoefficients(np.zeros(2), law.intercept)  # a zero slope stays valid
    assert np.all(np.isfinite(sde._affine_tables(p_bench, flat, cfg.dt)))


def test_optimality_gap_matches_closed_form(p_bench, sol_bench):
    # u* + delta costs (1/2) E int e^{-rt} R(a_t) delta^2 dt more than u*, which
    # is 1/2 [(rI - Q)^{-1} R delta^2](i0); both laws share the chain and the
    # normals, so the paired difference has a small SE
    law = policy_coefficients(sol_bench, p_bench)
    unit = chain.discounted_resolvent(p_bench.gen, p_bench.r, 0.5 * p_bench.R)[0]
    assert unit == pytest.approx(4.5122, abs=1e-4)
    cfgs = [SimConfig(dt=dt, horizon=200.0, n_paths=2000, seed=31, x0=0.0, i0=1)
            for dt in (0.02, 0.04)]
    optimal = [sde._run(p_bench, law, cfg)[0] for cfg in cfgs]
    for delta in (0.05, 0.5):
        shifted = shifted_policy(sol_bench, p_bench, delta)
        (gap, se), (coarse, _) = (chain._mean_se(sde._run(p_bench, shifted, cfg)[0] - opt)
                                  for cfg, opt in zip(cfgs, optimal))
        assert abs(gap - unit * delta ** 2) <= 3.0 * se + abs(gap - coarse)


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
    for t_req, mean, se, _, _ in rows:
        assert se == 0.0
        assert mean == pytest.approx(math.exp(-p.r * t_req) * xbar ** 2, rel=1e-9)


def test_decay_from_displaced_start(p_bench, sol_bench):
    cfg = SimConfig(dt=0.02, horizon=100.0, n_paths=600, seed=55, x0=5.0, i0=1)
    rows = asymptotic_decay(p_bench, sol_bench, cfg, (1.0, 10.0, 50.0, 100.0))
    for column in (1, 3):  # X, then Y
        means = [row[column] for row in rows]
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
    with pytest.raises(ValueError, match="standard error inf"):
        asymptotic_decay(p_bench, sol_bench, cfg, (1.0,))
    # N and R times 2^10 leave the feedback law, hence every X path, bitwise
    # unchanged and scale phi and psi by 2^10: at x0 = 1e76 X's statistics
    # stay finite and only Y's spread overflows
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=4, seed=0, x0=1e76, i0=1)
    (_, x_mean, x_se, _, _), = asymptotic_decay(p_bench, sol_bench, cfg, (1.0,))
    assert math.isfinite(x_mean) and math.isfinite(x_se)
    p = p_bench.replace(N=p_bench.N * 2.0 ** 10, R=p_bench.R * 2.0 ** 10)
    sol = solve(p)
    assert np.array_equal(sol.phi, 2.0 ** 10 * sol_bench.phi)
    assert np.array_equal(sol.psi, 2.0 ** 10 * sol_bench.psi)
    with pytest.raises(ValueError, match="not finite"):
        asymptotic_decay(p, sol, cfg, (1.0,))

"""_pool.map_paths: how a run's paths are cut into shares and gathered."""

import importlib

import numpy as np

from regimeplan import Generator, SimConfig, _pool, benchmark_params, chain, mc_cost, sde, solve
from regimeplan.policy import policy_coefficients

from conftest import all_reaped, recorded_shares


def functional_args():
    """_functional_share's leading arguments: a 3-state chain over horizon 20."""
    gen = Generator([[-1.5, 1.0, 0.5], [0.3, -0.8, 0.5], [1.2, 0.8, -2.0]])
    return (gen, 0.1, np.array([1.0, 0.0, 2.0]), 2, 20.0, 7)


def test_gathered_results_are_bitwise_equal_over_share_counts(monkeypatch, started):
    # the Euler share's 1-D costs and tails and its 2-D (node x path)
    # records, and the chain share's 1-D values, against one in-process share
    p = benchmark_params()
    cfg = SimConfig(dt=0.1, horizon=10.0, n_paths=11, seed=6, x0=1.0, i0=2)
    tables = sde._affine_tables(p, policy_coefficients(solve(p), p), cfg.dt)
    euler = (p, tables, cfg, 4, sde._CHUNK, (0, 3, 50, 100))
    cases = [("regimeplan.sde", "_share", euler), ("regimeplan.chain", "_functional_share",
                                                   functional_args())]
    monkeypatch.setattr(_pool, "_cpus", lambda: 3)  # keeps two idle workers
    for module, name, args in cases:
        whole = getattr(importlib.import_module(module), name)(*args, 0, 11)
        for k in (1, 2, 3, 3):
            monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm, k=k: k)
            got = _pool.map_paths(module, name, args, 11, 1.0, 8.0, 1.0)
            assert len(got) == len(whole)
            for a, b in zip(got, whole):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
    assert len(started) == 2 and _pool.idle() == 2
    _pool.close()
    assert all_reaped(started)


def test_head_only_while_a_worker_starts(monkeypatch, started):
    # 40 paths of 1 unit at cold = 20: a starting worker costs the caller's
    # share cold / 2 = 10 more paths, a warm one nothing
    shares = recorded_shares(monkeypatch)
    monkeypatch.setattr(_pool, "_cpus", lambda: 3)  # keeps two idle workers
    runs = []
    for k in (2, 2, 3, 3):
        monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm, k=k: k)
        runs.append(_pool.map_paths("regimeplan.chain", "_functional_share",
                                    functional_args(), 40, 1.0, 20.0, 1.0))
    assert shares == [[(0, 25), (25, 40)],             # cold: a worker starts
                      [(0, 20), (20, 40)],             # one idle worker takes the other
                      [(0, 20), (20, 30), (30, 40)],   # one idle, one starts
                      [(0, 13), (13, 26), (26, 40)]]   # two idle
    assert all(a[0].tobytes() == runs[0][0].tobytes() for a in runs)
    assert len(started) == 2 and _pool.idle() == 2


def test_every_share_keeps_a_path(monkeypatch, started):
    shares = recorded_shares(monkeypatch)
    monkeypatch.setattr(_pool, "_cpus", lambda: 3)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 3)
    args = functional_args()
    (vals,) = _pool.map_paths("regimeplan.chain", "_functional_share", args, 3, 1.0, 1e6, 1.0)
    assert shares == [[(0, 1), (1, 2), (2, 3)]]  # the head would take every path
    assert vals.tobytes() == chain._functional_share(*args, 0, 3)[0].tobytes()
    # more shares than paths: one path a share
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 5)
    (vals,) = _pool.map_paths("regimeplan.chain", "_functional_share", args, 2, 1.0, 1e6, 1.0)
    assert shares[-1] == [(0, 1), (1, 2)]
    assert vals.tobytes() == chain._functional_share(*args, 0, 2)[0].tobytes()
    assert len(started) == 2


def test_cold_euler_run_gives_the_caller_the_head(p_bench, sol_bench, monkeypatch, started):
    # 100 steps a path at _SHARE_WORK = 4096: the caller's share takes
    # int(4096 / 2 / 100) = 20 paths more than an even split of the rest
    cfg = SimConfig(dt=0.1, horizon=10.0, n_paths=30, seed=2, x0=0.0, i0=1)
    one = mc_cost(p_bench, sol_bench, cfg)
    shares = recorded_shares(monkeypatch)
    monkeypatch.setattr(sde, "_SHARE_WORK", 4096)
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    assert int(sde._SHARE_WORK / 2 / cfg.n_steps) == 20
    assert mc_cost(p_bench, sol_bench, cfg) == one  # cold: the worker starts
    assert mc_cost(p_bench, sol_bench, cfg) == one  # warm
    assert shares == [[(0, 25), (25, 30)], [(0, 15), (15, 30)]]


def test_one_share_returns_the_functions_own_result(monkeypatch, started):
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 1)
    seen = []
    share = chain._functional_share

    def spy(*args):
        seen.append(share(*args))
        return seen[-1]

    monkeypatch.setattr(chain, "_functional_share", spy)
    got = _pool.map_paths("regimeplan.chain", "_functional_share", functional_args(), 9,
                          1.0, 1.0, 1.0)
    assert got is seen[0] and started == []


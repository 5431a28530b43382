"""The model's exact scale symmetries as bitwise oracles.

Multiplying by a power of two is exact in binary floating point, so where a
symmetry holds every solver output scales bit for bit:

- space, kappa: c, h, theta, sigma and x0 times kappa leave phi unchanged
  and scale psi by kappa, w and every path's cost by kappa^2;
- cost, mu: N and R times mu scale phi, psi, w and every path's cost by mu
  and leave the feedback law unchanged;
- time, tau = 4^k: Q, r, N, theta and h times tau, R over tau and sigma
  times 2^k leave phi, psi and w unchanged.

Where Newton's absolute tolerance breaks a symmetry the case is a strict
xfail (ROADMAP item 2); where it leaves phi outside its bracket, solve and
solve_are raise NonConvergence.
"""

import dataclasses
import json

import numpy as np
import pytest

from regimeplan import (
    Generator,
    SimConfig,
    benchmark_params,
    cli,
    params_to_config,
    policy_coefficients,
    sde,
    solve,
    solve_are,
    value_constant,
)
from regimeplan.riccati import NonConvergence

CFG = SimConfig(dt=0.1, horizon=10.0, n_paths=64, seed=9, x0=1.5, i0=1)

# Newton's absolute 1e-12 tolerance (ROADMAP item 2)
OFF = pytest.mark.xfail(strict=True, raises=AssertionError,
                        reason="ROADMAP item 2: Newton stops on an absolute residual")
STALLS = pytest.mark.xfail(strict=True, raises=NonConvergence,
                           reason="ROADMAP item 2: Newton's line search stalls")


def path_costs(p, sol, x0):
    """The per-path discounted costs of CFG's 64 paths from x0 under the optimal law."""
    return sde._run(p, policy_coefficients(sol, p), dataclasses.replace(CFG, x0=x0))[0]


def scale_space(p, kappa):
    return p.replace(c=p.c * kappa, h=p.h * kappa, theta=p.theta * kappa,
                     sigma=p.sigma * kappa)


def scale_cost(p, k):
    mu = 2.0 ** k
    return p.replace(N=p.N * mu, R=p.R * mu)


def scale_time(p, k):
    tau = 4.0 ** k
    return p.replace(gen=Generator(p.gen.q * tau), r=p.r * tau, N=p.N * tau,
                     theta=p.theta * tau, h=p.h * tau, R=p.R / tau, sigma=p.sigma * 2.0 ** k)


@pytest.fixture(scope="module")
def base():
    p = benchmark_params()
    sol = solve(p)
    return p, sol, value_constant(sol, p), path_costs(p, sol, CFG.x0)


@pytest.mark.parametrize("k", [-30, -10, 10, 30])
def test_space_scaling_is_exact(base, k):
    p0, s0, w0, costs0 = base
    kappa = 2.0 ** k
    p = scale_space(p0, kappa)
    sol = solve(p)
    assert np.array_equal(sol.phi, s0.phi)
    assert np.array_equal(sol.psi, kappa * s0.psi)
    assert np.array_equal(value_constant(sol, p), kappa ** 2 * w0)
    assert np.array_equal(path_costs(p, sol, kappa * CFG.x0), kappa ** 2 * costs0)


@pytest.mark.parametrize("k", [pytest.param(-30, marks=OFF), pytest.param(-20, marks=OFF),
                               -10, 10, pytest.param(20, marks=STALLS),
                               pytest.param(30, marks=STALLS), pytest.param(40, marks=STALLS)])
def test_cost_scaling_is_exact(base, k):
    p0, s0, w0, costs0 = base
    mu = 2.0 ** k
    p = scale_cost(p0, k)
    sol = solve(p)
    assert np.array_equal(sol.phi, mu * s0.phi)
    assert np.array_equal(sol.psi, mu * s0.psi)
    assert np.array_equal(value_constant(sol, p), mu * w0)
    law, law0 = policy_coefficients(sol, p), policy_coefficients(s0, p0)
    assert np.array_equal(law.slope, law0.slope)
    assert np.array_equal(law.intercept, law0.intercept)
    assert np.array_equal(path_costs(p, sol, CFG.x0), mu * costs0)


@pytest.mark.parametrize("k", [pytest.param(-10, marks=OFF), -5, -1, 1, 5,
                               pytest.param(10, marks=STALLS), pytest.param(20, marks=STALLS)])
def test_time_scaling_is_exact(base, k):
    p0, s0, w0, _ = base
    p = scale_time(p0, k)
    sol = solve(p)
    assert np.array_equal(sol.phi, s0.phi)
    assert np.array_equal(sol.psi, s0.psi)
    assert np.array_equal(value_constant(sol, p), w0)


@pytest.mark.parametrize("p", [scale_cost(benchmark_params(), -40),
                               scale_cost(benchmark_params(), -60),
                               scale_time(benchmark_params(), -20)],
                         ids=["cost-40", "cost-60", "time-20"])
def test_curvature_outside_its_bracket_is_refused(p):
    # Newton returns phi = 0 after 0 iterations: its first residual, N, is
    # already below the absolute tolerance
    for fn in (solve, solve_are):
        with pytest.raises(NonConvergence, match="outside its bracket"):
            fn(p)


def test_cli_solve_exits_3_outside_the_bracket(tmp_path, capsys):
    config = tmp_path / "tiny_cost.json"
    config.write_text(json.dumps(params_to_config(scale_cost(benchmark_params(), -40))))
    code = cli.main(["solve", "--config", str(config), "--out", str(tmp_path),
                     "--label", "tiny"])
    assert code == cli.EXIT_SOLVER == 3
    assert "outside its bracket" in capsys.readouterr().err
    assert [f.name for f in (tmp_path / "solve" / "tiny").iterdir()] == ["manifest.json"]

"""Acceptance suite: one test per shipped guarantee, with stated tolerances.

Each test prints a single summary line so a verbose run reads as a checklist.
The embedded reference values live in regimeplan/data/expected_values.json.
"""

import math
import time

import numpy as np

from regimeplan import (
    SimConfig,
    adjoint_residual,
    asymptotic_decay,
    benchmark_params,
    cli,
    elimination_solve,
    expected_values,
    mc_cost,
    psi_residual,
    shifted_policy,
    solve,
    solve_are,
    sweep_params,
    value_constant,
    value_function,
    value_report,
)
from regimeplan.chain import discounted_functional_mc, discounted_resolvent

from conftest import random_params, relative_residual

EXPECTED = expected_values()
TOL = EXPECTED["tolerance"]


def test_criterion_1_benchmark_regression(tmp_path):
    t0 = time.perf_counter()
    p, sol, coeffs = cli.benchmark_solution()
    elapsed = time.perf_counter() - t0
    ref = EXPECTED["benchmark"]
    worst = max(
        float(np.max(np.abs(sol.phi - ref["phi"]))),
        float(np.max(np.abs(sol.psi - ref["psi"]))),
        float(np.max(np.abs(coeffs.slope - ref["slope"]))),
        float(np.max(np.abs(coeffs.intercept - ref["intercept"]))),
    )
    assert worst <= TOL
    assert elapsed < 1.0
    # the full reproduction pipeline must agree cell for cell (untimed here;
    # its verification stage runs a deliberate multi-second MC cross-check)
    assert cli.main(["reproduce", "--out", str(tmp_path), "--label", "acc"]) == 0
    print(f"criterion 1 PASS: benchmark cells within {worst:.2e} <= {TOL}, "
          f"solve stage {elapsed * 1e3:.0f} ms, reproduce exit 0")


def test_criterion_2_coefficient_table():
    t0 = time.perf_counter()
    rows = cli.table_rows()
    elapsed = time.perf_counter() - t0
    assert len(rows) == len(EXPECTED["table"]) == 12
    worst = 0.0
    for row, ref in zip(rows, EXPECTED["table"]):
        assert row["param"] == ref["param"]
        sol = row["sol"]
        worst = max(worst,
                    float(np.max(np.abs(sol.phi - ref["phi"]))),
                    float(np.max(np.abs(sol.psi - ref["psi"]))))
    assert worst <= TOL
    # the noise level never enters the coefficient systems
    sigma_rows = [row["sol"] for row in rows if row["param"] == "sigma"]
    bench_sol = next(row["sol"] for row in rows
                     if row["param"] == "r" and row["value"] == 0.05)
    for sol in sigma_rows:
        assert np.max(np.abs(sol.phi - bench_sol.phi)) < 1e-10
        assert np.max(np.abs(sol.psi - bench_sol.psi)) < 1e-10
    assert elapsed < 5.0
    print(f"criterion 2 PASS: 12 rows within {worst:.2e} <= {TOL}, "
          f"sigma-invariance exact, {elapsed * 1e3:.0f} ms")


def test_criterion_3_cross_solver_agreement():
    t0 = time.perf_counter()
    p = benchmark_params()
    worst = float(np.max(np.abs(solve_are(p) - elimination_solve(p))))
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        q = random_params(rng)
        gap = float(np.max(np.abs(solve_are(q) - elimination_solve(q))))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 30.0
    print(f"criterion 3 PASS: benchmark + 100 random instances agree within "
          f"{worst:.2e} <= 1e-8, {elapsed:.1f}s")


def test_criterion_4_residual_identities(p_bench, sol_bench):
    # each defect over the sizes of its identity's terms, so the gates hold at any scale
    p, phi, psi = p_bench, sol_bench.phi, sol_bench.psi
    res_phi = relative_residual(phi, p)
    slope_terms = ((phi / p.R + p.r) * np.abs(psi) + np.abs(p.gen.q) @ np.abs(psi)
                   + np.abs(p.h - p.theta) * phi + p.N * np.abs(p.c))
    res_psi = float(np.max(np.abs(psi_residual(phi, psi, p)) / slope_terms))
    rng = np.random.default_rng(424242)
    res_adj = adjoint_residual(p, sol_bench, rng.uniform(-20.0, 20.0, 1000),
                               rng.integers(1, 3, 1000))
    assert res_phi <= 1e-12
    assert res_psi <= 1e-12
    assert res_adj <= 1e-12
    print(f"criterion 4 PASS: relative quadratic residual {res_phi:.2e}, slope residual "
          f"{res_psi:.2e} and adjoint defect {res_adj:.2e} over 1000 samples, all <= 1e-12")


def test_criterion_5_value_function_verification(p_bench, sol_bench):
    t0 = time.perf_counter()
    v0 = value_function(0.0, 1, sol_bench, p_bench)
    cfg = SimConfig(dt=0.01, horizon=200.0, n_paths=10_000, seed=777, x0=0.0, i0=1)
    est = mc_cost(p_bench, sol_bench, cfg)
    coarse_cfg = SimConfig(dt=0.02, horizon=200.0, n_paths=10_000, seed=777,
                           x0=0.0, i0=1)
    coarse = mc_cost(p_bench, sol_bench, coarse_cfg)
    allowance = (3.0 * est.std_error + est.truncation_bound
                 + abs(coarse.mean - est.mean))
    gap = abs(est.mean - v0)
    assert gap <= allowance
    exceed = 0
    for k, delta in enumerate((-0.5, -0.25, 0.25, 0.5, 1.0)):
        pcfg = SimConfig(dt=0.02, horizon=200.0, n_paths=10_000, seed=900 + k,
                         x0=0.0, i0=1)
        perturbed = mc_cost(p_bench, shifted_policy(sol_bench, p_bench, delta),
                            pcfg)
        assert perturbed.mean >= v0 - 2.0 * perturbed.std_error
        exceed += int(perturbed.mean - v0 > 2.0 * perturbed.std_error)
    elapsed = time.perf_counter() - t0
    assert exceed >= 4
    assert elapsed < 120.0
    print(f"criterion 5 PASS: |mc - v(0,1)| = {gap:.4f} <= {allowance:.4f}, "
          f"{exceed}/5 perturbed policies dominate by >2 SE, {elapsed:.0f}s")


def test_criterion_6_discounted_decay(p_bench, sol_bench):
    t0 = time.perf_counter()
    cfg = SimConfig(dt=0.02, horizon=100.0, n_paths=2000, seed=606, x0=5.0, i0=1)
    rows = asymptotic_decay(p_bench, sol_bench, cfg, (1.0, 10.0, 50.0, 100.0))
    ratios = []
    for column in (1, 3):  # X, then Y
        means = [row[column] for row in rows]
        assert means[0] > means[1] > means[2] > means[3] > 0.0
        assert means[3] < 0.01 * means[0]
        ratios.append(means[3] / means[0])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 6 PASS: e^(-rT) second moments decay strictly, "
          f"T=100 over T=1 ratios {ratios[0]:.4f} (state) and "
          f"{ratios[1]:.4f} (adjoint) < 0.01, {elapsed:.0f}s")


def test_criterion_7_resolvent_vs_chain_mc(p_bench, sol_bench):
    g = 0.5 * (p_bench.N * p_bench.c ** 2 + sol_bench.phi * p_bench.sigma ** 2
               - sol_bench.psi ** 2 / p_bench.R
               + 2.0 * sol_bench.psi * (p_bench.h - p_bench.theta))
    w = discounted_resolvent(p_bench.gen, p_bench.r, g)
    assert np.max(np.abs(w - value_constant(sol_bench, p_bench))) < 1e-12
    mean, se = discounted_functional_mc(p_bench.gen, p_bench.r, g, 1, 300.0,
                                        100_000, seed=99)
    gap = abs(mean - w[0])
    assert gap <= 3.0 * se
    print(f"criterion 7 PASS: |mc - w(1)| = {gap:.5f} <= {3.0 * se:.5f} "
          f"(z = {(mean - w[0]) / se:+.2f}, 100000 chain paths)")


def test_criterion_8_monotonicity(p_bench):
    # value at x = 0 falls as the discount rate rises
    ws = []
    for r in (0.03, 0.05, 0.08):
        ps = sweep_params(p_bench, "r", r)
        ws.append(value_constant(solve(ps), ps))
    for i in (0, 1):
        assert ws[0][i] > ws[1][i] > ws[2][i]

    # faster switching pulls the two value curves together: between their
    # crossings (x = 5) the lower curve rises and the upper falls; at x = 0
    # the ordering is reversed, so the same convergence flips the signs
    packs = []
    for q in (1.0, 2.0, 5.0):
        ps = sweep_params(p_bench, "q", q)
        packs.append((ps, solve(ps)))
    v51 = [value_function(5.0, 1, s, ps) for ps, s in packs]
    v52 = [value_function(5.0, 2, s, ps) for ps, s in packs]
    v01 = [value_function(0.0, 1, s, ps) for ps, s in packs]
    v02 = [value_function(0.0, 2, s, ps) for ps, s in packs]
    assert v51[0] < v51[1] < v51[2]
    assert v52[0] > v52[1] > v52[2]
    assert v01[0] > v01[1] > v01[2]
    assert v02[0] < v02[1] < v02[2]
    gaps = [abs(a - b) for a, b in zip(v01, v02)]
    assert gaps[0] > gaps[1] > gaps[2]

    # a higher demand rate lowers the value pointwise on the inventory window
    grid = np.linspace(0.0, 10.0, 201)
    p_lo2 = sweep_params(p_bench, "theta", (4.0, 1.5))
    p_hi1 = sweep_params(p_bench, "theta", (5.0, 2.5))
    table_lo2 = value_report(solve(p_lo2), p_lo2, grid=grid).table
    table_mid = value_report(solve(p_bench), p_bench, grid=grid).table
    table_hi1 = value_report(solve(p_hi1), p_hi1, grid=grid).table
    assert np.all(table_mid < table_lo2)   # theta(2): 1.5 -> 2.5
    assert np.all(table_hi1 < table_mid)   # theta(1): 4 -> 5
    print("criterion 8 PASS: v(0,.) decreasing in r; q-sweep curves converge "
          f"(gap {gaps[0]:.3f} -> {gaps[2]:.3f}) with pointwise directions at "
          "x=5; both theta moves lower v on [0, 10]")

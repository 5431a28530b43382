"""Command-line front end.

Subcommands: solve, sweep, simulate, value, check, reproduce.  Every
invocation writes its artifacts under out/<command>/<label>/ (label defaults
to a UTC timestamp) together with a manifest.json recording the command,
config path, seed, tool version, output directory and wall-clock duration.
Exit codes: 0 success, 1 failed check or reproduction mismatch, 2 invalid
configuration or usage, 3 solver non-convergence.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._svg import line_plot
from .model import ConfigError, ModelParams, load_params, validate_params
from .policy import (
    default_grid,
    feedback_control,
    hamiltonian,
    hamiltonian_minimizer,
    policy_coefficients,
    value_constant,
    value_function,
    value_report,
)
from .reference import (
    SWEEPS,
    benchmark_params,
    expected_values,
    sweep_params,
    sweep_value_label,
)
from .riccati import NonConvergence, solve, write_solution_csv
from .sde import (
    MCEstimate,
    SimConfig,
    adjoint_residual,
    mc_cost,
    simulate_controlled,
    write_mc_summary_csv,
    write_path_csv,
)

DEFAULT_SEED = 12345
_MAX_PATH_FILES = 8

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class CliError(Exception):
    """Terminates the command with a diagnostic and a specific exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written once per invocation, alongside the outputs."""

    command: str
    config: str
    seed: int
    version: str
    out_dir: str
    duration_s: float


def _g(v: float) -> str:
    return format(float(v), ".12g")


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def _load(args) -> ModelParams:
    if args.config is None:
        return benchmark_params()
    try:
        return load_params(args.config)
    except ConfigError as exc:
        raise CliError(EXIT_CONFIG, str(exc))


def _solve_checked(p: ModelParams):
    try:
        return solve(p)
    except NonConvergence as exc:
        raise CliError(EXIT_SOLVER, f"solver did not converge: {exc}")
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, str(exc))


def _value_token(param: str, value) -> str:
    # colon-separated vector components keep CSV cells quote-free
    if param in ("r", "q"):
        return format(float(value), "g")
    return ":".join(format(float(v), "g") for v in np.atleast_1d(value))


def _parse_sweep_values(param: str, text):
    if text is None:
        return list(SWEEPS[param])
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if param in ("r", "q"):
                values.append(float(token))
            else:
                values.append(tuple(float(v) for v in token.split(":")))
        except ValueError:
            raise CliError(EXIT_CONFIG, f"invalid sweep value: {token!r}")
    if not values:
        raise CliError(EXIT_CONFIG, "no sweep values given")
    return values


def _parse_grid(text):
    if text is None:
        return default_grid()
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise CliError(EXIT_CONFIG, f"invalid grid spec: {text!r} (want lo:hi:points)")
    if not (hi > lo and n >= 2):
        raise CliError(EXIT_CONFIG, f"invalid grid spec: {text!r}")
    return default_grid(lo, hi, n)


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _regime_spans(times, regime):
    """Contiguous bands where the (1-based) regime is 2 or higher."""
    spans = []
    n = len(regime)
    start = 0
    for k in range(1, n + 1):
        if k == n or regime[k] != regime[start]:
            if int(regime[start]) >= 2:
                end = times[k] if k < n else times[n - 1]
                spans.append((float(times[start]), float(end),
                              int(regime[start]) - 2))
            start = k
    return spans


def _write_solution_set(out_dir: Path, sol, coeffs) -> None:
    """solution.csv, certificate.csv and feedback.csv of one solve."""
    with open(out_dir / "solution.csv", "w", newline="") as fh:
        write_solution_csv(sol, fh)
    _write_csv(out_dir / "certificate.csv", ["regime", "dominance_margin"],
               [[i + 1, _g(margin)]
                for i, margin in enumerate(sol.certificate.margins())])
    _write_csv(out_dir / "feedback.csv", ["regime", "slope", "intercept"],
               [[i + 1, _g(slope), _g(intercept)]
                for i, (slope, intercept)
                in enumerate(zip(coeffs.slope, coeffs.intercept))])


def _write_table(path: Path, rows, m: int) -> None:
    """table.csv: one row of phi and psi per swept value."""
    header = (["param", "value"]
              + [f"phi_{i + 1}" for i in range(m)]
              + [f"psi_{i + 1}" for i in range(m)])
    _write_csv(path, header,
               [[row["param"], row["token"]]
                + [_g(v) for v in row["sol"].phi]
                + [_g(v) for v in row["sol"].psi] for row in rows])


def _write_curves(csv_path: Path, svg_path: Path, grid, curves, title: str,
                  ylabel: str) -> None:
    """A set of curves on one grid as a CSV table and an SVG plot.

    curves holds (CSV column name, plot legend label, values on grid) triples.
    """
    _write_csv(csv_path, ["x"] + [column for column, _, _ in curves],
               [[_g(x)] + [_g(values[k]) for _, _, values in curves]
                for k, x in enumerate(grid)])
    _write_text(svg_path, line_plot(
        [(label, grid, values) for _, label, values in curves],
        title=title, xlabel="x", ylabel=ylabel))


def _regime_curves(rep):
    """One value curve per regime, as :func:`_write_curves` takes them."""
    return [(f"v_regime_{i + 1}", f"regime {i + 1}", rep.table[:, i])
            for i in range(rep.table.shape[1])]


# ---------------------------------------------------------------------------
# reusable stages (the reproduce pipeline is assembled from these)


def benchmark_solution():
    """Solve the built-in benchmark; returns (params, solution, feedback coefficients)."""
    p = benchmark_params()
    sol = solve(p)
    return p, sol, policy_coefficients(sol, p)


def _sweep_rows(p: ModelParams, param: str, values):
    """Solve p with each value of one swept quantity; one dict per value."""
    rows = []
    for value in values:
        try:
            ps = sweep_params(p, param, value)
        except ValueError as exc:
            raise CliError(EXIT_CONFIG, str(exc))
        rows.append({
            "param": param,
            "value": value,
            "token": _value_token(param, value),
            "label": sweep_value_label(param, value),
            "params": ps,
            "sol": _solve_checked(ps),
        })
    return rows


def table_rows():
    """Solve the four reference sweeps; one dict per row, 12 rows in all."""
    p = benchmark_params()
    return [row for param in ("r", "q", "theta", "sigma")
            for row in _sweep_rows(p, param, SWEEPS[param])]


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args, out_dir: Path) -> int:
    p = _load(args)
    sol = _solve_checked(p)
    coeffs = policy_coefficients(sol, p)
    _write_solution_set(out_dir, sol, coeffs)
    res = max(float(np.max(np.abs(sol.residual_phi))),
              float(np.max(np.abs(sol.residual_psi))))
    for i in range(p.m):
        print(f"regime {i + 1}: phi={sol.phi[i]:.6f} psi={sol.psi[i]:.6f} "
              f"u*(x)={coeffs.slope[i]:+.6f}*x{coeffs.intercept[i]:+.6f}")
    print(f"dominance margin {sol.certificate.min_dominance_margin:.6f}, "
          f"max residual {res:.2e}, {sol.iterations} Newton iterations")
    return EXIT_OK


def cmd_sweep(args, out_dir: Path) -> int:
    p = _load(args)
    values = _parse_sweep_values(args.param, args.values)
    grid = _parse_grid(args.grid)
    rows = _sweep_rows(p, args.param, values)
    _write_table(out_dir / "table.csv", rows, p.m)
    reports = [value_report(row["sol"], row["params"], grid) for row in rows]
    for i in range(p.m):
        _write_curves(out_dir / f"value_curves_regime_{i + 1}.csv",
                      out_dir / f"value_regime_{i + 1}.svg", grid,
                      [(f"{row['param']}={row['token']}", row["label"],
                        rep.table[:, i]) for row, rep in zip(rows, reports)],
                      title=f"value function, regime {i + 1}",
                      ylabel=f"v(x, {i + 1})")
    for row in rows:
        sol = row["sol"]
        cells = " ".join(f"phi({i + 1})={sol.phi[i]:.4f}" for i in range(p.m))
        cells += " " + " ".join(f"psi({i + 1})={sol.psi[i]:.4f}"
                                for i in range(p.m))
        print(f"{row['label']}: {cells}")
    return EXIT_OK


def cmd_value(args, out_dir: Path) -> int:
    p = _load(args)
    sol = _solve_checked(p)
    grid = _parse_grid(args.grid)
    rep = value_report(sol, p, grid)
    _write_curves(out_dir / "value.csv", out_dir / "value.svg", grid,
                  _regime_curves(rep), title="value function", ylabel="v(x, i)")
    w = value_constant(sol, p)
    for i in range(p.m):
        print(f"v(x, {i + 1}) = {0.5 * sol.phi[i]:.6f} x^2 "
              f"{sol.psi[i]:+.6f} x {w[i]:+.6f}")
    return EXIT_OK


def cmd_simulate(args, out_dir: Path) -> int:
    p = _load(args)
    sol = _solve_checked(p)
    try:
        cfg = SimConfig(dt=args.dt, horizon=args.horizon, n_paths=args.paths,
                        seed=args.seed, x0=args.x0, i0=args.i0)
        n_files = min(args.paths, _MAX_PATH_FILES)
        cfg_files = SimConfig(dt=args.dt, horizon=args.horizon,
                              n_paths=n_files, seed=args.seed, x0=args.x0,
                              i0=args.i0)
        # per-path streams are keyed by (seed, path index), so the first
        # n_files paths of the full run are exactly this smaller run
        paths = simulate_controlled(p, sol, cfg_files)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, str(exc))
    for k, cp in enumerate(paths):
        with open(out_dir / f"path_{k + 1:03d}.csv", "w", newline="") as fh:
            write_path_csv(cp, fh)
    first = paths[0]
    svg = line_plot(
        [("x_t", first.times, first.x), ("u_t", first.times, first.u)],
        title="closed-loop path", xlabel="t", ylabel="level",
        spans=_regime_spans(first.times, first.regime),
    )
    _write_text(out_dir / "simulation.svg", svg)
    print(f"{len(paths)} path file(s), {cfg.n_steps} steps of dt={args.dt:g}, "
          f"cost[0,T] of path 1: {first.disc_cost[-1]:.6f}")
    if args.paths >= 2:
        est = mc_cost(p, sol, cfg)
        v0 = float(value_function(args.x0, args.i0, sol, p))
        rows = [
            ("mc_cost", est),
            ("analytic_value", MCEstimate(mean=v0, std_error=0.0,
                                          n=cfg.n_paths, truncation_bound=0.0)),
        ]
        with open(out_dir / "mc_summary.csv", "w", newline="") as fh:
            write_mc_summary_csv(rows, fh)
        gap = est.mean - v0
        print(f"mc cost {est.mean:.6f} (se {est.std_error:.6f}, "
              f"n={est.n}, tail bound {est.truncation_bound:.2e}) vs "
              f"analytic {v0:.6f}, gap {gap:+.6f}")
    return EXIT_OK


def cmd_check(args, out_dir: Path) -> int:
    p = _load(args)
    items = []

    report = validate_params(p)
    items.append(("parameters", report.ok,
                  "all invariants hold" if report.ok
                  else "; ".join(report.violations)))

    sol = None
    try:
        sol = solve(p)
        res = max(float(np.max(np.abs(sol.residual_phi))),
                  float(np.max(np.abs(sol.residual_psi))))
        items.append(("riccati solve", True,
                      f"max residual {res:.2e} in {sol.iterations} iterations"))
    except (ValueError, NonConvergence) as exc:
        items.append(("riccati solve", False, str(exc)))

    if sol is None:
        items.append(("dominance certificate", None, "needs a solved system"))
        items.append(("adjoint residual", None, "needs a solved system"))
        items.append(("hamiltonian minimizer", None, "needs a solved system"))
    else:
        margins = sol.certificate.margins()
        items.append(("dominance certificate", bool(np.all(margins > 0)),
                      f"min margin {float(np.min(margins)):.6f}"))

        rng = np.random.default_rng(0)
        samples = [(float(x), int(i)) for x, i in
                   zip(rng.uniform(-20.0, 20.0, 1000),
                       rng.integers(1, p.m + 1, 1000))]
        res = adjoint_residual(p, sol, samples)
        items.append(("adjoint residual", res <= 1e-9,
                      f"max {res:.2e} over 1000 samples"))

        ok = True
        detail = "feedback minimizes H at spot checks"
        for x in (-10.0, -1.0, 0.0, 1.0, 10.0):
            for i in range(1, p.m + 1):
                y = float(sol.phi[i - 1] * x + sol.psi[i - 1])
                u_star = float(feedback_control(x, i, sol, p))
                if abs(u_star - hamiltonian_minimizer(i, y, p)) > 1e-10:
                    ok, detail = False, f"feedback differs from argmin H at x={x:g}, i={i}"
                    break
                h0 = hamiltonian(x, i, u_star, y, 0.0, p)
                if (hamiltonian(x, i, u_star + 0.1, y, 0.0, p) <= h0
                        or hamiltonian(x, i, u_star - 0.1, y, 0.0, p) <= h0):
                    ok, detail = False, f"H not minimal at x={x:g}, i={i}"
                    break
            if not ok:
                break
        items.append(("hamiltonian minimizer", ok, detail))

    lines = []
    failed = False
    for name, ok, detail in items:
        status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
        failed = failed or status == "FAIL"
        lines.append(f"{status} {name}: {detail}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_text(out_dir / "report.txt", text)
    return EXIT_CHECK if failed else EXIT_OK


def _read_expected(path):
    """Reference values and tolerance, checked before any solve or MC work."""
    if path is None:
        expected = expected_values()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                expected = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(EXIT_CONFIG, f"cannot read expected values: {exc}")
    if not isinstance(expected, dict):
        raise CliError(EXIT_CONFIG, "expected values must be a JSON object")
    bench = expected.get("benchmark")
    missing = [key for key in ("tolerance", "table") if key not in expected]
    missing += [f"benchmark.{key}" for key in ("phi", "psi", "slope", "intercept")
                if not isinstance(bench, dict) or key not in bench]
    if missing:
        raise CliError(EXIT_CONFIG, "expected values lack " + ", ".join(missing))
    m = benchmark_params().m
    bad = [f"benchmark.{key}" for key in ("phi", "psi", "slope", "intercept")
           if not _numbers(bench[key], m)]
    table = expected["table"]
    if isinstance(table, list):
        bad += [f"table[{k}]" for k, entry in enumerate(table)
                if not _table_entry_ok(entry, m)]
    else:
        bad.append("table")
    if bad:
        raise CliError(EXIT_CONFIG, "malformed expected values: " + ", ".join(bad))
    try:
        return expected, float(expected["tolerance"])
    except (TypeError, ValueError):
        raise CliError(EXIT_CONFIG, "expected tolerance must be a number")


def _numbers(value, m: int) -> bool:
    """True for a JSON list of m numbers."""
    return (isinstance(value, list) and len(value) == m
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value))


def _table_entry_ok(entry, m: int) -> bool:
    """An expected table row: param, a value it accepts, and phi/psi lists."""
    if not (isinstance(entry, dict) and isinstance(entry.get("param"), str)
            and "value" in entry and _numbers(entry.get("phi"), m)
            and _numbers(entry.get("psi"), m)):
        return False
    try:
        _value_token(entry["param"], entry["value"])
    except (TypeError, ValueError):
        return False
    return True


def cmd_reproduce(args, out_dir: Path) -> int:
    if args.config is not None:
        raise CliError(EXIT_CONFIG,
                       "reproduce uses the built-in benchmark configuration")
    expected, tol = _read_expected(args.expected)
    try:
        sim_cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=1, seed=args.seed,
                            x0=0.0, i0=1)
        mc_cfg = replace(sim_cfg, dt=0.02, horizon=150.0, n_paths=4000)
        mc_cfg2 = replace(mc_cfg, dt=0.04)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, str(exc))

    p, sol, coeffs = benchmark_solution()
    _write_solution_set(out_dir, sol, coeffs)

    rows = table_rows()
    _write_table(out_dir / "table.csv", rows, p.m)

    grid = default_grid()
    _write_curves(out_dir / "value_benchmark.csv",
                  out_dir / "value_benchmark.svg", grid,
                  _regime_curves(value_report(sol, p, grid)),
                  title="value function, benchmark", ylabel="v(x, i)")
    reports = [value_report(row["sol"], row["params"], grid) for row in rows]
    for param in ("r", "q", "theta", "sigma"):
        _write_curves(out_dir / f"value_sweep_{param}.csv",
                      out_dir / f"value_sweep_{param}.svg", grid,
                      [(f"{param}={row['token']} i={i + 1}",
                        f"{row['label']} i={i + 1}", rep.table[:, i])
                       for row, rep in zip(rows, reports)
                       if row["param"] == param
                       for i in range(p.m)],
                      title=f"value functions for swept {param}",
                      ylabel="v(x, i)")

    (path,) = simulate_controlled(p, sol, sim_cfg)
    with open(out_dir / "simulation.csv", "w", newline="") as fh:
        write_path_csv(path, fh)
    _write_text(out_dir / "simulation.svg", line_plot(
        [("x_t", path.times, path.x), ("u_t", path.times, path.u)],
        title="seeded closed-loop path", xlabel="t", ylabel="level",
        spans=_regime_spans(path.times, path.regime),
    ))

    # statistical cross-check of the analytic value; informational only
    v0 = float(value_function(0.0, 1, sol, p))
    est = mc_cost(p, sol, mc_cfg)
    est2 = mc_cost(p, sol, mc_cfg2)
    bias = abs(est2.mean - est.mean)
    allowance = 3.0 * est.std_error + est.truncation_bound + bias
    with open(out_dir / "mc_verification.csv", "w", newline="") as fh:
        write_mc_summary_csv([
            ("mc_cost_dt_0.02", est),
            ("mc_cost_dt_0.04", est2),
            ("analytic_value", MCEstimate(mean=v0, std_error=0.0,
                                          n=mc_cfg.n_paths,
                                          truncation_bound=0.0)),
        ], fh)
    mc_ok = abs(est.mean - v0) <= allowance

    cells = []
    bench = expected["benchmark"]
    for i in range(p.m):
        cells.append((f"phi({i + 1})", float(bench["phi"][i]), float(sol.phi[i])))
        cells.append((f"psi({i + 1})", float(bench["psi"][i]), float(sol.psi[i])))
    for i in range(p.m):
        cells.append((f"slope({i + 1})", float(bench["slope"][i]),
                      float(coeffs.slope[i])))
        cells.append((f"intercept({i + 1})", float(bench["intercept"][i]),
                      float(coeffs.intercept[i])))
    computed = {(row["param"], row["token"]): row for row in rows}
    matched_rows = 0
    for entry in expected["table"]:
        key = (entry["param"], _value_token(entry["param"], entry["value"]))
        row = computed.get(key)
        if row is None:
            raise CliError(EXIT_CHECK,
                           f"expected table row {key} was not computed")
        label = row["label"]
        row_ok = True
        for i in range(p.m):
            exp_phi = float(entry["phi"][i])
            exp_psi = float(entry["psi"][i])
            act_phi = float(row["sol"].phi[i])
            act_psi = float(row["sol"].psi[i])
            cells.append((f"{label} phi({i + 1})", exp_phi, act_phi))
            cells.append((f"{label} psi({i + 1})", exp_psi, act_psi))
            row_ok = (row_ok and abs(exp_phi - act_phi) <= tol
                      and abs(exp_psi - act_psi) <= tol)
        matched_rows += int(row_ok)

    n_ok = 0
    bad_cells = []
    diff_rows = []
    for name, exp, act in cells:
        err = abs(exp - act)
        ok = err <= tol
        n_ok += int(ok)
        if not ok:
            bad_cells.append(name)
        diff_rows.append([name, format(exp, "g"), _g(act),
                          format(err, ".3e"), "true" if ok else "false"])
    _write_csv(out_dir / "diff.csv",
               ["cell", "expected", "actual", "abs_error", "within_tol"],
               diff_rows)

    pairs = " / ".join(f"({coeffs.slope[i]:.4f}, {coeffs.intercept[i]:.4f})"
                       for i in range(p.m))
    ref_pairs = " / ".join(f"({bench['slope'][i]:g}, {bench['intercept'][i]:g})"
                           for i in range(p.m))
    print(f"feedback coefficients {pairs}, reference {ref_pairs}")
    print(f"table rows matched: {matched_rows}/{len(expected['table'])}")
    print(f"mc verification: |{est.mean:.4f} - {v0:.4f}| "
          f"{'<=' if mc_ok else '>'} {allowance:.4f} "
          f"({'ok' if mc_ok else 'outside allowance'}, informational)")
    print(f"diff: {n_ok}/{len(cells)} cells within {tol:g}")
    if bad_cells:
        for name in bad_cells:
            print(f"mismatch: {name}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "value": cmd_value,
    "check": cmd_check,
    "reproduce": cmd_reproduce,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON parameter file (default: built-in benchmark)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="random seed (default %(default)s)")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output root directory (default %(default)s)")
    common.add_argument("--label", metavar="STR",
                        help="output subdirectory name (default: UTC timestamp)")

    parser = argparse.ArgumentParser(
        prog="regimeplan",
        description="Regime-switching production planning: solve, simulate, verify.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", parents=[common],
                   help="solve the curvature/slope systems")

    sp = sub.add_parser("sweep", parents=[common],
                        help="solve across one swept parameter")
    sp.add_argument("--param", required=True,
                    choices=("r", "q", "theta", "sigma"))
    sp.add_argument("--values",
                    help="comma-separated values; vector components "
                         "colon-separated (e.g. 4:1.5,5:2.5); default: "
                         "the built-in reference values")
    sp.add_argument("--grid", metavar="LO:HI:N",
                    help="inventory grid for the value curves (default -10:10:401)")

    sp = sub.add_parser("simulate", parents=[common],
                        help="simulate closed-loop paths")
    sp.add_argument("--paths", type=int, default=1)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--horizon", type=float, default=10.0)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--i0", type=int, default=1)

    sp = sub.add_parser("value", parents=[common],
                        help="tabulate the analytic value function")
    sp.add_argument("--grid", metavar="LO:HI:N",
                    help="inventory grid (default -10:10:401)")

    sub.add_parser("check", parents=[common],
                   help="run model and optimality diagnostics")

    sp = sub.add_parser("reproduce", parents=[common],
                        help="regenerate the reference artifact set and diff it")
    sp.add_argument("--expected", metavar="PATH",
                    help="alternate expected-values JSON (self-test hook)")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out) / args.command / (args.label or _timestamp())
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    start = time.perf_counter()
    try:
        code = _COMMANDS[args.command](args, out_dir)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        code = exc.code
    finally:
        manifest = RunManifest(
            command=args.command,
            config=args.config or "builtin",
            seed=args.seed,
            version=__version__,
            out_dir=str(out_dir),
            duration_s=round(time.perf_counter() - start, 3),
        )
        with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(asdict(manifest), fh, indent=2)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

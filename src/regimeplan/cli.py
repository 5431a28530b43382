"""Command-line front end.

Subcommands: solve, sweep, simulate, value, check, reproduce.  Every
invocation writes its artifacts under out/<command>/<label>/ (label defaults
to a UTC timestamp) together with a manifest.json recording the command,
config path, seed, tool version, output directory and wall-clock duration.
Exit codes: 0 success, 1 failed check or reproduction mismatch, 2 invalid
configuration or usage, 3 solver non-convergence.  Commands raise; only
:func:`main` maps exceptions to exit codes, ValueError (ConfigError included)
to 2 and NonConvergence to 3.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._svg import line_plot
from .model import ModelParams, load_params, validate_params
from .policy import (
    default_grid,
    policy_coefficients,
    value_constant,
    value_function,
    value_report,
)
from .reference import SWEEPS, benchmark_params, expected_values, sweep_params
from .riccati import NonConvergence, solve
from .sde import _KEEP_BUDGET, SimConfig, _adjoint_terms, mc_cost, simulate_controlled

DEFAULT_SEED = 12345
_MAX_PATH_FILES = 8

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _g(v: float) -> str:
    return format(float(v), ".12g")


def _column(values, spec: str = "{:.12g}") -> list:
    """Every entry of a 1-d array as text, in one pass; the default spec is _g's."""
    return list(map(spec.format, np.asarray(values, dtype=float).tolist()))


def _f6(v: float, sign: str = "") -> str:
    """Six decimals, switching to exponent form at 1e6 so huge values stay short."""
    return format(float(v), sign + (".6f" if abs(v) < 1e6 else ".6e"))


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def _load(args) -> ModelParams:
    if args.config is None:
        return benchmark_params()
    return load_params(args.config)


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
            raise ValueError(f"invalid sweep value: {token!r}") from None
        if not np.all(np.isfinite(values[-1])):
            raise ValueError(f"sweep value not finite: {token!r}")
    if not values:
        raise ValueError("no sweep values given")
    return values


def _parse_grid(text, m: int):
    """The inventory grid of a lo:hi:points spec, for value tables over m regimes.

    The grid and one value table take points x (m + 1) floats; over the
    budget sde applies to kept paths, the spec is refused before any work.
    """
    if text is None:
        return default_grid()
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ValueError(f"invalid grid spec: {text!r} (want lo:hi:points)") from None
    if not (hi > lo and np.isfinite(hi - lo) and n >= 2):
        raise ValueError(f"invalid grid spec: {text!r}")
    size = n * (m + 1) * 8
    if size > _KEEP_BUDGET:
        raise ValueError(f"grid spec {text!r} would take {size / 2**30:.3g} GiB over "
                         f"{m} regimes, over the {_KEEP_BUDGET / 2**30:g} GiB budget")
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
    regimes = range(1, len(sol.phi) + 1)
    _write_csv(out_dir / "solution.csv",
               ["regime", "phi", "psi", "residual_phi", "residual_psi"],
               zip(regimes, _column(sol.phi), _column(sol.psi),
                   _column(sol.residual_phi, "{:.3e}"), _column(sol.residual_psi, "{:.3e}")))
    _write_csv(out_dir / "certificate.csv", ["regime", "dominance_margin"],
               zip(regimes, _column(sol.certificate.margins())))
    _write_csv(out_dir / "feedback.csv", ["regime", "slope", "intercept"],
               zip(regimes, _column(coeffs.slope), _column(coeffs.intercept)))


def _write_table(path: Path, rows, m: int) -> None:
    """table.csv: one row of phi and psi per swept value."""
    header = (["param", "value"]
              + [f"phi_{i + 1}" for i in range(m)]
              + [f"psi_{i + 1}" for i in range(m)])
    _write_csv(path, header,
               [[row["param"], row["token"]]
                + _column(row["sol"].phi) + _column(row["sol"].psi)
                for row in rows])


def _write_curves(csv_path: Path, svg_path: Path, grid, curves, title: str,
                  ylabel: str) -> None:
    """A set of curves on one grid as a CSV table and an SVG plot.

    curves holds (CSV column name, plot legend label, values on grid) triples.
    """
    _write_csv(csv_path, ["x"] + [column for column, _, _ in curves],
               zip(_column(grid), *(_column(values) for _, _, values in curves)))
    _write_text(svg_path, line_plot(
        [(label, grid, values) for _, label, values in curves],
        title=title, xlabel="x", ylabel=ylabel))


def _write_path(path, csv_path: Path, svg_path=None, title: str = "") -> None:
    """A kept path's rows and, given svg_path, its x/u plot with regime bands."""
    _write_csv(csv_path, ["t", "x", "u", "regime", "disc_cost"],
               zip(_column(path.times), _column(path.x), _column(path.u),
                   path.regime.tolist(), _column(path.disc_cost)))
    if svg_path is not None:
        _write_text(svg_path, line_plot(
            [("x_t", path.times, path.x), ("u_t", path.times, path.u)],
            title=title, xlabel="t", ylabel="level",
            spans=_regime_spans(path.times, path.regime)))


def _write_mc_summary(path: Path, estimates, v0: float, n: int) -> None:
    """Labelled MC estimates, then the analytic value v0 they estimate."""
    _write_csv(path, ["quantity", "mean", "std_error", "n", "truncation_bound"],
               [[name, _g(est.mean), _g(est.std_error), est.n,
                 _g(est.truncation_bound)] for name, est in estimates]
               + [["analytic_value", _g(v0), 0, n, 0]])


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
        ps = sweep_params(p, param, value)
        if param in ("r", "q"):
            token = shown = format(float(value), "g")
        else:  # colon-separated vector components keep CSV cells quote-free
            token = ":".join(format(float(v), "g") for v in np.atleast_1d(value))
            shown = f"({token.replace(':', ',')})"
        rows.append({
            "param": param,
            "value": value,
            "token": token,
            "label": f"{param}={shown}",
            "params": ps,
            "sol": solve(ps),
        })
    return rows


def table_rows():
    """Solve the reference table's entries, in its order; one dict per entry."""
    p = benchmark_params()
    return [row for entry in expected_values()["table"]
            for row in _sweep_rows(p, entry["param"], [entry["value"]])]


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args, out_dir: Path) -> int:
    p = _load(args)
    sol = solve(p)
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
    grid = _parse_grid(args.grid, p.m)
    rows = _sweep_rows(p, args.param, values)
    reports = [value_report(row["sol"], row["params"], grid) for row in rows]
    _write_table(out_dir / "table.csv", rows, p.m)
    for i in range(p.m):
        _write_curves(out_dir / f"value_curves_regime_{i + 1}.csv",
                      out_dir / f"value_regime_{i + 1}.svg", grid,
                      [(f"{row['param']}={row['token']}", row["label"],
                        rep.table[:, i]) for row, rep in zip(rows, reports)],
                      title=f"value function, regime {i + 1}",
                      ylabel=f"v(x, {i + 1})")
    for row in rows:
        cells = " ".join(f"{name}({i + 1})={getattr(row['sol'], name)[i]:.4f}"
                         for name in ("phi", "psi") for i in range(p.m))
        print(f"{row['label']}: {cells}")
    return EXIT_OK


def cmd_value(args, out_dir: Path) -> int:
    p = _load(args)
    grid = _parse_grid(args.grid, p.m)
    sol = solve(p)
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
    sol = solve(p)
    cfg = SimConfig(dt=args.dt, horizon=args.horizon, n_paths=args.paths,
                    seed=args.seed, x0=args.x0, i0=args.i0)
    # per-path streams are keyed by (seed, path index), so the first
    # path files are exactly the first paths of the full run
    paths = simulate_controlled(
        p, sol, replace(cfg, n_paths=min(args.paths, _MAX_PATH_FILES)))
    est = mc_cost(p, sol, cfg) if args.paths >= 2 else None
    for k, path in enumerate(paths):
        _write_path(path, out_dir / f"path_{k + 1:03d}.csv",
                    out_dir / "simulation.svg" if k == 0 else None,
                    "closed-loop path")
    print(f"{len(paths)} path file(s), {cfg.n_steps} steps of dt={args.dt:g}, "
          f"cost[0,T] of path 1: {_f6(paths[0].disc_cost[-1])}")
    if est is not None:
        v0 = float(value_function(args.x0, args.i0, sol, p))
        _write_mc_summary(out_dir / "mc_summary.csv", [("mc_cost", est)],
                          v0, cfg.n_paths)
        gap = est.mean - v0
        print(f"mc cost {_f6(est.mean)} (se {_f6(est.std_error)}, "
              f"n={est.n}, tail bound {est.truncation_bound:.2e}) vs "
              f"analytic {_f6(v0)}, gap {_f6(gap, '+')}")
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
        items.append(("adjoint residual", None, "needs a solved system"))
    else:
        rng = np.random.default_rng(0)
        samples = [(float(x), int(i)) for x, i in
                   zip(rng.uniform(-20.0, 20.0, 1000),
                       rng.integers(1, p.m + 1, 1000))]
        res, scale = _adjoint_terms(p, sol, samples)
        res = float(np.max(np.abs(res)))
        bound = 1e-12 * float(np.max(scale))  # relative to the identity's largest terms
        items.append(("adjoint residual", res <= bound,
                      f"max {res:.2e} over 1000 samples, bound {bound:.2e}"))

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


def cmd_reproduce(args, out_dir: Path) -> int:
    if args.config is not None:
        raise ValueError("reproduce uses the built-in benchmark configuration")
    expected = expected_values()
    tol = float(expected["tolerance"])
    # built before any work, so a bad seed leaves only the manifest
    sim_cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=1, seed=args.seed,
                        x0=0.0, i0=1)
    mc_cfg = replace(sim_cfg, dt=0.02, horizon=150.0, n_paths=4000)
    mc_cfg2 = replace(mc_cfg, dt=0.04)

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
    for param in dict.fromkeys(row["param"] for row in rows):
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
    _write_path(path, out_dir / "simulation.csv", out_dir / "simulation.svg",
                "seeded closed-loop path")

    # statistical cross-check of the analytic value; informational only
    v0 = float(value_function(0.0, 1, sol, p))
    est = mc_cost(p, sol, mc_cfg)
    est2 = mc_cost(p, sol, mc_cfg2)
    bias = abs(est2.mean - est.mean)
    allowance = 3.0 * est.std_error + est.truncation_bound + bias
    _write_mc_summary(out_dir / "mc_verification.csv",
                      [("mc_cost_dt_0.02", est), ("mc_cost_dt_0.04", est2)],
                      v0, mc_cfg.n_paths)
    mc_ok = abs(est.mean - v0) <= allowance

    # (table row or None, cell name prefix, expected values, solved values, names)
    bench = expected["benchmark"]
    blocks = [(None, "", bench, sol, ("phi", "psi")),
              (None, "", bench, coeffs, ("slope", "intercept"))]
    blocks += [(k, f"{row['label']} ", entry, row["sol"], ("phi", "psi"))
               for k, (entry, row) in enumerate(zip(expected["table"], rows, strict=True))]
    diff_rows, bad_cells, bad_rows = [], [], set()
    for k, prefix, exp_set, ours, names in blocks:
        for i in range(p.m):
            for name in names:
                cell = f"{prefix}{name}({i + 1})"
                exp, act = float(exp_set[name][i]), float(getattr(ours, name)[i])
                err = abs(exp - act)
                ok = err <= tol
                if not ok:
                    bad_cells.append(cell)
                    bad_rows.add(k)
                diff_rows.append([cell, format(exp, "g"), _g(act),
                                  format(err, ".3e"), "true" if ok else "false"])
    _write_csv(out_dir / "diff.csv",
               ["cell", "expected", "actual", "abs_error", "within_tol"],
               diff_rows)
    matched_rows = len(rows) - len(bad_rows - {None})

    pairs = " / ".join(f"({coeffs.slope[i]:.4f}, {coeffs.intercept[i]:.4f})"
                       for i in range(p.m))
    ref_pairs = " / ".join(f"({bench['slope'][i]:g}, {bench['intercept'][i]:g})"
                           for i in range(p.m))
    print(f"feedback coefficients {pairs}, reference {ref_pairs}")
    print(f"table rows matched: {matched_rows}/{len(expected['table'])}")
    print(f"mc verification: |{est.mean:.4f} - {v0:.4f}| "
          f"{'<=' if mc_ok else '>'} {allowance:.4f} "
          f"({'ok' if mc_ok else 'outside allowance'}, informational)")
    print(f"diff: {len(diff_rows) - len(bad_cells)}/{len(diff_rows)} cells within {tol:g}")
    for name in bad_cells:
        print(f"mismatch: {name}", file=sys.stderr)
    return EXIT_CHECK if bad_cells else EXIT_OK


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
    sp.add_argument("--param", required=True, choices=tuple(SWEEPS))
    sp.add_argument("--values",
                    help="comma-separated values; vector components "
                         "colon-separated (e.g. 4:1.5,5:2.5); default: "
                         "the reference table's values")
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

    sub.add_parser("reproduce", parents=[common],
                   help="regenerate the reference artifact set and diff it")

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
    except NonConvergence as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    finally:
        _write_text(out_dir / "manifest.json", json.dumps({
            "command": args.command,
            "config": args.config or "builtin",
            "seed": args.seed,
            "version": __version__,
            "out_dir": str(out_dir),
            "duration_s": round(time.perf_counter() - start, 3),
        }, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: artifacts, exit codes, determinism, reproduction."""

import csv
import json
import math
import re
import xml.dom.minidom
from types import SimpleNamespace

import numpy as np
import pytest

from regimeplan import _svg, cli
from regimeplan.model import params_to_config
from regimeplan.reference import benchmark_params, expected_values
from regimeplan.riccati import NonConvergence


def run(args):
    return cli.main(args)


def write_config(tmp_path, name="params.json", **overrides):
    raw = params_to_config(benchmark_params())
    raw.update(overrides)
    fn = tmp_path / name
    fn.write_text(json.dumps(raw), encoding="utf-8")
    return str(fn)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_artifacts_and_values(tmp_path, capsys):
    assert run(["solve", "--out", str(tmp_path), "--label", "a"]) == 0
    d = tmp_path / "solve" / "a"
    lines = (d / "solution.csv").read_text().splitlines()
    assert lines[0] == "regime,phi,psi,residual_phi,residual_psi"
    rows = read_csv(d / "solution.csv")
    assert len(rows) == 2
    assert rows[0]["regime"] == "1"
    for row in rows:  # residuals in three-digit scientific notation
        for key in ("residual_phi", "residual_psi"):
            assert row[key] == format(float(row[key]), ".3e")
    assert float(rows[0]["phi"]) == pytest.approx(0.40833148, abs=1e-6)
    assert float(rows[1]["psi"]) == pytest.approx(-0.23297408, abs=1e-6)
    cert = read_csv(d / "certificate.csv")
    assert float(cert[0]["dominance_margin"]) == pytest.approx(1.683326, abs=1e-5)
    fb = read_csv(d / "feedback.csv")
    assert float(fb[0]["slope"]) == pytest.approx(-0.81666297, abs=1e-6)
    assert float(fb[1]["intercept"]) == pytest.approx(4.58243521, abs=1e-6)
    out = capsys.readouterr().out
    assert "dominance margin" in out
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["seed"] == cli.DEFAULT_SEED
    assert manifest["duration_s"] >= 0.0
    assert set(manifest) == {"command", "config", "seed", "version", "out_dir",
                             "duration_s"}


def test_solve_reads_config(tmp_path):
    cfg = write_config(tmp_path, r=0.08)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path), "--label", "r8"]) == 0
    rows = read_csv(tmp_path / "solve" / "r8" / "solution.csv")
    assert float(rows[0]["phi"]) == pytest.approx(0.402, abs=5e-4)


def test_one_regime_config(tmp_path):
    fn = tmp_path / "one.json"
    fn.write_text(json.dumps({"m": 1, "Q": [0.0], "r": 0.05, "theta": [4.0],
                              "sigma": [0.0], "c": [3.0], "h": [5.0],
                              "N": [0.4], "R": [0.5]}), encoding="utf-8")
    assert run(["solve", "--config", str(fn), "--out", str(tmp_path),
                "--label", "one"]) == 0
    rows = read_csv(tmp_path / "solve" / "one" / "solution.csv")
    assert float(rows[0]["phi"]) == pytest.approx(0.434888254204332, abs=1e-9)


def test_missing_config_key_exit_2(tmp_path, capsys):
    raw = params_to_config(benchmark_params())
    del raw["N"]
    fn = tmp_path / "bad.json"
    fn.write_text(json.dumps(raw), encoding="utf-8")
    assert run(["solve", "--config", str(fn), "--out", str(tmp_path)]) == 2
    assert "missing key: N" in capsys.readouterr().err


def test_unreadable_config_exit_2(tmp_path, capsys):
    assert run(["solve", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_invalid_params_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, r=0.0)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "r not positive" in capsys.readouterr().err


def test_non_finite_config_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, r=float("inf"))  # serialized as Infinity
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "key 'r' must be finite" in capsys.readouterr().err


def test_nonconvergence_exit_3(tmp_path, capsys, monkeypatch):
    def fake(p):
        raise NonConvergence("no progress", residual=1.0)

    monkeypatch.setattr(cli, "solve", fake)
    for label, args in [("solve", ["solve"]), ("sweep", ["sweep", "--param", "r"]),
                        ("value", ["value"]), ("simulate", ["simulate"]),
                        ("reproduce", ["reproduce"])]:
        assert run(args + ["--out", str(tmp_path), "--label", label]) == 3, label
        assert "did not converge" in capsys.readouterr().err, label
        assert [f.name for f in (tmp_path / args[0] / label).iterdir()] == ["manifest.json"]


def test_sweep_r_table(tmp_path):
    assert run(["sweep", "--param", "r", "--out", str(tmp_path), "--label", "r"]) == 0
    rows = read_csv(tmp_path / "sweep" / "r" / "table.csv")
    assert [row["value"] for row in rows] == ["0.03", "0.05", "0.08"]
    assert float(rows[0]["phi_1"]) == pytest.approx(0.413, abs=5e-4)
    assert float(rows[2]["psi_2"]) == pytest.approx(-0.236, abs=5e-4)
    svg = (tmp_path / "sweep" / "r" / "value_regime_1.svg").read_text()
    xml.dom.minidom.parseString(svg)


def test_sweep_explicit_values(tmp_path):
    assert run(["sweep", "--param", "q", "--values", "1,3", "--out", str(tmp_path),
                "--label", "q"]) == 0
    rows = read_csv(tmp_path / "sweep" / "q" / "table.csv")
    assert len(rows) == 2
    assert [row["value"] for row in rows] == ["1", "3"]


def test_sweep_vector_tokens_and_labels(tmp_path):
    assert run(["sweep", "--param", "theta", "--values", "4:1.5,5:2.5",
                "--out", str(tmp_path), "--label", "theta"]) == 0
    d = tmp_path / "sweep" / "theta"
    assert [row["value"] for row in read_csv(d / "table.csv")] == ["4:1.5", "5:2.5"]
    header = (d / "value_curves_regime_1.csv").read_text().splitlines()[0]
    assert header == "x,theta=4:1.5,theta=5:2.5"
    svg = (d / "value_regime_1.svg").read_text()
    assert ">theta=(4,1.5)<" in svg and ">theta=(5,2.5)<" in svg


def test_sweep_q_needs_symmetric_two_state(tmp_path, capsys):
    cfg = write_config(tmp_path, Q=[-1.0, 1.0, 2.0, -2.0])
    assert run(["sweep", "--param", "q", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "symmetric" in capsys.readouterr().err


def test_sweep_bad_values_exit_2(tmp_path, capsys):
    assert run(["sweep", "--param", "r", "--values", "a,b",
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # the overflowing grid fails in the value tables, before table.csv is written
    for label, extra in [("nan:1", ["--values", "nan:1"]), ("inf:1", ["--values", "inf:1"]),
                         ("grid", ["--grid=-1e160:1e160:3"])]:
        assert run(["sweep", "--param", "sigma", *extra,
                    "--out", str(tmp_path), "--label", label]) == 2
        assert "not finite" in capsys.readouterr().err
        assert [f.name for f in (tmp_path / "sweep" / label).iterdir()] == ["manifest.json"]


def test_value_grid(tmp_path, capsys):
    assert run(["value", "--grid=-2:2:5", "--out", str(tmp_path),
                "--label", "v"]) == 0
    rows = read_csv(tmp_path / "value" / "v" / "value.csv")
    assert len(rows) == 5
    assert list(rows[0]) == ["x", "v_regime_1", "v_regime_2"]
    assert [row["x"] for row in rows] == ["-2", "-1", "0", "1", "2"]
    assert float(rows[2]["v_regime_1"]) == pytest.approx(10.83452872, abs=1e-6)
    assert "v(x, 1)" in capsys.readouterr().out
    xml.dom.minidom.parseString((tmp_path / "value" / "v" / "value.svg").read_text())


def test_value_rejects_non_finite_grid(tmp_path, capsys):
    # the second grid is finite, but x^2 overflows in the value table
    for label, grid, message in [("inf", "0:inf:5", "invalid grid spec"),
                                 ("huge", "-1e160:1e160:3", "value table is not finite")]:
        assert run(["value", f"--grid={grid}", "--out", str(tmp_path), "--label", label]) == 2
        assert message in capsys.readouterr().err
        assert [f.name for f in (tmp_path / "value" / label).iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("command", ["value", "sweep"])
def test_grid_over_budget_exit_2(tmp_path, capsys, command):
    # 2e9 points x 3 columns of 8 bytes: refused before any solve or allocation
    extra = ["--param", "r"] if command == "sweep" else []
    assert run([command, *extra, "--grid=0:1:2000000000", "--out", str(tmp_path),
                "--label", "big"]) == 2
    assert "GiB budget" in capsys.readouterr().err
    assert [f.name for f in (tmp_path / command / "big").iterdir()] == ["manifest.json"]


def test_grid_budget_counts_points_and_regimes(monkeypatch):
    monkeypatch.setattr(cli, "_KEEP_BUDGET", 10 * 3 * 8)
    assert cli._parse_grid("0:1:10", 2).shape == (10,)
    with pytest.raises(ValueError, match="budget"):
        cli._parse_grid("0:1:11", 2)
    with pytest.raises(ValueError, match="budget"):
        cli._parse_grid("0:1:10", 3)


# values whose text is easy to get wrong: signed zero, a subnormal-adjacent
# tiny number, an integer float64 cannot hold, and twelve significant digits
AWKWARD = [-0.0, 1e-300, 2.0 ** 53 + 1, 123456.789012345, -9.87654321098e-7, 0.1 + 0.2,
           1e22, -2.5, 0.0, 7.0]


def csv_reference(header, columns):
    """A CSV rendered one element at a time: the reference for the column writers."""
    lines = [",".join(header)]
    for cells in zip(*columns):
        lines.append(",".join(str(v) if isinstance(v, int) else format(float(v), ".12g")
                              for v in cells))
    return "\n".join(lines) + "\n"


def polylines_reference(series):
    """line_plot's points attributes for (xs, ys) lists, one element at a time."""
    kept = []
    for xs, ys in series:
        n = len(xs)
        if n > _svg._MAX_POINTS:
            keep = list(range(0, n, math.ceil(n / _svg._MAX_POINTS)))
            if keep[-1] != n - 1:
                keep.append(n - 1)
            xs, ys = [xs[k] for k in keep], [ys[k] for k in keep]
        kept.append((xs, ys))
    x_lo = min(min(xs) for xs, _ in kept)
    x_hi = max(max(xs) for xs, _ in kept)
    y_lo = min(min(ys) for _, ys in kept)
    y_hi = max(max(ys) for _, ys in kept)
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    ml, pw, mt, ph = 62.0, 720 - 62.0 - 16.0, 30.0, 440 - 30.0 - 46.0
    return [" ".join(format(float(ml + (a - x_lo) / (x_hi - x_lo) * pw), ".2f") + ","
                     + format(float(mt + (y_hi - b) / (y_hi - y_lo) * ph), ".2f")
                     for a, b in zip(xs, ys)) for xs, ys in kept]


def polylines(svg):
    return re.findall(r'<polyline [^>]*points="([^"]*)"', svg)


def test_writers_match_per_element_rendering(tmp_path):
    rng = np.random.default_rng(9)
    grid = np.array(AWKWARD)
    curves = [("a", "curve a", np.array(AWKWARD[::-1])),
              ("b", "curve b", rng.standard_normal(len(AWKWARD)) * 1e3)]
    cli._write_curves(tmp_path / "c.csv", tmp_path / "c.svg", grid, curves, "t", "y")
    assert (tmp_path / "c.csv").read_text() == csv_reference(
        ["x", "a", "b"], [grid.tolist()] + [v.tolist() for _, _, v in curves])
    svg = (tmp_path / "c.svg").read_text()
    assert polylines(svg) == polylines_reference([(grid.tolist(), v.tolist())
                                                  for _, _, v in curves])

    # a path longer than the plot keeps, so the polyline is subsampled
    n = _svg._MAX_POINTS + 7
    times = np.linspace(0.0, 1.0, n)
    x = rng.standard_normal(n)
    x[:len(AWKWARD)] = AWKWARD
    u = -x * 1e-3
    regime = rng.integers(1, 4, n)
    cost = np.cumsum(np.abs(x))
    path = SimpleNamespace(times=times, x=x, u=u, regime=regime, disc_cost=cost)
    cli._write_path(path, tmp_path / "p.csv", tmp_path / "p.svg", "path")
    assert (tmp_path / "p.csv").read_text() == csv_reference(
        ["t", "x", "u", "regime", "disc_cost"],
        [times.tolist(), x.tolist(), u.tolist(), [int(i) for i in regime], cost.tolist()])
    svg = (tmp_path / "p.svg").read_text()
    assert polylines(svg) == polylines_reference([(times.tolist(), x.tolist()),
                                                  (times.tolist(), u.tolist())])


def test_simulate_artifacts(tmp_path):
    assert run(["simulate", "--paths", "3", "--horizon", "5", "--out", str(tmp_path),
                "--label", "s"]) == 0
    d = tmp_path / "simulate" / "s"
    for k in (1, 2, 3):
        assert (d / f"path_{k:03d}.csv").exists()
    assert not (d / "path_004.csv").exists()
    lines = (d / "path_001.csv").read_text().splitlines()
    assert lines[0] == "t,x,u,regime,disc_cost"
    assert lines[1].startswith("0,0,")
    assert lines[1].endswith(",1,0")  # regime 1, no cost yet
    rows = read_csv(d / "path_001.csv")
    assert len(rows) == 501
    assert float(rows[0]["disc_cost"]) == 0.0
    lines = (d / "mc_summary.csv").read_text().splitlines()
    assert lines[0] == "quantity,mean,std_error,n,truncation_bound"
    name, mean, se, n, tail = lines[1].split(",")
    assert (name, n) == ("mc_cost", "3")
    for cell in (mean, se, tail):  # twelve significant digits
        assert cell == format(float(cell), ".12g")
    assert lines[2].startswith("analytic_value,")
    assert lines[2].endswith(",0,3,0")  # exact value: no error, n = --paths
    assert len(lines) == 3
    doc = xml.dom.minidom.parseString((d / "simulation.svg").read_text())
    assert len(doc.getElementsByTagName("polyline")) >= 2


def test_simulate_deterministic_across_runs(tmp_path):
    args = ["simulate", "--paths", "2", "--horizon", "3", "--out", str(tmp_path)]
    assert run(args + ["--label", "r1"]) == 0
    assert run(args + ["--label", "r2"]) == 0
    a = (tmp_path / "simulate" / "r1" / "path_001.csv").read_bytes()
    b = (tmp_path / "simulate" / "r2" / "path_001.csv").read_bytes()
    assert a == b
    assert run(args + ["--label", "r3", "--seed", "7"]) == 0
    c = (tmp_path / "simulate" / "r3" / "path_001.csv").read_bytes()
    assert a != c


def test_simulate_refuses_oversized_request(tmp_path, capsys):
    # 10^9 steps per path: refused by the memory budget before any allocation
    assert run(["simulate", "--dt", "1e-4", "--horizon", "1e5", "--out", str(tmp_path),
                "--label", "big"]) == 2
    assert "budget" in capsys.readouterr().err


def test_simulate_refuses_stiff_chain(tmp_path, capsys):
    # 5 x 10^6 expected jumps on each path: refused by the chain walk
    cfg = write_config(tmp_path, Q=[-1e4, 1e4, 1e4, -1e4])
    assert run(["simulate", "--config", cfg, "--paths", "2", "--dt", "0.1",
                "--horizon", "500", "--out", str(tmp_path), "--label", "stiff"]) == 2
    assert "regime jumps" in capsys.readouterr().err
    assert [f.name for f in (tmp_path / "simulate" / "stiff").iterdir()] == ["manifest.json"]


def test_simulate_rejects_non_finite_input(tmp_path, capsys):
    # horizon / dt past 2**53 (infinite at 5e-324) has no meaningful step count
    cases = [(["--x0", "nan"], "must be finite"), (["--x0", "inf"], "must be finite"),
             (["--horizon", "inf"], "must be finite"),
             (["--dt", "1e-300", "--horizon", "1"], "below 2**53"),
             (["--dt", "5e-324", "--horizon", "1"], "below 2**53")]
    for k, (args, message) in enumerate(cases):
        assert run(["simulate", *args, "--out", str(tmp_path), "--label", str(k)]) == 2
        assert message in capsys.readouterr().err
        assert [f.name for f in (tmp_path / "simulate" / str(k)).iterdir()] == ["manifest.json"]


def test_simulate_prints_huge_values_briefly(tmp_path, capsys):
    assert run(["simulate", "--x0", "1e50", "--paths", "2", "--horizon", "1",
                "--out", str(tmp_path), "--label", "big"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(len(line) < 200 for line in lines)
    assert "e+99" in lines[0]


def test_simulate_rejects_overflowing_cost(tmp_path, capsys):
    assert run(["simulate", "--x0", "1e200", "--paths", "2", "--horizon", "1",
                "--out", str(tmp_path), "--label", "big"]) == 2
    assert "discounted cost is not finite" in capsys.readouterr().err
    assert [f.name for f in (tmp_path / "simulate" / "big").iterdir()] == ["manifest.json"]


def test_simulate_zero_sigma_config(tmp_path):
    cfg = write_config(tmp_path, sigma=[0.0, 0.0])
    assert run(["simulate", "--config", cfg, "--paths", "1", "--horizon", "2",
                "--out", str(tmp_path), "--label", "det"]) == 0


def test_check_benchmark_passes(tmp_path, capsys):
    assert run(["check", "--out", str(tmp_path), "--label", "ok"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "PASS parameters", "PASS riccati solve", "PASS adjoint residual"]
    report = (tmp_path / "check" / "ok" / "report.txt").read_text()
    assert report == out


def test_check_flags_bad_weight(tmp_path, capsys):
    cfg = write_config(tmp_path, N=[0.4, -0.3])
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL parameters" in out
    assert "SKIP" in out  # solver-dependent items cannot run


@pytest.mark.parametrize("field", ["h", "c"])
def test_check_passes_large_targets(tmp_path, capsys, field):
    # admissibility does not depend on the scale of the target levels
    raw = params_to_config(benchmark_params())
    cfg = write_config(tmp_path, **{field: [1e6 * v for v in raw[field]]})
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("scale", [1e6, 1e-6])
def test_check_adjoint_bound_scales_with_cost_weight(tmp_path, capsys, scale):
    # the adjoint line's bound follows the size of the identity's terms
    raw = params_to_config(benchmark_params())
    cfg = write_config(tmp_path, N=[scale * v for v in raw["N"]])
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "PASS adjoint residual" in capsys.readouterr().out


def test_negative_rate_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, Q=[1.0, -1.0, 2.0, -2.0])
    for command in ("check", "solve"):
        assert run([command, "--config", cfg, "--out", str(tmp_path), "--label", "q"]) == 2
        assert "rates must be finite and nonnegative" in capsys.readouterr().err
        assert [f.name for f in (tmp_path / command / "q").iterdir()] == ["manifest.json"]


def test_check_flags_zero_sigma_but_solver_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, sigma=[0.0, 0.8])
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL parameters" in out
    assert "sigma(1) not positive" in out
    assert "PASS riccati solve" in out


def test_reproduce_passes(tmp_path, capsys):
    assert run(["reproduce", "--out", str(tmp_path), "--label", "rep"]) == 0
    out = capsys.readouterr().out
    assert "table rows matched: 12/12" in out
    assert "diff: 56/56 cells within 0.001" in out
    d = tmp_path / "reproduce" / "rep"
    diff = read_csv(d / "diff.csv")
    assert len(diff) == 56
    assert all(row["within_tol"] == "true" for row in diff)
    cells = {row["cell"] for row in diff}
    assert {"r=0.03 phi(1)", "theta=(4,1.5) phi(1)", "sigma=(0.1,0.3) psi(2)"} <= cells
    assert (d / "value_benchmark.svg").exists()
    assert (d / "mc_verification.csv").exists()
    for param in ("r", "q", "theta", "sigma"):
        assert (d / f"value_sweep_{param}.csv").exists()
    # reproduce's seeded path is simulate's first path at the same seed
    assert run(["simulate", "--paths", "1", "--out", str(tmp_path), "--label", "sim"]) == 0
    path = (tmp_path / "simulate" / "sim" / "path_001.csv").read_bytes()
    assert path == (d / "simulation.csv").read_bytes()


def test_reproduce_flags_tampered_expectations(tmp_path, capsys, monkeypatch):
    tampered = expected_values()
    tampered["table"][0]["phi"][0] += 0.01
    monkeypatch.setattr(cli, "expected_values", lambda: tampered)
    assert run(["reproduce", "--out", str(tmp_path), "--label", "bad"]) == 1
    captured = capsys.readouterr()
    assert "mismatch:" in captured.err
    assert "diff: 55/56 cells within 0.001" in captured.out


def test_reproduce_solves_the_table_values(tmp_path, capsys, monkeypatch):
    # a changed value is solved at that value and judged against its row
    changed = expected_values()
    changed["table"][0]["value"] = 0.04
    monkeypatch.setattr(cli, "expected_values", lambda: changed)
    assert run(["reproduce", "--out", str(tmp_path), "--label", "moved"]) == 1
    captured = capsys.readouterr()
    assert "mismatch: r=0.04 phi(1)" in captured.err
    assert "table rows matched: 11/12" in captured.out
    diff = read_csv(tmp_path / "reproduce" / "moved" / "diff.csv")
    assert len(diff) == 56
    assert diff[8]["cell"] == "r=0.04 phi(1)" and diff[8]["within_tol"] == "false"


def test_reproduce_rejects_negative_seed(tmp_path, capsys):
    assert run(["reproduce", "--seed", "-1", "--out", str(tmp_path), "--label", "neg"]) == 2
    assert "seed" in capsys.readouterr().err
    assert [f.name for f in (tmp_path / "reproduce" / "neg").iterdir()] == ["manifest.json"]


def test_reproduce_rejects_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["reproduce", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_manifest_written_on_failure(tmp_path):
    cfg = write_config(tmp_path, r=0.0)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path),
                "--label", "fail"]) == 2
    manifest = json.loads((tmp_path / "solve" / "fail" / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["config"].endswith("params.json")


def test_default_label_is_timestamp(tmp_path):
    assert run(["solve", "--out", str(tmp_path)]) == 0
    children = list((tmp_path / "solve").iterdir())
    assert len(children) == 1
    name = children[0].name
    assert len(name) == 16
    assert name.endswith("Z")

"""Command-line interface: artifacts, exit codes, determinism, reproduction."""

import csv
import json
import xml.dom.minidom

import numpy as np
import pytest

from regimeplan import cli
from regimeplan.model import params_to_config, save_params
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
    rows = read_csv(d / "solution.csv")
    assert len(rows) == 2
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
    assert run(["solve", "--out", str(tmp_path)]) == 3
    assert "did not converge" in capsys.readouterr().err


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


def test_sweep_q_needs_symmetric_two_state(tmp_path, capsys):
    cfg = write_config(tmp_path, Q=[-1.0, 1.0, 2.0, -2.0])
    assert run(["sweep", "--param", "q", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "symmetric" in capsys.readouterr().err


def test_sweep_bad_values_exit_2(tmp_path, capsys):
    assert run(["sweep", "--param", "r", "--values", "a,b",
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_simulate_artifacts(tmp_path):
    assert run(["simulate", "--paths", "3", "--horizon", "5", "--out", str(tmp_path),
                "--label", "s"]) == 0
    d = tmp_path / "simulate" / "s"
    for k in (1, 2, 3):
        assert (d / f"path_{k:03d}.csv").exists()
    assert not (d / "path_004.csv").exists()
    rows = read_csv(d / "path_001.csv")
    assert len(rows) == 501
    assert float(rows[0]["disc_cost"]) == 0.0
    summary = read_csv(d / "mc_summary.csv")
    names = [row["quantity"] for row in summary]
    assert "mc_cost" in names
    assert "analytic_value" in names
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


def test_simulate_rejects_non_finite_input(tmp_path, capsys):
    for k, args in enumerate((["--x0", "nan"], ["--x0", "inf"], ["--horizon", "inf"])):
        assert run(["simulate", *args, "--out", str(tmp_path), "--label", str(k)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert [f.name for f in (tmp_path / "simulate" / str(k)).iterdir()] == ["manifest.json"]


def test_simulate_zero_sigma_config(tmp_path):
    cfg = write_config(tmp_path, sigma=[0.0, 0.0])
    assert run(["simulate", "--config", cfg, "--paths", "1", "--horizon", "2",
                "--out", str(tmp_path), "--label", "det"]) == 0


def test_check_benchmark_passes(tmp_path, capsys):
    assert run(["check", "--out", str(tmp_path), "--label", "ok"]) == 0
    out = capsys.readouterr().out
    for name in ("parameters", "riccati solve",
                 "dominance certificate", "adjoint residual",
                 "hamiltonian minimizer"):
        assert f"PASS {name}" in out
    assert "FAIL" not in out
    report = (tmp_path / "check" / "ok" / "report.txt").read_text()
    assert report == out


def test_check_flags_bad_weight(tmp_path, capsys):
    cfg = write_config(tmp_path, N=[0.4, -0.3])
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL parameters" in out
    assert "SKIP" in out  # solver-dependent items cannot run


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
    assert (d / "value_benchmark.svg").exists()
    assert (d / "mc_verification.csv").exists()
    for param in ("r", "q", "theta", "sigma"):
        assert (d / f"value_sweep_{param}.csv").exists()


def test_reproduce_flags_tampered_expectations(tmp_path, capsys):
    tampered = expected_values()
    tampered["table"][0]["phi"][0] += 0.01
    fn = tmp_path / "expected.json"
    fn.write_text(json.dumps(tampered), encoding="utf-8")
    assert run(["reproduce", "--expected", str(fn), "--out", str(tmp_path),
                "--label", "bad"]) == 1
    captured = capsys.readouterr()
    assert "mismatch:" in captured.err
    assert "diff: 55/56 cells within 0.001" in captured.out


def test_reproduce_rejects_incomplete_expectations(tmp_path, capsys):
    fn = tmp_path / "expected.json"
    fn.write_text("{}", encoding="utf-8")
    assert run(["reproduce", "--expected", str(fn), "--out", str(tmp_path),
                "--label", "empty"]) == 2
    err = capsys.readouterr().err
    assert "tolerance" in err and "benchmark.phi" in err and "table" in err
    # rejected before any artifact is written
    assert [f.name for f in (tmp_path / "reproduce" / "empty").iterdir()] == ["manifest.json"]


def test_reproduce_rejects_malformed_table_entry(tmp_path, capsys):
    broken = expected_values()
    broken["table"] = [{}]
    fn = tmp_path / "expected.json"
    fn.write_text(json.dumps(broken), encoding="utf-8")
    assert run(["reproduce", "--expected", str(fn), "--out", str(tmp_path),
                "--label", "bad"]) == 2
    assert "table[0]" in capsys.readouterr().err
    assert [f.name for f in (tmp_path / "reproduce" / "bad").iterdir()] == ["manifest.json"]


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

#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py [--write-reference]

For every workload it runs run.py --tiny untraced and traced at a fixed seed
and asserts that:

- every metric BENCHMARK.json names is printed, by name and with its unit,
  in the final JSON line and in the table above it;
- no operation failed (failed_frac = 0) and the work-invariance guard held,
  which includes the traced run repeating the untraced run's facts exactly;
- every span is closed and lies inside its parent, and self times are >= 0;
- the exact counts match reference_counts.json, recorded on the seed code.
  A change that alters one of them on purpose rewrites the file with
  --write-reference and says why.

Last, it checks that run.py exits non-zero without printing a result in a
directory holding only BENCHMARK.json and perfbench/.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
REFERENCE = HERE / "reference_counts.json"
SEED = 7
EXACT_COUNTS = ("sde.path_steps", "chain.functional_mc.paths", "chain.jumps",
                "chain.grid_nodes", "riccati.newton_iters", "riccati.solves",
                "riccati.elimination.calls", "model.configs", "policy.grid_points",
                "cli.artifact_bytes")

sys.path.insert(0, str(HERE))
from tracing import nesting_errors, self_times  # noqa: E402


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, spec: dict, problems: list) -> dict:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"{where}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} printed as {got}, unit {m['unit']}")
        if not any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]):
            problems.append(f"{where}: {m['name']} missing from the table")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}: "
                        + " | ".join(l for l in lines if "FAILED" in l or "GUARD" in l))
    tag = f"{workload}-seed{SEED}-trace{trace}-tiny"
    record = json.loads((RUNS / "out" / f"{tag}.json").read_text())
    if trace:
        spans = record["spans"]
        for err in nesting_errors(spans):
            problems.append(f"{where}: {err}")
        for sid, value in self_times(spans).items():
            if value < -1e-9:
                problems.append(f"{where}: span {sid} self time {value}")
        if not any(s["name"].split(".")[0] in ("model", "chain", "riccati", "policy",
                                               "sde", "cli") for s in spans):
            problems.append(f"{where}: no module spans recorded")
    return record["passes"][0]["facts"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true",
                        help="record the exact counts of this run as the reference")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(RUNS / "state", ignore_errors=True)
    problems, counts = [], {}
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            facts = check_run(wl, trace, spec, problems)
            counts[wl] = {k: facts[k] for k in EXACT_COUNTS if k in facts}
    if args.write_reference:
        REFERENCE.write_text(json.dumps({"seed": SEED, "counts": counts}, indent=1,
                                        sort_keys=True) + "\n")
    else:
        reference = json.loads(REFERENCE.read_text())["counts"]
        for wl, ref in reference.items():
            for key, want in ref.items():
                if counts.get(wl, {}).get(key) != want:
                    problems.append(f"{wl}: {key} = {counts.get(wl, {}).get(key)}, "
                                    f"reference {want}")

    bare = RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".runs"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        problems.append("run.py did not fail without the regimeplan sources")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

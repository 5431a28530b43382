#!/usr/bin/env python3
"""Run every workload untraced and traced, print all metrics, save a trajectory point.

    python3 perfbench/record.py --label seed [--seed 1] [--seconds 25]

Prints, for each workload, every end-to-end metric and every per-layer
metric by name with its unit, the tracing overhead, and the time of one
2048-path mc_cost block at T = 200, dt = 0.01 on the benchmark economy.
Writes perfbench/trajectory/BENCH_<label>.json with the environment.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"

# Times one 2048-path block (one call, one block) in a fresh interpreter.
_ONE_BLOCK = """
import sys, time
sys.path.insert(0, sys.argv[1])
import regimeplan as rp
p = rp.benchmark_params()
sol = rp.solve(p)
cfg = rp.SimConfig(dt=0.01, horizon=200.0, n_paths=2048, seed=int(sys.argv[2]), x0=0.0, i0=1)
t0 = time.perf_counter()
rp.mc_cost(p, sol, cfg)
print(time.perf_counter() - t0)
"""


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    print(proc.stdout, end="", flush=True)
    record = json.loads((RUNS / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"],
            "extra": record.get("extra"), "samples": record.get("samples"),
            "passes": len(record["passes"]), "environment": record["environment"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
             "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "workloads": {}}
    for w in spec["workloads"]:
        point["workloads"][w["name"]] = {"untraced": run(w["name"], args.seed, args.seconds, 0),
                                         "traced": run(w["name"], args.seed, args.seconds, 1)}
    out = subprocess.run([sys.executable, "-c", _ONE_BLOCK, str(ROOT / "src"), str(args.seed)],
                         capture_output=True, text=True, timeout=300, check=True)
    point["one_block_mc_cost_s"] = float(out.stdout.strip())
    print(f"one 2048-path mc_cost block, T=200, dt=0.01: {point['one_block_mc_cost_s']:.3f} s")
    first = next(iter(point["workloads"].values()))["untraced"]
    point["environment"] = first.pop("environment")
    for runs in point["workloads"].values():
        for r in runs.values():
            r.pop("environment", None)
    dest = HERE / "trajectory" / f"BENCH_{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {dest.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

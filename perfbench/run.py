#!/usr/bin/env python3
"""regimeplan benchmark: one workload per run, end to end or traced per module.

    python3 perfbench/run.py --workload mc_verify --seed 1 --seconds 25 --trace 0

Run from the repository root; regimeplan is imported from ./src.  The seed
generates the workload's inputs.  A run makes round(seconds / nominal pass
time) passes over the same inputs (at least one), so the work done at a
given seed and --seconds is fixed and a faster program finishes sooner.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, read from spans around
every call into a module and from counts taken at the same calls.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The full record (environment, per-pass facts, latencies and, when
traced, every span) goes to perfbench/.runs/out/.

--tiny shrinks every workload for the smoke check (smoke.py).
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from env import environment
from tracing import Tracer, duration, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

SETUP_PROBES = 5
SETUP_M = 200

# name -> unit; printed with --trace 0, in this order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# also printed with --trace 0 (and kept in the run record), for the workloads
# they apply to; the work rate is printed under the workload's own name
EXTRA_UNITS = {
    "path_steps_per_s": "1/s",
    "chain_jumps_per_s": "1/s",
    "solves_per_s": "1/s",
    "wall_tail_s": "s",
    "failed_frac": "ratio",
    "time_to_se_s": "s",
}

# busy seconds per traced pass in spans of these names
LAYER_SPANS = {
    "model.load_params.s": ("model.load_params",),
    "model.validate_params.s": ("model.validate_params",),
    "chain.simulate_chain.s": ("chain.simulate_chain",),
    "chain.regimes_on_grid.s": ("chain.regimes_on_grid",),
    "chain.functional_mc.s": ("chain.discounted_functional_mc",),
    "chain.resolvent.s": ("chain.discounted_resolvent",),
    "riccati.elimination.s": ("riccati.elimination",),
    "policy.value_report.s": ("policy.value_report",),
    "policy.value_constant.s": ("policy.value_constant",),
    "sde.mc_cost.affine.s": ("sde.mc_cost.affine",),
    "sde.mc_cost.callable.s": ("sde.mc_cost.callable",),
    "sde.simulate_controlled.s": ("sde.simulate_controlled",),
    "cli.main.reproduce.s": ("cli.main.reproduce",),
    "cli.main.solve.s": ("cli.main.solve",),
    "cli.main.value.s": ("cli.main.value",),
    "cli.main.sweep.s": ("cli.main.sweep",),
}
# busy seconds in the solver-stage replay, which covers one pass's instances
SPLIT_SPANS = [f"riccati.{stage}.{cls}"
               for stage in ("solve_are", "solve_psi", "certificate")
               for cls in ("small", "m50", "m200")]
# per-pass facts reported as they are: name -> unit
LAYER_FACTS = {
    "model.calls": "count",
    "chain.jumps": "count",
    "chain.grid_nodes": "count",
    "chain.functional_mc.paths": "count",
    "chain.resolvent_gap_se": "se",
    "riccati.newton_iters": "count",
    "riccati.elimination.calls": "count",
    "riccati.cross_gap_max": "abs",
    "riccati.residual_max": "abs",
    "riccati.nonconvergence": "count",
    "policy.grid_points": "count",
    "sde.path_steps": "count",
    "sde.block_bytes": "bytes",
    "sde.mc_se": "cost",
    "sde.step_bias": "cost",
    "cli.artifact_bytes": "bytes",
    "cli.artifact_files": "count",
    "cli.exit_nonzero": "count",
}
SDE_SPANS = ("sde.mc_cost.affine", "sde.mc_cost.callable", "sde.simulate_controlled")
MC_COST_SPANS = ("sde.mc_cost.affine", "sde.mc_cost.callable")

# Runs in a fresh interpreter: import the package, load a generated m = 200
# config and solve it once, which also warms BLAS.  Prints the seconds taken.
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import regimeplan
regimeplan.solve(regimeplan.load_params(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def per_layer_units() -> dict:
    units = {name: "s" for name in LAYER_SPANS}
    units.update({f"{name}.s": "s" for name in SPLIT_SPANS})
    units.update(LAYER_FACTS)
    units.update({
        "sde.path_steps_per_s": "1/s",
        "sde.cpu_util": "ratio",
        "sde.chain_share_est": "ratio",
        "cli.reproduce.self_est.s": "s",
        "trace.overhead_s": "s",
    })
    return units


def tail(values):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    Below 21 samples that percentile would sit at or under the median, so the
    maximum is reported instead, as the 100th percentile.
    """
    s = sorted(values)
    n = len(s)
    k = n - 11 if n >= 21 else n - 1
    return s[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def normalized(facts) -> dict:
    """Facts as JSON would store them, so stored and fresh ones compare equal."""
    return json.loads(json.dumps(facts, sort_keys=True))


def source_digest() -> str:
    """Hash of the package sources, so stored facts are only compared within one version."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "regimeplan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def setup_times(wl_seed: int, workdir: Path) -> list:
    import numpy as np
    from workloads import random_params, write_config

    config = workdir / "setup_probe.json"
    write_config(random_params(np.random.default_rng([404, wl_seed]), SETUP_M, 0.5, 3.0),
                 config)
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(config)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_pass(wl, ops, tracer, pass_no: int, traced: bool) -> dict:
    from workloads import Facts

    tracer.enabled = traced
    tracer.pass_no = pass_no
    tracer.op = None
    ctx, facts = {}, Facts()
    latencies, errors, cleanup_s = [], [], 0.0
    gc.collect()  # start every pass without the previous pass's garbage
    t0 = time.perf_counter()
    with tracer.span("pass"):
        for i, (kind, fn) in enumerate(ops):
            tracer.op = f"{pass_no}.{i}"
            start = time.perf_counter()
            ok = True
            try:
                with tracer.span(f"op.{kind}"):
                    fn(ctx, facts)
            except Exception as exc:  # a failed operation is counted, the run goes on
                ok = False
                errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            latencies.append((kind, time.perf_counter() - start, ok))
            c0 = time.perf_counter()
            for path in ctx.pop("cleanup", ()):
                shutil.rmtree(path, ignore_errors=True)
            cleanup_s += time.perf_counter() - c0
        tracer.op = None
    wall = time.perf_counter() - t0 - cleanup_s
    return {"traced": traced, "wall_s": wall, "latencies": latencies,
            "errors": errors, "facts": facts, "ctx": ctx}


def guard(wl, passes, store_key: str, clean: bool) -> list:
    """Work-invariance guard: fixed counts, and bitwise-equal facts per seed."""
    problems = []
    prints = [normalized(p["facts"]) for p in passes]
    for key, want in normalized(wl.expected()).items():
        for i, fp in enumerate(prints):
            if fp.get(key) != want:
                problems.append(f"pass {i}: {key} = {fp.get(key)}, expected {want}")
    for i, fp in enumerate(prints[1:], 1):
        diff = sorted(k for k in set(fp) | set(prints[0]) if fp.get(k) != prints[0].get(k))
        if diff:
            problems.append(f"pass {i} differs from pass 0 in {diff}")
    store = RUNS / "state" / "fingerprints.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if store_key in known:
        diff = sorted(k for k in set(known[store_key]) | set(prints[0])
                      if known[store_key].get(k) != prints[0].get(k))
        if diff:
            problems.append(f"facts differ from an earlier run at this seed in {diff}")
    elif clean and not problems:
        known[store_key] = prints[0]
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        os.replace(tmp, store)
    return problems


def end_to_end(wl, passes, setup, attempted: int, failed: int) -> tuple:
    lat = [s for p in passes for _, s, _ in p["latencies"]]
    op_tail, op_pct, op_n = tail(lat)
    walls = [p["wall_s"] for p in passes]
    wall_tail, wall_pct, wall_n = tail(walls)
    rates = []
    for p in passes:
        busy = sum(s for kind, s, _ in p["latencies"] if kind in wl.work_ops)
        rates.append(p["facts"].get(wl.work_key, 0) / busy if busy > 0 else 0.0)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": op_tail,
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        wl.work_metric: metrics["work_per_s"],
        "wall_tail_s": wall_tail,
        "failed_frac": failed / attempted,
    }
    if wl.se_op:
        ttse = [s * (p["facts"].get(wl.se_key, 0.0) / wl.target_se) ** 2
                for p in passes for kind, s, _ in p["latencies"] if kind == wl.se_op]
        extra["time_to_se_s"] = statistics.median(ttse)
    samples = {"setup_s": setup, "wall_tail_percentile": wall_pct, "wall_samples": wall_n,
               "op_tail_percentile": op_pct, "op_samples": op_n,
               "target_se": wl.target_se}
    return metrics, extra, samples


def per_layer(tracer, passes, replay) -> dict:
    traced = [i for i, p in enumerate(passes) if p["traced"]]

    def busy(names, pass_no):
        return sum(duration(s) for s in tracer.spans
                   if s["pass"] == pass_no and s["name"] in names)

    def median_busy(names):
        return statistics.median(busy(names, i) for i in traced)

    out = {name: median_busy(names) for name, names in LAYER_SPANS.items()}
    for name in SPLIT_SPANS:
        out[f"{name}.s"] = sum(duration(s) for s in tracer.spans
                               if s["pass"] == "replay" and s["name"] == name)
    for name in LAYER_FACTS:
        out[name] = statistics.median(passes[i]["facts"].get(name, 0) for i in traced)
    sde_wall = median_busy(SDE_SPANS)
    sde_spans = [s for s in tracer.spans if s["pass"] in traced and s["name"] in SDE_SPANS]
    sde_cpu = sum(s["cpu"] for s in sde_spans)
    sde_total = sum(duration(s) for s in sde_spans)
    mc_wall = median_busy(MC_COST_SPANS)
    out["sde.path_steps_per_s"] = out["sde.path_steps"] / sde_wall if sde_wall > 0 else 0.0
    out["sde.cpu_util"] = sde_cpu / sde_total if sde_total > 0 else 0.0
    out["sde.chain_share_est"] = (replay.get("mc_chain_replay_s", 0.0) / mc_wall
                                  if mc_wall > 0 else 0.0)
    out["cli.reproduce.self_est.s"] = (out["cli.main.reproduce.s"]
                                       - replay.get("reproduce_replay_s", 0.0)
                                       if out["cli.main.reproduce.s"] > 0 else 0.0)
    out["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in passes if p["traced"])
        - statistics.median(p["wall_s"] for p in passes if not p["traced"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke check)")
    args = parser.parse_args(argv)
    if not (SRC / "regimeplan" / "__init__.py").is_file():
        print(f"error: regimeplan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports regimeplan, so only now

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = RUNS / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tracer = Tracer(False)
        wl = WORKLOADS[args.workload](args.seed, args.tiny, tracer, workdir)
        n = 2 if args.tiny else max(1, round(args.seconds / wl.nominal_pass_s))
        schedule = [False, True] * max(1, n // 2) if args.trace else [False] * n
        setup = [] if args.trace else setup_times(args.seed, workdir)
        ops = wl.ops()
        passes = [run_pass(wl, ops, tracer, i, traced) for i, traced in enumerate(schedule)]
        replay = {}
        if args.trace:
            tracer.enabled, tracer.pass_no, tracer.op = True, "replay", "replay"
            replay = wl.replay(passes[-1]["ctx"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(not ok for p in passes for _, _, ok in p["latencies"])
    store_key = (f"{args.workload}:{args.seed}:{'tiny' if args.tiny else 'full'}:"
                 f"{source_digest()}")
    problems = guard(wl, passes, store_key, failed == 0)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(ROOT),
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "errors": p["errors"],
                    "latencies": p["latencies"], "facts": normalized(p["facts"])}
                   for p in passes],
        "guard_problems": problems,
    }
    if args.trace:
        metrics = per_layer(tracer, passes, replay)
        units = per_layer_units()
        selfs = self_times(tracer.spans)
        record["replay"] = replay
        record["spans"] = [dict(s, self=selfs[s["id"]]) for s in tracer.spans]
        shown = metrics
    else:
        metrics, extra, samples = end_to_end(wl, passes, setup, attempted, failed)
        units = END_TO_END
        record["extra"] = extra
        record["samples"] = samples
        shown = dict(metrics, **extra)
    record["metrics"] = metrics
    out_dir = RUNS / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"({sum(p['traced'] for p in passes)} traced) attempted={attempted} failed={failed}")
    for name, value in shown.items():
        unit = units.get(name) or EXTRA_UNITS[name]
        print(f"  {name:<30} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"# samples: setup_s {len(samples['setup_s'])} probes, wall_s "
              f"{samples['wall_samples']} passes (tail p{samples['wall_tail_percentile']:.1f}), "
              f"op latency {samples['op_samples']} ops (tail p{samples['op_tail_percentile']:.1f})")
    for p in passes:
        for err in p["errors"]:
            print(f"  FAILED {err}")
    for problem in problems:
        print(f"  GUARD {problem}")
    env = record["environment"]
    print(f"# python {env['python']} numpy {env['numpy']} blas {env['blas'].get('name')} "
          f"threads {env['blas_threads']} nproc {env['nproc']} commit {env['git_commit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

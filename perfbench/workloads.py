"""The benchmark's three workloads: generated inputs, operations and checks.

Every workload is built from the `--seed` alone and hands regimeplan only
generated inputs: parameter sets, config files and SimConfigs.  A pass runs
the workload's operations once, in order; passes of one run repeat the same
inputs, so their deterministic results ("facts") must agree bit for bit.

Each operation checks its own result and raises CheckFailed when the check
misses.  It records deterministic facts (work counts, estimates, gaps) into
the pass's Facts and wraps every call into a regimeplan module in a span
named after the module and function.
"""

import bisect
import contextlib
import io
import json
import math
import time

import numpy as np

import regimeplan as rp
from regimeplan import cli

#: Folded into every workload seed so the workloads draw unrelated streams.
_SALT = {"mc_verify": 101, "chain_switching": 202, "solve_sweep": 303}
#: Paths per vectorized block in the seed's Euler engine; used only for the
#: computed sde.block_bytes figure.
_ENGINE_BLOCK = 2048


class CheckFailed(Exception):
    """An operation ran but its result missed its correctness gate."""


def check(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Facts(dict):
    """Deterministic per-pass results: `add` sums, `hi` keeps the maximum."""

    def add(self, key: str, value) -> None:
        self[key] = self.get(key, 0) + value

    def hi(self, key: str, value) -> None:
        self[key] = max(self.get(key, value), value)


def size_class(m: int) -> str:
    return "small" if m <= 4 else f"m{m}"


def random_params(rng, m: int, rate_lo: float, rate_hi: float):
    """A valid parameter set: every quantity validate_params checks is positive."""
    off = rng.uniform(0.2, 1.0, size=(m, m))
    np.fill_diagonal(off, 0.0)
    if m > 1:
        off *= (rng.uniform(rate_lo, rate_hi, size=m) / off.sum(axis=1))[:, None]
    return rp.ModelParams(
        gen=rp.Generator(off),
        r=float(rng.uniform(0.02, 0.15)),
        theta=rng.uniform(0.5, 5.0, size=m),
        sigma=rng.uniform(0.1, 1.5, size=m),
        c=rng.uniform(0.5, 4.0, size=m),
        h=rng.uniform(0.5, 6.0, size=m),
        N=rng.uniform(0.1, 2.0, size=m),
        R=rng.uniform(0.1, 2.0, size=m),
    )


def write_config(p, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rp.params_to_config(p), fh)


def stationary_exit_rate(gen) -> float:
    """Long-run jumps per unit time, sum_i pi_i q_i, from pi Q = 0."""
    m = gen.m
    a = np.vstack([gen.q.T, np.ones(m)])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(pi @ -np.diag(gen.q))


class Workload:
    name = ""
    #: Seconds one pass took on the seed code (2-core machine); a run makes
    #: round(seconds / nominal_pass_s) passes, so its work is fixed per seed.
    nominal_pass_s = 1.0
    #: Fact counted as the workload's unit of work, the name its rate is
    #: printed under, and the operations whose latency is the time spent on it.
    work_key = ""
    work_metric = ""
    work_ops = ()
    #: Operation whose latency, scaled by (SE / target)^2, gives time_to_se_s.
    se_op = None
    se_key = None
    target_se = None

    def __init__(self, seed: int, tiny: bool, tracer, workdir) -> None:
        self.seed = seed
        self.tiny = tiny
        self.tr = tracer
        self.workdir = workdir
        self.rng = np.random.default_rng([_SALT[self.name], seed])
        self._dirs = 0

    def fresh_dir(self, ctx, tag: str):
        self._dirs += 1
        path = self.workdir / f"{tag}-{self._dirs}"
        ctx.setdefault("cleanup", []).append(path)
        return path

    def run_cli(self, ctx, facts, command: str, *argv):
        """cli.main into a fresh directory; counts its artifacts, checks exit 0."""
        out = self.fresh_dir(ctx, command)
        buf = io.StringIO()
        with self.tr.span(f"cli.main.{command}"), \
                contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([command, *argv, "--out", str(out), "--label", "run"])
        facts.add("cli.exit_nonzero", int(code != 0))
        run_dir = out / command / "run"
        files = [f for f in run_dir.iterdir() if f.is_file()]
        facts.add("cli.artifact_files", len(files))
        # manifest.json holds a wall-clock duration, so its size is not a work count
        facts.add("cli.artifact_bytes", sum(f.stat().st_size for f in files
                                            if f.name != "manifest.json"))
        check(code == 0, f"{command} exited {code}: {buf.getvalue()[-400:]!r}")
        return run_dir

    def solve_checked(self, p, facts):
        """riccati.solve plus residuals recomputed here, independently of the package."""
        cls = size_class(p.m)
        try:
            with self.tr.span(f"riccati.solve.{cls}"):
                sol = rp.solve(p)
        except rp.NonConvergence:
            facts.add("riccati.nonconvergence", 1)
            raise
        phi, psi, q = sol.phi, sol.psi, p.gen.q
        res_phi = phi * phi / p.R + p.r * phi - q @ phi - p.N
        bmat = np.diag(phi / p.R + p.r - np.diag(q)) - (q - np.diag(np.diag(q)))
        res_psi = bmat @ psi - ((p.h - p.theta) * phi - p.N * p.c)
        res = max(float(np.max(np.abs(res_phi))), float(np.max(np.abs(res_psi))))
        facts.add("riccati.newton_iters", sol.iterations)
        facts.add("riccati.solves", 1)
        facts.hi("riccati.residual_max", res)
        check(res <= 1e-10, f"m={p.m} residual {res:.3e} > 1e-10")
        check(sol.certificate.min_dominance_margin > 0.0,
              f"m={p.m} dominance margin not positive")
        check(bool(np.all(phi >= 0.0)), f"m={p.m} phi negative")
        return sol

    def cross_check(self, p, sol, facts) -> None:
        """Newton against the elimination oracle, within 1e-8."""
        with self.tr.span("riccati.elimination"):
            phi_e = rp.elimination_solve(p)
        facts.add("riccati.elimination.calls", 1)
        gap = float(np.max(np.abs(sol.phi - phi_e)))
        facts.hi("riccati.cross_gap_max", gap)
        check(gap <= 1e-8, f"m={p.m} Newton vs elimination gap {gap:.3e} > 1e-8")

    def replay_solver_split(self, instances) -> None:
        """The stages of riccati.solve called one by one, for per-stage timings."""
        for p in instances:
            cls = size_class(p.m)
            with self.tr.span(f"riccati.solve_are.{cls}"):
                phi = rp.solve_are(p)
            with self.tr.span(f"riccati.solve_psi.{cls}"):
                rp.solve_psi(phi, p)
            with self.tr.span(f"riccati.certificate.{cls}"):
                rp.uniqueness_certificate(phi, phi, p)

    def ops(self) -> list:
        raise NotImplementedError

    def expected(self) -> dict:
        """Facts whose value the workload definition fixes in advance."""
        raise NotImplementedError

    def replay(self, ctx) -> dict:
        """Traced runs only: replays that split or attribute time; returns estimates."""
        return {}


class MCVerify(Workload):
    """Monte Carlo verification of v(0, 1) on the built-in benchmark economy."""

    name = "mc_verify"
    nominal_pass_s = 22.0
    work_key = "sde.path_steps"
    work_metric = "path_steps_per_s"
    work_ops = ("mc_cost_dt", "mc_cost_2dt", "mc_cost_shifted", "simulate_controlled")
    se_op = "mc_cost_dt"
    se_key = "sde.mc_se"
    target_se = 0.02
    #: Shift of the production rate for the suboptimal policy; its cost excess
    #: is many standard errors, so the domination check cannot fail by chance.
    delta = 1.0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        s = [int(v) for v in self.rng.integers(0, 2**31, size=4)]
        horizon = 200.0  # the criterion-5 horizon; shorter ones bias the value low
        n = 64 if self.tiny else 2 * _ENGINE_BLOCK
        self.p = rp.benchmark_params()
        self.cfg_dt = rp.SimConfig(dt=0.01, horizon=horizon, n_paths=n, seed=s[0],
                                   x0=0.0, i0=1)
        self.cfg_2dt = rp.SimConfig(dt=0.02, horizon=horizon, n_paths=n, seed=s[0],
                                    x0=0.0, i0=1)
        self.cfg_shift = rp.SimConfig(dt=0.02, horizon=horizon, n_paths=n // 4,
                                      seed=s[1], x0=0.0, i0=1)
        self.cfg_sim = rp.SimConfig(dt=0.01, horizon=2.0 if self.tiny else 20.0,
                                    n_paths=4 if self.tiny else 16, seed=s[2],
                                    x0=0.0, i0=1)
        self.cli_seed = s[3]

    def ops(self):
        return [("solve", self.op_solve), ("reproduce", self.op_reproduce),
                ("mc_cost_dt", self.op_mc_dt), ("mc_cost_2dt", self.op_mc_2dt),
                ("mc_cost_shifted", self.op_shifted),
                ("simulate_controlled", self.op_simulate)]

    def expected(self):
        steps = sum(c.n_paths * c.n_steps for c in
                    (self.cfg_dt, self.cfg_2dt, self.cfg_shift, self.cfg_sim))
        return {"sde.path_steps": steps, "riccati.solves": 1,
                "riccati.elimination.calls": 1}

    def op_solve(self, ctx, facts):
        p = self.p
        with self.tr.span("model.validate_params"):
            report = rp.validate_params(p)
        facts.add("model.calls", 1)
        check(report.ok, f"benchmark parameters invalid: {report.violations}")
        sol = self.solve_checked(p, facts)
        self.cross_check(p, sol, facts)
        with self.tr.span("policy.value_constant"):
            w = rp.value_constant(sol, p)
        ctx["sol"] = sol
        ctx["v"] = float(w[0])  # v(0, 1) = w(1) at x = 0

    def op_reproduce(self, ctx, facts):
        run_dir = self.run_cli(ctx, facts, "reproduce", "--seed", str(self.cli_seed))
        with open(run_dir / "diff.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        bad = [r for r in rows if not r.endswith(",true")]
        check(rows and not bad, f"reproduce diff rows outside tolerance: {bad[:3]}")

    def _mc(self, ctx, facts, cfg, policy, kind):
        with self.tr.span(f"sde.mc_cost.{kind}"):
            est = rp.mc_cost(self.p, policy, cfg)
        check(est.n == cfg.n_paths, f"mc_cost ran {est.n} of {cfg.n_paths} paths")
        check(math.isfinite(est.mean) and est.std_error > 0.0,
              f"mc_cost estimate not finite: {est}")
        facts.add("sde.path_steps", est.n * cfg.n_steps)
        facts.hi("sde.block_bytes",
                 min(cfg.n_paths, _ENGINE_BLOCK) * (2 * (cfg.n_steps + 1) + 8 * cfg.n_steps))
        ctx.setdefault("mc_cfgs", []).append(cfg)
        return est

    def op_mc_dt(self, ctx, facts):
        est = self._mc(ctx, facts, self.cfg_dt, ctx["sol"], "affine")
        ctx["est_dt"] = est
        facts["sde.mc_se"] = est.std_error
        facts["est.dt"] = (est.mean, est.std_error, est.truncation_bound)

    def op_mc_2dt(self, ctx, facts):
        est2 = self._mc(ctx, facts, self.cfg_2dt, ctx["sol"], "affine")
        est = ctx["est_dt"]
        facts["est.2dt"] = (est2.mean, est2.std_error, est2.truncation_bound)
        bias = abs(est.mean - est2.mean)
        facts["sde.step_bias"] = bias
        allowance = 3.0 * est.std_error + est.truncation_bound + bias
        gap = abs(est.mean - ctx["v"])
        check(gap <= allowance,
              f"|mc - v(0,1)| = {gap:.4f} > allowance {allowance:.4f}")

    def op_shifted(self, ctx, facts):
        with self.tr.span("sde.shifted_policy"):
            policy = rp.shifted_policy(ctx["sol"], self.p, self.delta)
        est = self._mc(ctx, facts, self.cfg_shift, policy, "callable")
        facts["est.shifted"] = (est.mean, est.std_error)
        check(est.mean >= ctx["v"] - 2.0 * est.std_error,
              f"shifted policy cost {est.mean:.4f} below v - 2 SE")

    def op_simulate(self, ctx, facts):
        cfg, p, sol = self.cfg_sim, self.p, ctx["sol"]
        with self.tr.span("sde.simulate_controlled"):
            paths = rp.simulate_controlled(p, sol, cfg)
        check(len(paths) == cfg.n_paths, f"{len(paths)} of {cfg.n_paths} paths")
        slope = -sol.phi / p.R
        intercept = -sol.psi / p.R + p.h
        for cp in paths:
            check(cp.times.shape == (cfg.n_steps + 1,), "path grid has wrong length")
            check(cp.x[0] == cfg.x0 and cp.regime[0] == cfg.i0, "path start wrong")
            check(bool(np.all((cp.regime >= 1) & (cp.regime <= p.m))), "regime out of range")
            check(bool(np.all(np.isfinite(cp.x))), "path not finite")
            check(cp.disc_cost[0] == 0.0 and bool(np.all(np.diff(cp.disc_cost) >= 0.0)),
                  "running cost not nondecreasing from 0")
            j = cp.regime - 1
            check(np.allclose(cp.u, slope[j] * cp.x + intercept[j], rtol=1e-12, atol=1e-12),
                  "control differs from the feedback law")
        facts.add("sde.path_steps", len(paths) * cfg.n_steps)
        facts["est.simulate"] = float(sum(cp.disc_cost[-1] for cp in paths))

    def replay(self, ctx):
        self.replay_solver_split([self.p])
        # the public calls `reproduce` makes, with the settings it uses
        with self.tr.span("replay.reproduce") as span:
            p, sol, _ = cli.benchmark_solution()
            rows = cli.table_rows()
            rp.value_report(sol, p)
            for row in rows:
                rp.value_report(row["sol"], row["params"])
            rp.simulate_controlled(p, sol, rp.SimConfig(dt=0.01, horizon=10.0, n_paths=1,
                                                        seed=self.cli_seed, x0=0.0, i0=1))
            for dt in (0.02, 0.04):
                rp.mc_cost(p, sol, rp.SimConfig(dt=dt, horizon=150.0, n_paths=4000,
                                                seed=self.cli_seed, x0=0.0, i0=1))
        reproduce_replay_s = span["end"] - span["start"]
        # the chain walk and grid sampling of mc_cost's paths, replayed on a
        # sample of the same per-path streams and scaled to the full count
        gen, chain_s = self.p.gen, 0.0
        for cfg in ctx.get("mc_cfgs", ()):
            k_max = min(cfg.n_paths, 256)
            times = cfg.times()
            t0 = time.perf_counter()
            for k in range(k_max):
                path = rp.simulate_chain(gen, cfg.i0, float(times[-1]), [cfg.seed, k, 0])
                rp.chain.regimes_on_grid(path.jump_times, path.states, times)
            chain_s += (time.perf_counter() - t0) * cfg.n_paths / k_max
        return {"reproduce_replay_s": reproduce_replay_s, "mc_chain_replay_s": chain_s}


class ChainSwitching(Workload):
    """A fast-switching 8-regime chain with a generated regime functional."""

    name = "chain_switching"
    nominal_pass_s = 6.0
    work_key = "chain.jumps_all"
    work_metric = "chain_jumps_per_s"
    work_ops = ("functional_mc", "chain_paths")
    #: simulate_chain + regimes_on_grid calls per operation; batching keeps the
    #: tail latency percentile off single-call timer noise
    walks_per_op = 10
    se_op = "functional_mc"
    se_key = "chain.functional_mc.se"
    target_se = 0.05

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self.rng
        m = 8
        self.gen = random_params(rng, m, 10.0, 16.0).gen
        self.r = float(rng.uniform(0.04, 0.08))
        self.g = rng.uniform(-2.0, 5.0, size=m)
        self.i0 = int(rng.integers(1, m + 1))
        self.horizon = 30.0 if self.tiny else 300.0
        self.n_mc = 50 if self.tiny else 2000
        self.n_walks = 10 if self.tiny else 200
        self.mc_seed = int(rng.integers(0, 2**31))
        self.walk_seed = int(rng.integers(0, 2**31))
        self.grid = np.arange(int(round(self.horizon / 0.01)) + 1) * 0.01
        self.jump_rate = stationary_exit_rate(self.gen)

    def ops(self):
        ops = [("functional_mc", self.op_functional)]
        for lo in range(0, self.n_walks, self.walks_per_op):
            ops.append(("chain_paths", lambda ctx, facts, lo=lo: self.op_paths(ctx, facts, lo)))
        return ops

    def expected(self):
        return {"chain.functional_mc.paths": self.n_mc,
                "chain.grid_nodes": self.n_walks * self.grid.shape[0]}

    def op_functional(self, ctx, facts):
        gen, r, g = self.gen, self.r, self.g
        with self.tr.span("chain.discounted_resolvent"):
            w = rp.discounted_resolvent(gen, r, g)
        res = float(np.max(np.abs((r * np.eye(gen.m) - gen.q) @ w - g)))
        check(res <= 1e-10 * float(np.max(np.abs(g))), f"resolvent residual {res:.3e}")
        with self.tr.span("chain.discounted_functional_mc"):
            mean, se = rp.discounted_functional_mc(gen, r, g, self.i0, self.horizon,
                                                   self.n_mc, self.mc_seed)
        facts.add("chain.functional_mc.paths", self.n_mc)
        # jumps inside discounted_functional_mc are not exposed; this count is
        # computed from the stationary exit rate
        facts.add("chain.functional_mc.jumps_computed", self.n_mc * self.horizon * self.jump_rate)
        facts.add("chain.jumps_all", self.n_mc * self.horizon * self.jump_rate)
        facts["chain.functional_mc.se"] = se
        facts["est.functional"] = (mean, se)
        gap = abs(mean - w[self.i0 - 1])
        facts["chain.resolvent_gap_se"] = gap / se if se > 0.0 else math.inf
        bound = 3.0 * se + math.exp(-r * self.horizon) * float(np.max(np.abs(g))) / r
        check(gap <= bound, f"|mc - w| = {gap:.5f} > {bound:.5f}")

    def op_paths(self, ctx, facts, lo):
        for k in range(lo, min(lo + self.walks_per_op, self.n_walks)):
            self.walk(facts, k)

    def walk(self, facts, k):
        with self.tr.span("chain.simulate_chain"):
            path = rp.simulate_chain(self.gen, self.i0, self.horizon, [self.walk_seed, k])
        with self.tr.span("chain.regimes_on_grid"):
            regs = rp.chain.regimes_on_grid(path.jump_times, path.states, self.grid)
        jt, st = path.jump_times, path.states
        n = path.n_jumps
        check(jt[0] == 0.0 and bool(np.all(np.diff(jt) > 0.0)) and jt[-1] < self.horizon,
              "jump times not increasing inside the horizon")
        check(st[0] == self.i0 and bool(np.all(st[1:] != st[:-1])), "states do not jump")
        check(bool(np.all((st >= 1) & (st <= self.gen.m))), "state out of range")
        check(int(path.jump_counts.sum()) == n, "jump counts disagree with the path")
        check(regs.shape == self.grid.shape, "grid sample has wrong length")
        jt_list = jt.tolist()
        nodes = np.linspace(0, self.grid.shape[0] - 1, 17).astype(int)
        for node in nodes:
            expect = st[bisect.bisect_right(jt_list, float(self.grid[node])) - 1]
            check(regs[node] == expect, f"grid regime wrong at node {node}")
        facts.add("chain.jumps", n)
        facts.add("chain.jumps_all", n)
        facts.add("chain.grid_nodes", regs.shape[0])


class SolveSweep(Workload):
    """Generated instances from m = 1 to m = 200 through the solvers, config files and CLI."""

    name = "solve_sweep"
    nominal_pass_s = 1.8
    work_key = "riccati.solves"
    work_metric = "solves_per_s"
    work_ops = ("solve_small", "solve_large", "config_roundtrip")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self.rng
        per_m = 2 if self.tiny else 15
        self.small = [random_params(rng, m, 0.1, 3.0) for m in (1, 2, 3) for _ in range(per_m)]
        self.large = ([random_params(rng, 50, 0.5, 3.0) for _ in range(1 if self.tiny else 8)]
                      + [random_params(rng, 200, 0.5, 3.0) for _ in range(1 if self.tiny else 4)])
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cli_config = self.workdir / "cli_m50.json"
        write_config(self.large[0], self.cli_config)

    def ops(self):
        ops = [("solve_small", lambda ctx, facts, p=p: self.op_small(ctx, facts, p))
               for p in self.small]
        ops += [("solve_large", lambda ctx, facts, p=p: self.op_large(ctx, facts, p))
                for p in self.large]
        ops += [("config_roundtrip", self.op_roundtrip), ("cli_solve", self.op_cli_solve),
                ("cli_value", self.op_cli_value), ("cli_sweep", self.op_cli_sweep)]
        return ops

    def expected(self):
        return {"riccati.solves": len(self.small) + len(self.large),
                "riccati.elimination.calls": len(self.small),
                "model.configs": len(self.small) + len(self.large)}

    def op_small(self, ctx, facts, p):
        sol = self.solve_checked(p, facts)
        self.cross_check(p, sol, facts)

    def op_large(self, ctx, facts, p):
        sol = self.solve_checked(p, facts)
        with self.tr.span("policy.value_report"):
            rep = rp.value_report(sol, p)
        g = 0.5 * (p.N * p.c ** 2 + sol.phi * p.sigma ** 2
                   - sol.psi ** 2 / p.R + 2.0 * sol.psi * (p.h - p.theta))
        w = np.linalg.solve(p.r * np.eye(p.m) - p.gen.q, g)
        x = rep.grid[:, None]
        table = 0.5 * sol.phi * x ** 2 + sol.psi * x + w
        err = float(np.max(np.abs(rep.table - table)) / (1.0 + np.max(np.abs(table))))
        check(err <= 1e-9, f"m={p.m} value table off by {err:.3e} (relative)")
        facts.add("policy.grid_points", rep.grid.shape[0])
        if p is self.large[0]:
            ctx["cli_sol"] = sol

    def op_roundtrip(self, ctx, facts):
        path = self.fresh_dir(ctx, "configs")
        path.mkdir(parents=True)
        for k, p in enumerate(self.small + self.large):
            with self.tr.span("model.params_to_config"):
                raw = rp.params_to_config(p)
            fname = path / f"p{k}.json"
            with open(fname, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            with self.tr.span("model.load_params"):
                back = rp.load_params(fname)
            with self.tr.span("model.validate_params"):
                report = rp.validate_params(back)
            facts.add("model.calls", 3)
            facts.add("model.configs", 1)
            same = all(np.array_equal(getattr(p, f), getattr(back, f))
                       for f in ("theta", "sigma", "c", "h", "N", "R"))
            check(same and back.r == p.r and np.array_equal(back.gen.q, p.gen.q),
                  f"config {k} changed in the round trip")
            check(report.ok, f"config {k} invalid: {report.violations}")

    def op_cli_solve(self, ctx, facts):
        run_dir = self.run_cli(ctx, facts, "solve", "--config", str(self.cli_config))
        with open(run_dir / "solution.csv", encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        phi = np.array([float(r[1]) for r in rows])
        sol = ctx["cli_sol"]
        check(phi.shape == sol.phi.shape and np.allclose(phi, sol.phi, rtol=1e-10, atol=0.0),
              "solve command's phi differs from the library solve")

    def op_cli_value(self, ctx, facts):
        run_dir = self.run_cli(ctx, facts, "value", "--config", str(self.cli_config))
        with open(run_dir / "value.csv", encoding="utf-8") as fh:
            n_rows = len(fh.read().splitlines()) - 1
        check(n_rows == rp.default_grid().shape[0], f"value table has {n_rows} rows")

    def op_cli_sweep(self, ctx, facts):
        run_dir = self.run_cli(ctx, facts, "sweep", "--param", "r",
                               "--config", str(self.cli_config))
        with open(run_dir / "table.csv", encoding="utf-8") as fh:
            n_rows = len(fh.read().splitlines()) - 1
        check(n_rows == len(rp.SWEEPS["r"]), f"sweep table has {n_rows} rows")
        curves = list(run_dir.glob("value_curves_regime_*.csv"))
        check(len(curves) == self.large[0].m, f"{len(curves)} value-curve files")

    def replay(self, ctx):
        self.replay_solver_split(self.small + self.large)
        return {}


WORKLOADS = {w.name: w for w in (MCVerify, ChainSwitching, SolveSweep)}

"""Shared fixtures: the benchmark model, its solution, a random-instance factory,
the quadratic system's row-relative residual, a record of the worker processes
a test starts and of the path shares it runs."""

import subprocess

import numpy as np
import pytest

from regimeplan import Generator, ModelParams, _pool, are_residual, benchmark_params, solve


@pytest.fixture(scope="session")
def p_bench():
    return benchmark_params()


@pytest.fixture(scope="session")
def sol_bench(p_bench):
    return solve(p_bench)


def random_params(rng, m=None):
    """A random parameter set satisfying the solver hypotheses.

    Off-diagonal rates, N, and R are strictly positive and r > 0; sigma may
    be zero and theta, c, h take either sign, which the quadratic and slope
    systems must tolerate.
    """
    if m is None:
        m = int(rng.integers(1, 4))
    q = rng.uniform(0.1, 3.0, size=(m, m))
    return ModelParams(
        gen=Generator(q),
        r=float(rng.uniform(0.02, 0.15)),
        theta=rng.uniform(-3.0, 5.0, size=m),
        sigma=rng.uniform(0.0, 1.5, size=m),
        c=rng.uniform(-2.0, 4.0, size=m),
        h=rng.uniform(-1.0, 6.0, size=m),
        N=rng.uniform(0.05, 2.0, size=m),
        R=rng.uniform(0.05, 2.0, size=m),
    )


@pytest.fixture(scope="session")
def make_params():
    return random_params


def relative_residual(phi, p):
    """max_i |F_i(phi)| over the magnitudes of row i's terms."""
    terms = phi * phi / p.R + p.r * phi + np.abs(p.gen.q) @ phi + p.N
    return float(np.max(np.abs(are_residual(phi, p)) / terms))


@pytest.fixture
def started(monkeypatch):
    """The worker processes the engines start during a test.

    The pool is ended before the test, so every run starts cold and the
    count does not depend on test order, and again after it.
    """
    _pool.close()
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    yield procs
    _pool.close()


def all_reaped(procs):
    return all(proc.returncode is not None for proc in procs)


def recorded_shares(monkeypatch):
    """The (lo, hi) path ranges of each _pool.map_paths call."""
    calls = []
    bounds = _pool._bounds

    def recording(n, unit, cold, warm):
        calls.append(bounds(n, unit, cold, warm))
        return calls[-1]

    monkeypatch.setattr(_pool, "_bounds", recording)
    return calls

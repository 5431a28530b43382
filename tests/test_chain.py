"""Chain simulation, grid sampling, and the discounted resolvent."""

import bisect
import math

import numpy as np
import pytest

from regimeplan import Generator, discounted_functional_mc, discounted_resolvent, simulate_chain
from regimeplan.chain import regimes_on_grid

INVALID_GENERATORS = [
    [[1.0, -1.0], [2.0, -2.0]],
    [[0.0, math.nan], [1.0, 0.0]],
    [[0.0, math.nan, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    [[0.0, math.inf], [1.0, 0.0]],
]


def test_simulate_chain_deterministic():
    gen = Generator.two_state_symmetric(1.0)
    a = simulate_chain(gen, 1, 50.0, seed=7)
    b = simulate_chain(gen, 1, 50.0, seed=7)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.states, b.states)
    c = simulate_chain(gen, 1, 50.0, seed=8)
    assert not np.array_equal(a.jump_times, c.jump_times)


def test_path_structure():
    gen = Generator.two_state_symmetric(1.0)
    path = simulate_chain(gen, 2, 25.0, seed=3)
    assert path.jump_times[0] == 0.0
    assert path.states[0] == 2
    assert np.all(np.diff(path.jump_times) > 0)
    assert path.jump_times[-1] < path.horizon
    assert np.all(path.states[1:] != path.states[:-1])
    assert set(np.unique(path.states)) <= {1, 2}
    assert path.n_jumps == len(path.states) - 1
    assert int(path.jump_counts.sum()) == path.n_jumps
    assert np.all(np.diag(path.jump_counts) == 0)


def test_input_validation():
    gen = Generator.two_state_symmetric(1.0)
    with pytest.raises(ValueError, match="i0"):
        simulate_chain(gen, 3, 10.0, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        simulate_chain(gen, 1, 0.0, seed=0)
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        simulate_chain(gen, 1, math.inf, seed=0)
    # 2 x 10^6 expected jumps on one path: refused before walking
    with pytest.raises(ValueError, match="regime jumps"):
        simulate_chain(Generator.two_state_symmetric(2e4), 1, 100.0, seed=0)
    # a negative rate would read as absorbing and a NaN rate walk with t = NaN,
    # so no chain function can be handed one: the Generator is never built
    for bad in INVALID_GENERATORS:
        with pytest.raises(ValueError, match="rates must be finite and nonnegative"):
            Generator(bad)


def test_state_at_matches_grid_sampling():
    gen = Generator.two_state_symmetric(1.3)
    path = simulate_chain(gen, 1, 10.0, seed=11)
    grid = np.linspace(0.0, 9.99, 101)
    idx = regimes_on_grid(path.jump_times, path.states - 1, grid)
    jt = path.jump_times.tolist()  # jumps take effect at the jump time
    assert [path.states[bisect.bisect_right(jt, t) - 1] - 1 for t in grid] == idx.tolist()
    ends = regimes_on_grid(path.jump_times, path.states, [0.0, path.horizon - 1e-12])
    assert ends.tolist() == [1, path.states[-1]]


def test_regimes_on_grid_piecewise():
    jt = np.array([0.0, 1.5, 3.0])
    st = np.array([0, 1, 0])
    grid = np.array([0.0, 1.0, 1.5, 2.0, 3.0, 4.0])
    assert np.array_equal(regimes_on_grid(jt, st, grid), [0, 0, 1, 1, 0, 0])


def test_absorbing_state():
    gen = Generator([[0.0, 0.0], [1.0, -1.0]])
    path = simulate_chain(gen, 2, 100.0, seed=5)
    assert path.states[-1] == 1
    assert path.n_jumps == 1
    assert path.jump_counts[1, 0] == 1
    assert regimes_on_grid(path.jump_times, path.states, [99.9]).tolist() == [1]
    still = simulate_chain(gen, 1, 100.0, seed=5)
    assert still.n_jumps == 0


def test_holding_times_are_exponential():
    gen = Generator.two_state_symmetric(1.0)
    first = [simulate_chain(gen, 1, 50.0, seed=k).jump_times[1] for k in range(500)]
    # rate-1 holding: mean 1, sd 1; the sample mean has sd 1/sqrt(500)
    assert abs(np.mean(first) - 1.0) < 0.18


def test_long_run_occupation():
    gen = Generator.two_state_symmetric(1.0)
    path = simulate_chain(gen, 1, 20000.0, seed=2)
    edges = np.append(path.jump_times, path.horizon)
    durations = np.diff(edges)
    frac = durations[path.states == 1].sum() / path.horizon
    assert abs(frac - 0.5) < 0.02


def test_resolvent_identity_and_validation():
    gen = Generator([[-1.5, 1.0, 0.5], [0.3, -0.8, 0.5], [1.2, 0.8, -2.0]])
    g = np.array([1.0, 0.0, 2.0])
    r = 0.1
    w = discounted_resolvent(gen, r, g)
    res = np.max(np.abs((r * np.eye(3) - gen.q) @ w - g))
    assert res <= 1e-10 * (1.0 + np.max(np.abs(g)))
    with pytest.raises(ValueError, match="r must be positive"):
        discounted_resolvent(gen, 0.0, g)
    with pytest.raises(ValueError, match="length"):
        discounted_resolvent(gen, r, [1.0])
    with pytest.raises(ValueError, match="finite"):
        discounted_resolvent(gen, math.inf, g)
    with pytest.raises(ValueError, match="g must be finite"):
        discounted_resolvent(gen, r, [1.0, math.nan, 2.0])


def test_resolvent_monotone_in_g():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        gen = Generator(rng.uniform(0.05, 2.0, size=(m, m)))
        r = float(rng.uniform(0.02, 0.3))
        g1 = rng.uniform(0.0, 5.0, size=m)
        g2 = g1 - rng.uniform(0.0, 2.0, size=m)
        diff = discounted_resolvent(gen, r, g1) - discounted_resolvent(gen, r, g2)
        assert np.all(diff >= -1e-12)


def test_functional_mc_constant_g_is_exact():
    # a regime-independent integrand makes every path integral identical
    gen = Generator.two_state_symmetric(1.0)
    r, horizon = 0.05, 80.0
    mean, se = discounted_functional_mc(gen, r, [2.5, 2.5], 1, horizon, 50, seed=4)
    exact = 2.5 * (1.0 - np.exp(-r * horizon)) / r
    assert abs(mean - exact) < 1e-10
    assert se < 1e-10


def test_functional_mc_matches_resolvent():
    gen = Generator([[-1.5, 1.0, 0.5], [0.3, -0.8, 0.5], [1.2, 0.8, -2.0]])
    g = [1.0, 0.0, 2.0]
    r = 0.1
    w = discounted_resolvent(gen, r, g)
    mean, se = discounted_functional_mc(gen, r, g, 2, 120.0, 4000, seed=31)
    assert se > 0.0
    assert abs(mean - w[1]) <= 4.0 * se + 2e-4


def test_functional_mc_deterministic():
    gen = Generator.two_state_symmetric(0.7)
    a = discounted_functional_mc(gen, 0.08, [1.0, 3.0], 1, 60.0, 64, seed=12)
    b = discounted_functional_mc(gen, 0.08, [1.0, 3.0], 1, 60.0, 64, seed=12)
    assert a == b


def test_functional_mc_validation():
    gen = Generator.two_state_symmetric(1.0)
    with pytest.raises(ValueError, match="r must be positive"):
        discounted_functional_mc(gen, -0.1, [1.0, 1.0], 1, 10.0, 4, seed=0)
    with pytest.raises(ValueError, match="i0"):
        discounted_functional_mc(gen, 0.1, [1.0, 1.0], 0, 10.0, 4, seed=0)
    with pytest.raises(ValueError, match="n_paths"):
        discounted_functional_mc(gen, 0.1, [1.0, 1.0], 1, 10.0, 0, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        discounted_functional_mc(gen, 0.1, [1.0, 1.0], 1, 0.0, 4, seed=0)
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        discounted_functional_mc(gen, 0.1, [1.0, 1.0], 1, math.inf, 4, seed=0)
    with pytest.raises(ValueError, match="regime jumps"):
        discounted_functional_mc(Generator.two_state_symmetric(2e4), 0.1, [1.0, 1.0],
                                 1, 100.0, 4, seed=0)
    with pytest.raises(ValueError, match="g must have length m=2"):
        discounted_functional_mc(gen, 0.1, [1.0, 1.0, 1.0], 1, 10.0, 4, seed=0)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        discounted_functional_mc(gen, 0.1, [1.0, 1.0], 1, 10.0, 1, seed=0)
    with pytest.raises(ValueError, match="finite"):
        discounted_functional_mc(gen, math.inf, [1.0, 1.0], 1, 10.0, 4, seed=0)
    with pytest.raises(ValueError, match="g must be finite"):
        discounted_functional_mc(gen, 0.1, [1.0, math.nan], 1, 10.0, 4, seed=0)

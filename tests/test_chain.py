"""Chain simulation, grid sampling, and the discounted resolvent."""

import bisect
import math
import warnings

import numpy as np
import pytest

from regimeplan import (
    Generator,
    SimConfig,
    benchmark_params,
    discounted_functional_mc,
    discounted_resolvent,
    simulate_chain,
)
from regimeplan import _pool, chain
from regimeplan.chain import regimes_on_grid

import pool_shares
from conftest import all_reaped, recorded_shares

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


def test_simulate_chain_seed_validation():
    gen = Generator.two_state_symmetric(1.0)
    for bad, match in ((True, "be an integer"), (1.5, "be an integer"), ("7", "be an integer"),
                       (-1, "be nonnegative"), ([3, 2.5], "be an integer"), ([], "not be empty")):
        with pytest.raises(ValueError, match=f"seed must {match}"):
            simulate_chain(gen, 1, 10.0, seed=bad)
    # a [seed, k] key, as the benchmark passes, walks as the scalar oracle does
    for seed in ([23, 4], (23, 4), np.array([23, 4]), 23, np.int64(23)):
        path = simulate_chain(gen, 2, 30.0, seed=seed)
        _, jt, st = oracle_walk(gen, 2, 30.0, [seed])
        assert np.array_equal(path.jump_times, jt)
        assert np.array_equal(path.states, st + 1)


def test_jump_counts_tally_transitions():
    gen = Generator([[-1.5, 1.0, 0.5], [0.3, -0.8, 0.5], [1.2, 0.8, -2.0]])
    path = simulate_chain(gen, 3, 200.0, seed=9)
    st = path.states - 1
    counts = np.zeros((3, 3), dtype=np.int64)
    np.add.at(counts, (st[:-1], st[1:]), 1)
    assert path.jump_counts.dtype == np.int64
    assert np.array_equal(path.jump_counts, counts)


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


def searched_regimes(jump_times, states, grid):
    """The per-grid-time binary search the merged sampling replaced: the oracle."""
    return np.asarray(states)[np.searchsorted(jump_times, grid, side="right") - 1]


def assert_sampled_as_search(jump_times, states, grid):
    got = regimes_on_grid(jump_times, states, grid)
    want = searched_regimes(jump_times, states, grid)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def searched_jumps(monkeypatch, jump_times, states, grid):
    """How many jumps regimes_on_grid hands to np.searchsorted (its fallback)."""
    sizes = []
    search = np.searchsorted
    with monkeypatch.context() as mp:
        mp.setattr(np, "searchsorted", lambda a, v, *args, **kwargs:
                   sizes.append(np.size(v)) or search(a, v, *args, **kwargs))
        regimes_on_grid(jump_times, states, grid)
    return sum(sizes)


def test_merged_grid_sampling_matches_search(monkeypatch):
    gen = ORACLE_CHAINS["eight states"]
    for k in range(6):
        path = simulate_chain(gen, 1 + k, 30.0, seed=[23, k])
        jt = path.jump_times
        # grid times on jumps, repeated, between them and past the last one
        grids = [np.arange(3001) * 0.01, np.sort(np.concatenate((jt, jt[::3], [0.0, 29.99]))),
                 np.array([jt[-1], 1e9]), np.zeros(3), np.empty(0)]
        for grid in grids:
            assert_sampled_as_search(jt, path.states, grid)
    # an even grid sends none but the jump on its first node to the fallback
    grid = np.arange(3001) * 0.01
    assert searched_jumps(monkeypatch, jt, path.states, grid) <= 1 + path.n_jumps // 100
    # jump times on the nodes of Euler grids, one ulp either side, and past the last node
    for dt in (0.01, 0.1, 1 / 3):
        grid = SimConfig(dt=dt, horizon=30.0, n_paths=1, seed=0, x0=0.0, i0=1).times()
        nodes = grid[::3]
        jt = np.unique(np.concatenate((nodes, np.nextafter(nodes, -np.inf),
                                       np.nextafter(nodes, np.inf), [grid[-1] + dt, 1e300])))
        assert_sampled_as_search(jt, np.arange(jt.size), grid)
        # the guess, moved down a node where needed, verifies every jump but the
        # two at or before the first node and the three past the last
        assert searched_jumps(monkeypatch, jt, np.arange(jt.size), grid) == 5
    # uneven grids, where the straight-line guess misses and the fallback searches
    rng = np.random.default_rng(41)
    jt = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1e3, 500))))
    geometric = np.geomspace(1e-6, 1e3, 2001)
    clustered = np.concatenate((np.linspace(0.0, 1.0, 1000), np.linspace(999.0, 1e3, 1000)))
    for grid in (geometric, clustered):
        assert_sampled_as_search(jt, np.arange(jt.size), grid)
        assert searched_jumps(monkeypatch, jt, np.arange(jt.size), grid) > jt.size // 2
    # repeated grid times, one-point grids, and end points whose span overflows
    for grid in (np.repeat(np.arange(0.0, 1e3, 0.5), 3), [0.0], [500.0], [2e3]):
        assert_sampled_as_search(jt, np.arange(jt.size), grid)
    wide = np.array([-1.7e308, -1e308, -1.0, 0.0, 5e307, 1e308, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in (np.linspace(-1.0, 1.0, 11) * 1e308, np.linspace(-1.0, 0.0, 11) * 1e308):
            assert_sampled_as_search(wide, np.arange(wide.size), grid)


def test_regimes_on_grid_refuses_unordered_or_early_grids(monkeypatch):
    with pytest.raises(ValueError, match="before"):
        regimes_on_grid([0.0, 1.0], [1, 2], [-0.5])
    with pytest.raises(ValueError, match="nondecreasing"):
        regimes_on_grid([0.0, 1.0], [1, 2], [0.0, 2.0, 0.5])
    for grid in ([math.nan], [0.0, math.nan, 2.0], [[0.0, 1.0]], 0.5):
        with pytest.raises(ValueError):
            regimes_on_grid([0.0, 1.0], [1, 2], grid)
    assert regimes_on_grid([0.0, 1.0], [1, 2], [0.0, 0.0, 1.0, 1.0]).tolist() == [1, 1, 2, 2]
    # malformed paths are refused before any search
    monkeypatch.setattr(chain, "_first_nodes", None)
    for jt, st, match in (([0.0, math.nan, 2.0], [1, 2, 1], "finite"),
                          ([math.nan], [1], "finite"),
                          ([0.0, math.inf], [1, 2], "finite"),
                          ([0.0, 2.0, 1.0], [1, 2, 1], "decrease"),
                          ([0.0, 1.0], [1, 2, 1], "as many"),
                          ([0.0, 1.0, 2.0], [1, 2], "as many"),
                          ([], [], "nonempty")):
        with pytest.raises(ValueError, match=match):
            regimes_on_grid(jt, st, [0.0, 1.0])


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
    # numpy integers run as the ints they hold
    assert discounted_functional_mc(gen, 0.08, [1.0, 3.0], np.int8(1), 60.0, np.int64(64),
                                    seed=np.uint32(12)) == a


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


def scalar_walk(rates, cums, targets, i0, horizon, rng):
    """The one-path-at-a-time jump-chain walk the block walk replaced: the oracle.

    Per jump it adds one holding time, then picks the first cumulative entry
    >= the uniform; draws come in chunks of 64, 128, ..., 8192 exponentials,
    each followed by as many uniforms.
    """
    t = 0.0
    s = i0
    jt = [0.0]
    st = [s]
    expo: list = []
    unif: list = []
    k = 0
    size = 0
    while True:
        rate = rates[s]
        if rate <= 0.0:
            break  # absorbing state: the path simply stops jumping
        if k >= size:
            size = 64 if size == 0 else min(size * 2, 8192)
            expo = rng.standard_exponential(size).tolist()
            unif = rng.random(size).tolist()
            k = 0
        t += expo[k] / rate
        u = unif[k]
        k += 1
        if t >= horizon:
            break
        cu = cums[s]
        j = 0
        while u > cu[j]:
            j += 1
        nxt = targets[s][j]
        jt.append(t)
        st.append(nxt)
        s = nxt
    return jt, st


def block_walk(gen, i0, horizon, streams):
    """chain._walks over all blocks, as flat (path, time, state) arrays."""
    return [np.concatenate(a) for a in zip(*chain._walks(gen, i0, horizon, streams))]


def oracle_walk(gen, i0, horizon, streams):
    rates, cums, targets, _ = chain._jump_tables(gen)
    walks = [scalar_walk(rates, cums, targets, i0 - 1, horizon, np.random.default_rng(key))
             for key in streams]
    return [np.repeat(np.arange(len(walks)), [len(jt) for jt, _ in walks]),
            np.concatenate([jt for jt, _ in walks]),
            np.concatenate([st for _, st in walks]).astype(np.intp)]


def assert_walks_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


ORACLE_CHAINS = {
    "one state": Generator([[0.0]]),
    "two states": Generator.two_state_symmetric(1.3),
    "eight states": Generator(np.random.default_rng(8).uniform(0.5, 2.0, size=(8, 8))),
    # regime 1 absorbs; regime 2 picks between two targets
    "absorbing": Generator([[0.0, 0.0, 0.0], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]),
    # one target per state, regime 1 absorbing
    "absorbing two states": Generator([[0.0, 0.0], [1.0, -1.0]]),
}


@pytest.mark.parametrize("name", list(ORACLE_CHAINS))
def test_block_walk_matches_scalar_walk(name):
    gen = ORACLE_CHAINS[name]
    streams = [[3, k] for k in range(30)]
    for i0 in range(1, gen.m + 1):
        assert_walks_equal(block_walk(gen, i0, 40.0, streams), oracle_walk(gen, i0, 40.0, streams))


@pytest.mark.parametrize("gen", [Generator.two_state_symmetric(1.0),
                                 Generator([[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5],
                                            [0.5, 0.5, -1.0]])])
def test_block_walk_ends_inside_each_chunk(gen):
    # at exit rate 1 a path makes about `horizon` jumps; chunks end after
    # 64, 192, ..., 4032, 8128 and 16320 draws
    streams = [[5, k] for k in range(3)]
    for horizon, lo, hi in ((30.0, 0, 64), (6000.0, 4032, 8128), (12000.0, 8128, 16320)):
        got = block_walk(gen, 1, horizon, streams)
        assert all(lo <= n - 1 < hi for n in np.bincount(got[0]))
        assert_walks_equal(got, oracle_walk(gen, 1, horizon, streams))


def scalar_pick(cu, tg, u):
    """scalar_walk's next state: the first cumulative entry >= u."""
    j = 0
    while u > cu[j]:
        j += 1
    return tg[j]


def assert_keys_pick_as_scalar_walk(gen):
    # each cumulative entry exactly and its neighbours on both sides
    _, cums, targets, keys = chain._jump_tables(gen)
    bounds = np.unique(np.concatenate([np.array(cu) for cu in cums]))
    u = np.concatenate((bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0), [0.0]))
    u = u[u < 1.0]
    got = chain._keys(keys, u)
    assert list(got) == [bisect.bisect_left(bounds.tolist(), x) for x in u.tolist()]
    for cu, tg, row in zip(cums, targets, keys[-1]):
        assert [row[k] for k in got] == [scalar_pick(cu, tg, x) for x in u.tolist()]


# one state's cumulative entries bunched within 4e-9 of 1/2: one grid cell
CLUSTERED = Generator([[0.0, 1.0, 1e-8, 1e-8, 1e-8, 1.0 - 3e-8],
                       [1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                       [0.5, 0.5, 0.0, 0.5, 0.5, 0.5],
                       [2.0, 1.0, 1.0, 0.0, 1.0, 1.0],
                       [1.0, 3.0, 1.0, 1.0, 0.0, 1.0],
                       [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]])
# rates 1, 1, 2: cumulative entries 0.25 and 0.5 sit on grid cell edges
DYADIC = Generator([[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 1.0, 2.0],
                    [2.0, 1.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0]])


@pytest.mark.parametrize("gen", [ORACLE_CHAINS["two states"], ORACLE_CHAINS["eight states"],
                                 ORACLE_CHAINS["absorbing"], CLUSTERED, DYADIC],
                         ids=["two", "eight", "absorbing", "clustered", "dyadic"])
def test_pick_keys_match_scalar_walk(gen):
    assert_keys_pick_as_scalar_walk(gen)
    streams = [[11, k] for k in range(20)]
    for i0 in range(1, gen.m + 1):
        assert_walks_equal(block_walk(gen, i0, 30.0, streams), oracle_walk(gen, i0, 30.0, streams))


def test_pick_keys_cell_layout():
    grid, cell, bounds, per_cell, _ = chain._jump_tables(CLUSTERED)[3]
    assert grid & (grid - 1) == 0  # a power of two, so u x grid is exact
    assert per_cell >= 4  # the bunched entries and 1/2 share a cell
    assert np.array_equal(cell, np.searchsorted(bounds, np.arange(grid) / grid))
    grid, _, bounds, _, _ = chain._jump_tables(DYADIC)[3]
    assert {0.25, 0.5, 0.75} <= set(bounds.tolist())
    assert all((b * grid).is_integer() for b in (0.25, 0.5, 0.75))
    # 16-32 cells per entry, up to the cap a chain near the entry budget meets
    for gen in (ORACLE_CHAINS["eight states"], DENSE):
        grid, _, bounds, _, _ = chain._jump_tables(gen)[3]
        assert 16 * bounds.size < grid <= 32 * bounds.size
    near = Generator(np.random.default_rng(40).uniform(0.5, 2.0, size=(40, 40)))
    grid, cell, bounds, _, _ = chain._jump_tables(near)[3]  # 40 x 1561 entries
    assert bounds.size > chain._KEY_CELLS // 16 and grid == cell.size == chain._KEY_CELLS


# 60 x 3541 next-state entries would pass _KEY_ENTRIES, so this chain bisects
BISECTING = Generator(np.random.default_rng(60).uniform(0.5, 2.0, size=(60, 60)))


# 361 key grid entries, over the 256 that fit a byte: its keys leave numpy as a list
DENSE = Generator(np.random.default_rng(20).uniform(0.5, 2.0, size=(20, 20)))


def test_chain_over_the_key_budget_bisects():
    tables = chain._jump_tables(BISECTING)
    assert tables[3] is None
    streams = [[13, k] for k in range(10)]
    assert_walks_equal(block_walk(BISECTING, 7, 5.0, streams),
                       oracle_walk(BISECTING, 7, 5.0, streams))


def ring(m):
    """An m-regime ring: each regime leaves at rate 1 to each of its two neighbours."""
    q = np.zeros((m, m))
    for i in range(m):
        q[i, (i - 1) % m] = q[i, (i + 1) % m] = 1.0
    return Generator(q)


@pytest.mark.parametrize("m", [255, 256, 257, 300])
def test_byte_and_list_picks_match_scalar_walk(m):
    # up to 256 regimes the picks leave Python as bytes, above as a list;
    # the key table (m x 2 entries) serves both
    gen = ring(m)
    assert chain._jump_tables(gen)[3] is not None
    streams = [[29, k] for k in range(12)]
    for i0 in (1, m // 2, m):
        assert_walks_equal(block_walk(gen, i0, 40.0, streams), oracle_walk(gen, i0, 40.0, streams))


def test_block_walk_width_changes_nothing(monkeypatch):
    # one path per block takes the one-path walk, one wide block the block walk;
    # ring(257) picks into a list, DENSE from a list of keys, BISECTING without keys
    assert isinstance(chain._keys(chain._jump_tables(DENSE)[3], np.zeros(1)), list)
    streams = [[7, k] for k in range(40)]
    chains = [(gen, 50.0) for gen in ORACLE_CHAINS.values()] + [
        (Generator.two_state_symmetric(2.0), 50.0), (CLUSTERED, 50.0), (ring(257), 50.0),
        (DENSE, 5.0), (BISECTING, 5.0)]
    for gen, horizon in chains:
        i0 = min(2, gen.m)
        want = oracle_walk(gen, i0, horizon, streams)
        for cap in (1, 10 ** 9):
            monkeypatch.setattr(chain, "_WALK_JUMPS", cap)
            blocks = list(chain._walks(gen, i0, horizon, streams))
            assert len(blocks) == (40 if cap == 1 else 1)
            assert_walks_equal(block_walk(gen, i0, horizon, streams), want)


@pytest.mark.parametrize("name", ["two states", "eight states", "absorbing"])
def test_functional_share_width_changes_nothing(monkeypatch, name):
    gen = ORACLE_CHAINS[name]
    g = np.linspace(-1.0, 2.0, gen.m)
    got = []
    for cap in (1, 10 ** 9):  # one path per block, then all paths in one
        monkeypatch.setattr(chain, "_WALK_JUMPS", cap)
        got.append(chain._functional_share(gen, 0.1, g, 2, 40.0, 9, 3, 33)[0])
    assert got[0].dtype == got[1].dtype and np.array_equal(got[0], got[1])


def test_mean_rate_rounds_too_short_and_too_long():
    # regime 1 leaves at rate 0.01, the others at 20, so a first round holds
    # 960 draws (horizon x mean rate ~900): from regime 2 a path makes ~1200
    # jumps, past that round, and from regime 1 it often makes none
    q = np.full((4, 4), 10.0)
    q[0] = [0.0, 0.005, 0.0025, 0.0025]
    q[1:, 0] = 0.001
    gen = Generator(q)
    streams = [[17, k] for k in range(12)]
    for i0 in (1, 2):
        got = block_walk(gen, i0, 60.0, streams)
        assert_walks_equal(got, oracle_walk(gen, i0, 60.0, streams))
        jumps = np.bincount(got[0]) - 1
        assert (jumps == 0).any() if i0 == 1 else (jumps > 960).sum() > 6


def test_jump_tables_built_once_per_generator(monkeypatch):
    calls = []
    jump_tables = chain._jump_tables
    monkeypatch.setattr(chain, "_jump_tables", lambda gen: calls.append(gen) or jump_tables(gen))
    monkeypatch.setattr(chain, "_TABLES", {})
    monkeypatch.setattr(chain, "_WALK_JUMPS", 1)  # one path per block
    gen = ORACLE_CHAINS["eight states"]
    streams = [[19, k] for k in range(10)]
    want = block_walk(gen, 1, 20.0, streams)
    assert len(list(chain._walks(gen, 1, 20.0, streams))) == 10
    assert_walks_equal(block_walk(Generator(gen.q), 1, 20.0, streams), want)  # an equal one
    assert calls == [gen]
    other = Generator(gen.q * 2.0)
    list(chain._walks(other, 1, 20.0, streams[:1]))
    assert calls == [gen, other]


def test_jump_table_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(chain, "_TABLES", {})
    gens = [Generator.two_state_symmetric(1.0 + k) for k in range(chain._TABLES_KEPT + 3)]
    for gen in gens:
        assert chain._cached_tables(gen) is chain._cached_tables(gen)
    assert list(chain._TABLES) == [gen.q.tobytes() for gen in gens[-chain._TABLES_KEPT:]]


def test_walk_less_call_builds_no_jump_tables(monkeypatch):
    calls = []
    jump_tables = chain._jump_tables
    monkeypatch.setattr(chain, "_jump_tables", lambda gen: calls.append(gen) or jump_tables(gen))
    gen = ORACLE_CHAINS["eight states"]
    chain._walks(gen, 1, 20.0, ())  # the checks alone, as sde and the functional MC call it
    assert list(chain._walks(gen, 1, 20.0, ())) == []
    with pytest.raises(ValueError, match="budget"):
        chain._walks(gen, 1, 1e12, ())
    assert calls == []


def test_functional_mc_worker_counts_bitwise_equal(monkeypatch, started):
    # a 3-state chain (top rate 2) with 25 paths at horizon 60: a path
    # expects 120 + _PATH_JUMPS = 376 jumps, so with _SHARE_JUMPS = 8 x 376
    # the parent's share takes 4 more paths, what a worker walks while it
    # starts, unless idle workers take every other share; the parent walks
    # in blocks of two paths, each worker in one
    gen = Generator([[-1.5, 1.0, 0.5], [0.3, -0.8, 0.5], [1.2, 0.8, -2.0]])
    monkeypatch.setattr(chain, "_WALK_JUMPS", 300)
    monkeypatch.setattr(chain, "_SHARE_JUMPS", 8 * 376)
    monkeypatch.setattr(_pool, "_cpus", lambda: 3)  # keeps two idle workers
    shares = recorded_shares(monkeypatch)
    runs = []
    for k in (1, 2, 3, 3, 2):
        monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm, k=k: k)
        runs.append(discounted_functional_mc(gen, 0.1, [1.0, 0.0, 2.0], 2, 60.0, 25, seed=5))
    assert runs == runs[:1] * 5
    assert shares == [[(0, 25)], [(0, 14), (14, 25)], [(0, 11), (11, 18), (18, 25)],
                      [(0, 8), (8, 16), (16, 25)], [(0, 12), (12, 25)]]
    # the first 2- and 3-share runs start one worker each; the rest reuse them
    assert len(started) == 2 and _pool.idle() == 2
    _pool.close()
    assert all_reaped(started)


def test_functional_mc_every_share_keeps_a_path(monkeypatch, started):
    # two paths, two shares: the start-up head leaves each share one path
    gen = Generator.two_state_symmetric(1.0)
    shares = recorded_shares(monkeypatch)
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    one = discounted_functional_mc(gen, 0.1, [1.0, 2.0], 1, 10.0, 2, seed=3)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    assert discounted_functional_mc(gen, 0.1, [1.0, 2.0], 1, 10.0, 2, seed=3) == one
    assert discounted_functional_mc(gen, 0.1, [1.0, 2.0], 1, 10.0, 2, seed=3) == one
    assert shares == [[(0, 2)], [(0, 1), (1, 2)], [(0, 1), (1, 2)]]
    assert len(started) == 1 and _pool.idle() == 1  # the second run reused the worker
    _pool.close()
    assert all_reaped(started)


def test_functional_mc_small_runs_stay_in_process(started):
    gen = Generator.two_state_symmetric(1.0)
    assert 4000 * (60.0 + chain._PATH_JUMPS) < 2 * chain._SHARE_JUMPS
    discounted_functional_mc(gen, 0.1, [1.0, 2.0], 1, 60.0, 4000, seed=5)
    assert started == []


def test_functional_mc_many_short_paths_split(monkeypatch, started):
    # 10^6 expected jumps alone would stay in one process; each path's own
    # cost (_PATH_JUMPS) sends the run to two shares on two usable CPUs
    gen = benchmark_params().gen
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: 2)
    assert 100_000 * 10.0 * np.max(-np.diag(gen.q)) < 2 * chain._SHARE_JUMPS
    split = discounted_functional_mc(gen, 0.1, [1.0, 2.0], 1, 10.0, 100_000, seed=5)
    assert len(started) == 1 and _pool.idle() == 1
    assert discounted_functional_mc(gen, 0.1, [1.0, 2.0], 1, 10.0, 100_000, seed=5) == split
    assert len(started) == 1  # the warm worker took the second run's share
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 1)
    assert discounted_functional_mc(gen, 0.1, [1.0, 2.0], 1, 10.0, 100_000, seed=5) == split
    assert len(started) == 1
    _pool.close()
    assert all_reaped(started)


def test_functional_mc_refusals_precede_workers(monkeypatch, started):
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    gen = Generator.two_state_symmetric(1.0)
    g = [1.0, 2.0]
    with pytest.raises(ValueError, match="i0 must be in 1..2"):
        discounted_functional_mc(gen, 0.1, g, 3, 10.0, 8, seed=0)
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        discounted_functional_mc(gen, 0.1, g, 1, math.inf, 8, seed=0)
    with pytest.raises(ValueError, match="regime jumps"):
        discounted_functional_mc(Generator.two_state_symmetric(2e4), 0.1, g, 1, 100.0, 8, seed=0)
    with pytest.raises(ValueError, match="g must have length m=2"):
        discounted_functional_mc(gen, 0.1, [1.0], 1, 10.0, 8, seed=0)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        discounted_functional_mc(gen, 0.1, g, 1, 10.0, 1, seed=0)
    with pytest.raises(ValueError, match="budget"):  # 16 B of values a path
        discounted_functional_mc(gen, 0.1, g, 1, 10.0, 2**28, seed=0)
    # 40 000 paths would start a worker before a share met the bad seed
    for bad, match in (({"seed": -1}, "seed must be nonnegative"),
                       ({"seed": 2.5}, "seed must be an integer"),
                       ({"seed": True}, "seed must be an integer"),
                       ({"n_paths": 4.0}, "n_paths must be an integer"),
                       ({"n_paths": True}, "n_paths must be an integer"),
                       ({"i0": 1.5}, "i0 must be an integer"),
                       ({"i0": True}, "i0 must be an integer")):
        with pytest.raises(ValueError, match=match):
            discounted_functional_mc(gen, 0.1, g, **{**dict(i0=1, horizon=10.0,
                                                            n_paths=40_000, seed=0), **bad})
    for i0 in (1.5, True, np.float64(1.0)):
        with pytest.raises(ValueError, match="i0 must be an integer"):
            simulate_chain(gen, i0, 10.0, seed=0)
    assert started == []


def test_functional_mc_failed_share_reaps_workers(monkeypatch, started):
    gen = Generator.two_state_symmetric(1.0)
    monkeypatch.setattr(_pool, "_workers", lambda work, cold, warm: 2)
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    # a worker's share fails: its exception reaches the caller, and the
    # worker, which wrote it whole, serves on
    monkeypatch.setattr(pool_shares, "refuse", pool_shares.indices)  # the parent's share only
    with pytest.raises(TypeError, match="refused paths 4..7"):
        _pool.map_paths("pool_shares", "refuse", (), 8, 1.0, 1.0, 1.0)
    assert len(started) == 1 and _pool.idle() == 1 and started[0].poll() is None

    def interrupted(*args):  # the parent's own share; the worker runs the real one
        raise KeyboardInterrupt

    monkeypatch.setattr(chain, "_functional_share", interrupted)
    with pytest.raises(KeyboardInterrupt):
        discounted_functional_mc(gen, 0.1, [1.0, 2.0], 1, 10.0, 8, seed=0)
    # the idle worker took the share, and its unread result ended it
    assert len(started) == 1 and _pool.idle() == 0 and all_reaped(started)

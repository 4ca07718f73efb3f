import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mfgnet as mn
import mfgnet.montecarlo as mc
from mfgnet.errors import StepTooLarge, ZeroMass
from mfgnet.mfg import density_drift
from mfgnet.montecarlo import (
    SIGMA,
    SimConfig,
    _bridge_hits,
    _route_batch,
    dkw_epsilon,
    estimate_arrival_cdf,
    sample_initial_positions,
    read_levels,
    simulate_agents,
)

from conftest import edge_rows, edge_slots, every_level


def absorbing_reflecting_cdf(times, start=0.5, n_terms=50):
    """Series solution for driftless motion on [0, 1] with unit diffusivity,
    absorbed at 0 and reflected at 1: the arrival-time distribution expands
    in the sine eigenbasis of the interval."""
    lam = (np.arange(n_terms) + 0.5) * np.pi
    coef = 2 * np.sin(lam * start)
    t = np.asarray(times, dtype=float)[:, None]
    return 1.0 - (coef / lam * np.exp(-(lam**2) * t)).sum(axis=1)


class TestSingleAgent:
    def test_start_at_exit_arrives_immediately(self, single_edge):
        cfg = SimConfig(n_agents=1, dt=1e-3, t_max=1.0, seed=0)
        assert simulate_agents(single_edge, cfg, np.array([0]), np.array([0.0]))[0] == 0.0

    def test_censoring_far_mass_tiny_horizon(self, single_edge):
        cfg = SimConfig(n_agents=1, dt=1e-4, t_max=2e-3, seed=1)
        out = simulate_agents(single_edge, cfg, np.zeros(200, dtype=int), np.full(200, 0.95))
        assert np.isnan(out).all()

    def test_negative_or_nan_start_rejected(self, single_edge):
        cfg = SimConfig(n_agents=2, dt=1e-3, t_max=1.0, seed=0)
        for bad in (-0.5, np.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                simulate_agents(single_edge, cfg, np.zeros(2, dtype=int), np.array([0.5, bad]))

    @pytest.mark.parametrize("dt, t_max", [
        (math.nan, 1.0), (1e-3, math.nan), (1e-3, math.inf), (math.inf, 1.0),
    ], ids=["dt_nan", "t_max_nan", "t_max_inf", "dt_inf"])
    def test_nonfinite_step_or_horizon_rejected(self, dt, t_max):
        with pytest.raises(ValueError, match="positive and finite"):
            SimConfig(n_agents=1, dt=dt, t_max=t_max)

    def test_deterministic_replay(self, three_star):
        cfg = SimConfig(n_agents=500, dt=1e-3, t_max=2.0, seed=42)
        starts_e = np.zeros(500, dtype=int)
        starts_y = np.full(500, 0.5)
        a = simulate_agents(three_star, cfg, starts_e, starts_y)
        b = simulate_agents(three_star, cfg, starts_e, starts_y)
        np.testing.assert_array_equal(a, b)


class TestRouting:
    def test_uniform_edge_choice(self, three_star):
        rng = np.random.default_rng(11)
        n = 30000
        verts = np.full(n, 1)  # degree-3 center
        over = np.full(n, 0.01)
        edges, ys = _route_batch(three_star, verts, over, rng)
        freq = np.bincount(edges, minlength=3) / n
        se3 = 3 * np.sqrt((1 / 3) * (2 / 3) / n)
        np.testing.assert_allclose(freq, 1 / 3, atol=se3)
        # re-emitted one overshoot away from the vertex on each chosen edge
        from_tail = three_star.tails[edges] == 1
        np.testing.assert_allclose(np.where(from_tail, ys, 1.0 - ys), 0.01)

    def test_degree_one_reflects(self, single_edge):
        cfg = SimConfig(n_agents=300, dt=1e-3, t_max=0.05, seed=3)
        out = simulate_agents(single_edge, cfg, np.zeros(300, dtype=int), np.full(300, 0.98))
        # reflecting far end cannot absorb: any arrival must be the exit,
        # which is 0.98 units away; essentially all runs are censored
        assert np.isnan(out).mean() > 0.95


class TestAgainstAnalyticSeries:
    def test_point_start_matches_series(self, single_edge):
        n = 100_000
        cfg = SimConfig(n_agents=n, dt=1e-3, t_max=4.0, seed=11)
        arr = simulate_agents(single_edge, cfg, np.zeros(n, dtype=int), np.full(n, 0.5))
        times = np.linspace(0.05, 4.0, 80)
        finite = np.sort(arr[~np.isnan(arr)])
        empirical = np.searchsorted(finite, times, side="right") / n
        exact = absorbing_reflecting_cdf(times)
        assert np.abs(empirical - exact).max() <= 0.01

    def test_orientation_relabeling_invariance(self):
        """The dynamics must not depend on which way an edge is parametrized;
        two runs on mirrored orientations agree within twice the band."""
        n = 20_000
        fwd = mn.build_network([(0, (0, 0)), (1, (1, 0))], [(0, 0, 1, 1.0)], 0)
        rev = mn.build_network([(0, (0, 0)), (1, (1, 0))], [(0, 1, 0, 1.0)], 0)
        cfg = SimConfig(n_agents=n, dt=1e-3, t_max=2.0, seed=17)
        a = simulate_agents(fwd, cfg, np.zeros(n, dtype=int), np.full(n, 0.5))
        b = simulate_agents(rev, cfg, np.zeros(n, dtype=int), np.full(n, 0.5))
        times = np.linspace(0.05, 2.0, 50)
        fa = np.searchsorted(np.sort(a[~np.isnan(a)]), times, side="right") / n
        fb = np.searchsorted(np.sort(b[~np.isnan(b)]), times, side="right") / n
        assert np.abs(fa - fb).max() <= 2 * dkw_epsilon(n)


class TestDensityDriftConsistency:
    def test_simulated_flow_matches_pde_under_strong_costs(self, single_edge):
        """With large cost slopes the drift convention matters: only the
        density drift +2 d/dx ln(phi) reproduces the computed arrival flow,
        while the raw feedback drift visibly does not."""
        import mfgnet.mfg as mfg

        hat = lambda p: np.maximum(1 - np.abs(p[:, 0] - 0.5) / 0.5, 0.0)
        spec = mn.ProblemSpec(
            topology=single_edge, cost=mfg.CostSpec(0.5, 4.0, 1.0, 0.0, 1.0),
            theta=0.5, m0=hat, h_target=0.02, t_init=4.0)
        prob = mfg.discretize(spec)
        tg = prob.time_grid
        res = mfg.psi_map(2.0, prob)
        phi = mfg.map_phi(res, prob, every_level(tg))

        good = mfg.density_drift(prob.grid, phi, tg.dt)
        bad = mfg.drift_from_matrix(prob.grid, np.log(phi), tg.dt)
        sups = []
        for drift in (good, bad):
            cfg = SimConfig(n_agents=30_000, dt=5e-4, t_max=4.0, seed=5, drift=drift)
            mc = estimate_arrival_cdf(cfg, prob.m0, tg.times)
            sups.append(float(np.abs(mc.fraction - res.f_series).max()))
        assert sups[0] <= 0.02
        assert sups[1] > 3 * sups[0]


class TestEstimateCdf:
    def grid_and_m0(self, topo, h=0.05, center=0.5):
        g = mn.build_grid(topo, h)
        hat = lambda p: np.maximum(1 - np.abs(p[:, 0] - center) / 0.3, 0.0)
        return g, mn.normalize_mass(mn.sample_function(g, hat))

    def test_all_agents_at_exit_arrive_at_once(self, single_edge):
        n = 500
        cfg = SimConfig(n_agents=n, dt=1e-3, t_max=1.0, seed=5)
        arr = simulate_agents(single_edge, cfg, np.zeros(n, dtype=int), np.zeros(n))
        assert (arr == 0.0).all()

    def test_zero_mass_rejected(self, single_edge):
        g = mn.build_grid(single_edge, 0.05)
        cfg = SimConfig(n_agents=10, dt=1e-3, t_max=1.0, seed=5)
        with pytest.raises(ZeroMass):
            estimate_arrival_cdf(cfg, mn.GridField(g, np.zeros(g.n_flat)), np.zeros(3))

    def test_cdf_shape(self, single_edge):
        g, m0 = self.grid_and_m0(single_edge)
        cfg = SimConfig(n_agents=4000, dt=1e-3, t_max=3.0, seed=7)
        out = estimate_arrival_cdf(cfg, m0, np.linspace(0, 3, 61))
        assert (np.diff(out.fraction) >= 0).all()
        assert out.fraction[-1] <= 1.0
        assert (out.band_lo <= out.fraction).all()
        assert (out.fraction <= out.band_hi).all()
        assert out.epsilon == pytest.approx(dkw_epsilon(4000))

    def test_sampler_respects_density(self, single_edge):
        g, m0 = self.grid_and_m0(single_edge, h=0.02)
        rng = np.random.default_rng(0)
        edges, ys = sample_initial_positions(m0, 50_000, rng)
        assert (edges == 0).all()
        # the piecewise-linear interpolant of m0: on the cell [x, x + h] with
        # end values a and b, mass h (a + b) / 2 and first moment
        # h x (a + b) / 2 + h^2 (a / 6 + b / 3)
        h, x = g.h[0], np.arange(g.n_cells[0]) * g.h[0]
        values = m0.data[edge_slots(g, 0)]
        a, b = values[:-1], values[1:]
        mass = h * (a + b) / 2
        expected = (mass * x + h * h * (a / 6 + b / 3)).sum() / mass.sum()
        assert ys.mean() == pytest.approx(expected, abs=0.002)
        # the fraction below each node against the interpolant's CDF
        cdf = np.cumsum(mass) / mass.sum()
        below = np.searchsorted(np.sort(ys), x + h, side="right") / len(ys)
        assert np.abs(below - cdf).max() <= dkw_epsilon(len(ys))
        assert ys.min() >= 0.2 - h
        assert ys.max() <= 0.8 + h

    def test_sampler_zero_draws_and_zero_ends(self, single_edge):
        """Draws of 0, and cells with an end value of 0, place each agent in
        its cell by the inverse of the cell's linear density, with no
        division by zero and no warning."""
        g = mn.build_grid(single_edge, 0.25)
        # node values 0, 1, 0, 2, 0 from the exit: every cell has a zero end
        m0 = mn.GridField(g, np.zeros(g.n_flat))
        m0.data[edge_slots(g, 0)] = [0.0, 1.0, 0.0, 2.0, 0.0]

        class Draws:
            def __init__(self, *rows):
                self.rows = list(rows)

            def random(self, n):
                return np.array(self.rows.pop(0))

        # cumulative cell masses 1/6, 2/6, 4/6, 1: one draw in each cell, and
        # in each the fraction u of its mass
        cells = [0.0, 0.2, 0.5, 0.9, 0.0, 0.5, 0.9]
        within = [0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.75]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges, ys = sample_initial_positions(m0, len(cells), Draws(cells, within))
        assert (edges == 0).all()
        # u = 0 starts the cell; a = 0 gives s = sqrt(u); b = 0 gives
        # s = u / (1 + sqrt(1 - u))
        np.testing.assert_allclose(ys, [0.0, 0.25, 0.5, 0.75, 0.125, 0.625, 0.875],
                                   rtol=0, atol=1e-15)

    def test_convergence_in_agent_count(self, single_edge):
        g, m0 = self.grid_and_m0(single_edge)
        times = np.linspace(0.05, 3.0, 40)
        ref = estimate_arrival_cdf(
            SimConfig(n_agents=64_000, dt=2e-3, t_max=3.0, seed=100), m0, times).fraction
        dists = []
        for n in (4000, 8000, 16000):
            frac = estimate_arrival_cdf(
                SimConfig(n_agents=n, dt=2e-3, t_max=3.0, seed=200 + n), m0, times).fraction
            dists.append(np.abs(frac - ref).max())
        assert dists[2] < dists[0]
        assert dists[1] < 1.2 * dists[0]


class TestBlocks:
    """estimate_arrival_cdf simulates its population in blocks of
    _BLOCK_AGENTS agents, the later ones on forked workers; here blocks of
    500 agents keep the runs small."""

    SIM = dict(dt=2e-3, t_max=1.0, seed=31)

    @pytest.fixture
    def m0(self, single_edge, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_AGENTS", 500)
        g = mn.build_grid(single_edge, 0.05)
        return mn.normalize_mass(mn.sample_function(g, lambda p: p[:, 0]))

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def starts_and_child_seed(cfg, m0):
        rng = np.random.default_rng(cfg.seed)
        edges, ys = sample_initial_positions(m0, cfg.n_agents, rng)
        return edges, ys, int(rng.integers(0, 2**63 - 1))

    @pytest.mark.parametrize("n", [1, 500])
    def test_one_block_steps_on_the_sampler_seed(self, m0, monkeypatch, n):
        self.cpus(monkeypatch, 2)
        cfg = SimConfig(n_agents=n, **self.SIM)
        edges, ys, child = self.starts_and_child_seed(cfg, m0)
        expected = simulate_agents(m0.grid.topology, replace(cfg, seed=child), edges, ys)
        got = estimate_arrival_cdf(cfg, m0, np.zeros(1)).arrival_times
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_forked_blocks_match_blocks_in_the_caller(self, m0, monkeypatch, n_cpus):
        cfg = SimConfig(n_agents=1700, **self.SIM)  # blocks 0:425:850:1275:1700
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        self.cpus(monkeypatch, n_cpus)
        forked = estimate_arrival_cdf(cfg, m0, np.zeros(1)).arrival_times
        assert len(forks) == n_cpus - 1
        self.cpus(monkeypatch, 1)
        in_caller = estimate_arrival_cdf(cfg, m0, np.zeros(1)).arrival_times
        assert len(forks) == n_cpus - 1
        assert forked.tobytes() == in_caller.tobytes()
        assert np.isfinite(forked).mean() > 0.5
        # block 0 steps on the sampler's seed, block b >= 1 on the first
        # state word of the b-th child of its SeedSequence, shifted to 63 bits
        edges, ys, child = self.starts_and_child_seed(cfg, m0)
        spawned = np.random.SeedSequence(child).spawn(3)
        seeds = [child] + [int(s.generate_state(2, np.uint64)[0] >> np.uint64(1))
                           for s in spawned]
        for b, seed in enumerate(seeds):
            part = slice(425 * b, 425 * (b + 1))
            block = simulate_agents(m0.grid.topology, replace(cfg, seed=seed),
                                    edges[part], ys[part])
            assert forked[part].tobytes() == block.tobytes()

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_error_in_a_block_reaches_the_caller_and_no_worker_is_left(
            self, m0, monkeypatch, where):
        caller, simulate = os.getpid(), mc.simulate_agents

        def failing(*args):
            if (os.getpid() == caller) == (where == "caller"):
                raise StepTooLarge(f"raised in the {where}")
            return simulate(*args)

        monkeypatch.setattr(mc, "simulate_agents", failing)
        self.cpus(monkeypatch, 2)
        with pytest.raises(StepTooLarge, match=f"in the {where}"):
            estimate_arrival_cdf(SimConfig(n_agents=1000, **self.SIM), m0, np.zeros(1))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _reference_drift_eval(drift, edge_ids, ys, level):
    h = drift.grid.h[edge_ids]
    k = np.clip((ys / h).astype(int), 0, drift.grid.n_cells[edge_ids] - 1)
    frac = ys / h - k
    base = drift.grid.edge_starts[edge_ids] + k
    row = drift.values[level]
    return (1.0 - frac) * row[base] + frac * row[base + 1]


def _reference_resolve_crossings(topology, edges, ys, rng):
    absorbed = np.zeros(len(edges), dtype=bool)
    for _ in range(1000):
        below = ys < 0.0
        above = ys > topology.lengths[edges]
        moving = np.flatnonzero((below | above) & ~absorbed)
        if len(moving) == 0:
            return absorbed
        at_tail = below[moving]
        verts = np.where(at_tail, topology.tails[edges[moving]], topology.heads[edges[moving]])
        over = np.where(at_tail, -ys[moving], ys[moving] - topology.lengths[edges[moving]])
        hit_exit = verts == topology.exit_vertex
        absorbed[moving[hit_exit]] = True
        ys[moving[hit_exit]] = 0.0
        go = moving[~hit_exit]
        if len(go):
            new_e, new_y = _route_batch(topology, verts[~hit_exit], over[~hit_exit], rng)
            edges[go] = new_e
            ys[go] = new_y
    raise RuntimeError("too many crossings")


def _reference_simulate_agents(topology, config, start_edges, start_ys):
    """The particle loop as first written: every step gathers the active
    agents from the full arrays and scatters them back."""
    rng = np.random.default_rng(config.seed)
    edges = np.asarray(start_edges, dtype=int).copy()
    ys = np.asarray(start_ys, dtype=float).copy()
    arrival = np.full(len(edges), np.nan)

    exit_edge = edge_rows(topology)[topology.exit_edge]
    on_exit = (edges == exit_edge.id) & (
        (ys <= 0.0) if exit_edge.tail == topology.exit_vertex else (ys >= exit_edge.length))
    arrival[on_exit] = 0.0

    drift = config.drift
    noise_scale = SIGMA * math.sqrt(config.dt)
    n_steps = math.ceil(config.t_max / config.dt)
    bridge_scale = -2.0 / (SIGMA**2 * config.dt)
    exit_from_tail = exit_edge.tail == topology.exit_vertex

    for step in range(n_steps):
        active = np.flatnonzero(np.isnan(arrival))
        if len(active) == 0:
            break
        t = step * config.dt
        e = edges[active]
        y = ys[active]
        on_exit_before = e == exit_edge.id
        d_before = np.where(on_exit_before,
                            y if exit_from_tail else exit_edge.length - y, np.inf)
        if drift is not None:
            a = _reference_drift_eval(drift, e, y, drift.level_at(t))
            y = y + a * config.dt
        y = y + noise_scale * rng.standard_normal(len(active))
        absorbed = _reference_resolve_crossings(topology, e, y, rng)
        candidates = np.flatnonzero(on_exit_before & (e == exit_edge.id) & ~absorbed)
        if len(candidates):
            d_after = y[candidates] if exit_from_tail else exit_edge.length - y[candidates]
            p_cross = np.exp(bridge_scale * d_before[candidates] * d_after)
            hit = rng.random(len(candidates)) < p_cross
            absorbed[candidates[hit]] = True
        edges[active] = e
        ys[active] = y
        arrival[active[absorbed]] = min(t + config.dt, config.t_max)
    return arrival


def _smooth_phi(topology, h, n_levels):
    """A grid and a positive phi history on it that varies along every edge
    and in time, one level per row."""
    grid = mn.build_grid(topology, h)
    x = np.arange(grid.n_flat) / grid.n_flat
    levels = np.arange(n_levels)[:, None] / n_levels
    return grid, np.exp(np.sin(7.0 * x[None, :] + 3.0 * levels) + 2.0 * x[None, :] * levels)


def _smooth_drift(topology, h, n_levels, dt):
    """A density drift from ``_smooth_phi``'s history."""
    return density_drift(*_smooth_phi(topology, h, n_levels), dt)


def _head_exit_edge():
    """Unit edge whose exit is its head."""
    return mn.build_network([(0, (0.0, 0.0)), (1, (1.0, 0.0))], [(0, 1, 0, 1.0)], 0)


class TestAgainstReferenceLoop:
    """The compacted loop must reproduce the original loop bit for bit:
    same draws, same order, same arithmetic for every arrival."""

    def assert_same(self, topology, config, edges, ys):
        got = simulate_agents(topology, config, edges, ys)
        want = _reference_simulate_agents(topology, config, edges, ys)
        assert np.array_equal(got, want, equal_nan=True)
        return got

    def test_single_edge_with_density_drift(self, single_edge):
        n = 2000
        drift = _smooth_drift(single_edge, 0.05, 41, 0.05)
        ys = np.random.default_rng(1).random(n)
        for dt in (1e-3, 4e-3):
            cfg = SimConfig(n_agents=n, dt=dt, t_max=2.0, seed=3, drift=drift)
            arr = self.assert_same(single_edge, cfg, np.zeros(n, dtype=int), ys)
            assert np.isfinite(arr).mean() > 0.5

    def test_three_star_routing(self, three_star):
        n = 1500
        rng = np.random.default_rng(2)
        edges, ys = rng.integers(0, 3, n), rng.random(n)
        cfg = SimConfig(n_agents=n, dt=2e-3, t_max=3.0, seed=4)
        self.assert_same(three_star, cfg, edges, ys)

    def test_three_star_with_drift(self, three_star):
        n = 1000
        rng = np.random.default_rng(5)
        edges, ys = rng.integers(0, 3, n), rng.random(n)
        drift = _smooth_drift(three_star, 0.1, 21, 0.1)
        cfg = SimConfig(n_agents=n, dt=2e-3, t_max=2.0, seed=6, drift=drift)
        self.assert_same(three_star, cfg, edges, ys)

    def test_example1_edges_of_different_lengths(self, example1_config):
        topo = example1_config.spec.topology
        n = 1000
        rng = np.random.default_rng(12)
        edges = rng.integers(0, topo.n_edges, n)
        ys = rng.random(n) * topo.lengths[edges]
        drift = _smooth_drift(topo, 0.1, 21, 0.25)
        for dt, d in ((2e-3, drift), (5e-3, drift), (5e-3, None)):
            cfg = SimConfig(n_agents=n, dt=dt, t_max=5.0, seed=13, drift=d)
            self.assert_same(topo, cfg, edges, ys)

    def test_exit_at_edge_head(self):
        topo = _head_exit_edge()
        n = 1500
        drift = _smooth_drift(topo, 0.05, 11, 0.2)
        ys = np.random.default_rng(7).random(n)
        for d in (None, drift):
            cfg = SimConfig(n_agents=n, dt=1e-3, t_max=2.0, seed=8, drift=d)
            arr = self.assert_same(topo, cfg, np.zeros(n, dtype=int), ys)
            assert np.isfinite(arr).mean() > 0.5

    def test_agents_starting_on_the_exit(self, single_edge):
        ys = np.array([0.0, 0.3, 0.0, 0.9, 0.5])
        cfg = SimConfig(n_agents=5, dt=1e-3, t_max=1.0, seed=9)
        arr = self.assert_same(single_edge, cfg, np.zeros(5, dtype=int), ys)
        assert arr[0] == arr[2] == 0.0
        head = _head_exit_edge()
        arr = self.assert_same(head, cfg, np.zeros(5, dtype=int), 1.0 - ys)
        assert arr[0] == arr[2] == 0.0

    def test_censored_at_horizon(self, three_star):
        n = 800
        rng = np.random.default_rng(10)
        edges, ys = rng.integers(0, 3, n), rng.random(n)
        cfg = SimConfig(n_agents=n, dt=1e-3, t_max=0.1, seed=11)
        arr = self.assert_same(three_star, cfg, edges, ys)
        assert 0 < np.isnan(arr).sum() < n
        assert np.nanmax(arr) <= 0.1

    def test_most_absorbed_through_the_bridge(self, single_edge, monkeypatch):
        """Every agent on the exit edge and a small step: the bridge test
        absorbs more agents than the exit crossings do."""
        absorbed = _count_absorptions(monkeypatch)
        n = 2000
        drift = _smooth_drift(single_edge, 0.05, 41, 0.05)
        ys = np.random.default_rng(1).random(n) * 0.05
        cfg = SimConfig(n_agents=n, dt=1e-4, t_max=0.05, seed=3, drift=drift)
        arr = self.assert_same(single_edge, cfg, np.zeros(n, dtype=int), ys)
        assert np.isfinite(arr).mean() > 0.7
        assert absorbed["bridge"] > absorbed["crossing"] > 0

    def test_routed_off_the_exit_edge_and_back_in_one_step(self, monkeypatch):
        """Two short leaves at the exit edge's far vertex: a step carries
        agents off the exit edge and back onto it, and only agents that
        start and end it on the exit edge take the bridge test."""
        topo = mn.build_network(
            [(0, (0.0, 0.0)), (1, (0.3, 0.0)), (2, (0.32, 0.0)), (3, (0.3, 0.03))],
            [(0, 0, 1, 0.3), (1, 1, 2, 0.02), (2, 3, 1, 0.03)], 0)
        returns = _count_returns(monkeypatch, exit_edge=0)
        n = 1500
        rng = np.random.default_rng(14)
        edges = rng.integers(0, 3, n)
        ys = rng.random(n) * np.array([0.3, 0.02, 0.03])[edges]
        for d in (None, _smooth_drift(topo, 0.01, 21, 0.05)):
            cfg = SimConfig(n_agents=n, dt=2e-3, t_max=1.0, seed=15, drift=d)
            self.assert_same(topo, cfg, edges, ys)
        assert returns[0] > 100


def _count_absorptions(mp) -> dict:
    """Count the agents ``simulate_agents`` absorbs at a crossing and by the
    bridge test."""
    import mfgnet.montecarlo as mc

    counts = {"crossing": 0, "bridge": 0}
    resolve, bridge = mc._resolve_crossings, mc._bridge_hits

    def counted_resolve(*args):
        absorbed, routed = resolve(*args)
        counts["crossing"] += len(absorbed)
        return absorbed, routed

    def counted_bridge(x, u):
        hits = bridge(x, u)
        counts["bridge"] += len(hits)
        return hits

    mp.setattr(mc, "_resolve_crossings", counted_resolve)
    mp.setattr(mc, "_bridge_hits", counted_bridge)
    return counts


def _count_returns(mp, exit_edge: int) -> list:
    """Count the agents a step routes at least twice that start and end it
    on ``exit_edge`` without being absorbed."""
    import mfgnet.montecarlo as mc

    count = [0]
    resolve = mc._resolve_crossings

    def counted(tables, edges, ys, lengths, rng):
        before = edges.copy()
        absorbed, routed = resolve(tables, edges, ys, lengths, rng)
        agents, routes = np.unique(routed, return_counts=True)
        back = (routes >= 2) & (before[agents] == exit_edge) & (edges[agents] == exit_edge)
        count[0] += len(np.setdiff1d(agents[back], absorbed))
        return absorbed, routed

    mp.setattr(mc, "_resolve_crossings", counted)
    return count


def test_bridge_decision_matches_plain_exp():
    xs = np.array([0.0, -1.0, -40.0, -41.0, -708.0, -720.0, -745.0, -745.2, -746.0, -1e4])
    us = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    x, u = (a.ravel() for a in np.meshgrid(xs, us))
    np.testing.assert_array_equal(_bridge_hits(x, u), np.flatnonzero(u < np.exp(x)))


def test_crossing_limit_raises_typed_error():
    n = 40
    topo = mn.build_network([(i, (float(i), 0.0)) for i in range(n + 1)],
                            [(i, i, i + 1, 1.0) for i in range(n)], 0)
    cfg = SimConfig(n_agents=50, dt=1e6, t_max=4.0, seed=7)
    with pytest.raises(StepTooLarge, match="dt"):
        simulate_agents(topo, cfg, np.full(50, 30), np.full(50, 0.5))


class TestReadLevels:
    """The oracle evaluates phi only at ``read_levels``; the particles must
    read no other level, and read the same rows as from the full history."""

    @pytest.mark.parametrize("dt_mc, dt, last_level", [
        (1e-3, 1.5625e-4, 12800),  # desk's ratio of time steps
        (3e-3, 0.01, 200),         # particle steps finer than levels
        (0.01, 0.01, 200),         # equal steps
        (7e-3, 0.01, 50),          # the drift ends before the horizon
    ])
    def test_levels_simulate_agents_reads(self, dt_mc, dt, last_level):
        # a long edge, so no agent is absorbed and every step is taken
        topo = mn.build_network([(0, (0.0, 0.0)), (1, (20.0, 0.0))], [(0, 0, 1, 20.0)], 0)
        drift = _smooth_drift(topo, 0.5, last_level + 1, dt)
        asked, level_at = set(), drift.level_at
        drift.level_at = lambda t: asked.add(level_at(t)) or level_at(t)
        cfg = SimConfig(n_agents=5, dt=dt_mc, t_max=2.0, seed=2, drift=drift)
        arr = simulate_agents(topo, cfg, np.zeros(5, dtype=int), np.full(5, 19.0))
        assert np.isnan(arr).all()
        np.testing.assert_array_equal(read_levels(cfg, dt, last_level), sorted(asked))

    def test_drift_at_read_levels_gives_the_same_arrivals(self, three_star):
        dt, n_levels = 0.01, 201
        grid, phi = _smooth_phi(three_star, 0.1, n_levels)
        cfg = SimConfig(n_agents=3000, dt=3e-3, t_max=2.0, seed=4)
        levels = read_levels(cfg, dt, n_levels - 1)
        assert len(levels) < n_levels
        ys = np.random.default_rng(6).random(cfg.n_agents)
        edges = np.arange(cfg.n_agents) % 3
        arrivals = [simulate_agents(three_star, replace(cfg, drift=drift), edges, ys)
                    for drift in (density_drift(grid, phi, dt),
                                  density_drift(grid, phi[levels], dt, levels))]
        assert np.array_equal(*arrivals, equal_nan=True)
        assert np.isfinite(arrivals[0]).mean() > 0.2

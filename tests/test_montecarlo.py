import numpy as np
import pytest

import mfgnet as mn
from mfgnet.errors import ZeroMass
from mfgnet.montecarlo import (
    SimConfig,
    _route_batch,
    _TopologyTables,
    dkw_epsilon,
    estimate_arrival_cdf,
    sample_initial_positions,
    simulate_agents,
)


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

    def test_deterministic_replay(self, three_star):
        cfg = SimConfig(n_agents=500, dt=1e-3, t_max=2.0, seed=42)
        starts_e = np.zeros(500, dtype=int)
        starts_y = np.full(500, 0.5)
        a = simulate_agents(three_star, cfg, starts_e, starts_y)
        b = simulate_agents(three_star, cfg, starts_e, starts_y)
        np.testing.assert_array_equal(a, b)


class TestRouting:
    def test_uniform_edge_choice(self, three_star):
        tables = _TopologyTables(three_star)
        rng = np.random.default_rng(11)
        n = 30000
        verts = np.full(n, 1)  # degree-3 center
        over = np.full(n, 0.01)
        edges, ys = _route_batch(tables, verts, over, rng)
        freq = np.bincount(edges, minlength=3) / n
        se3 = 3 * np.sqrt((1 / 3) * (2 / 3) / n)
        np.testing.assert_allclose(freq, 1 / 3, atol=se3)
        # re-emitted one overshoot away from the vertex on each chosen edge
        from_tail = tables.tail[edges] == 1
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
        res = mfg.psi_map(2.0, prob, record_full=True)
        tg = prob.time_grid

        good = mfg.density_drift(prob.grid, res.phi.full, tg.dt)
        bad = mfg.drift_from_matrix(prob.grid, np.log(res.phi.full), tg.dt)
        sups = []
        for drift in (good, bad):
            cfg = SimConfig(n_agents=30_000, dt=5e-4, t_max=4.0, seed=5, drift=drift)
            mc = estimate_arrival_cdf(single_edge, cfg, prob.grid, prob.m0, tg.times)
            sups.append(float(np.abs(mc.fraction - res.f_series).max()))
        assert sups[0] <= 0.02
        assert sups[1] > 3 * sups[0]


class TestEstimateCdf:
    def grid_and_m0(self, topo, h=0.05, center=0.5):
        g = mn.build_grid(topo, h)
        hat = lambda p: np.maximum(1 - np.abs(p[:, 0] - center) / 0.3, 0.0)
        return g, mn.normalize_mass(g, mn.sample_function(g, hat))

    def test_all_agents_at_exit_arrive_at_once(self, single_edge):
        n = 500
        cfg = SimConfig(n_agents=n, dt=1e-3, t_max=1.0, seed=5)
        arr = simulate_agents(single_edge, cfg, np.zeros(n, dtype=int), np.zeros(n))
        assert (arr == 0.0).all()

    def test_zero_mass_rejected(self, single_edge):
        g = mn.build_grid(single_edge, 0.05)
        cfg = SimConfig(n_agents=10, dt=1e-3, t_max=1.0, seed=5)
        with pytest.raises(ZeroMass):
            estimate_arrival_cdf(single_edge, cfg, g, g.zeros(), np.zeros(3))

    def test_cdf_shape(self, single_edge):
        g, m0 = self.grid_and_m0(single_edge)
        cfg = SimConfig(n_agents=4000, dt=1e-3, t_max=3.0, seed=7)
        out = estimate_arrival_cdf(single_edge, cfg, g, m0, np.linspace(0, 3, 61))
        assert (np.diff(out.fraction) >= 0).all()
        assert out.fraction[-1] <= 1.0
        assert (out.band_lo <= out.fraction).all()
        assert (out.fraction <= out.band_hi).all()
        assert out.epsilon == pytest.approx(dkw_epsilon(4000))

    def test_sampler_respects_density(self, single_edge):
        g, m0 = self.grid_and_m0(single_edge, h=0.02)
        rng = np.random.default_rng(0)
        edges, ys = sample_initial_positions(g, m0, 50_000, rng)
        assert (edges == 0).all()
        # exact mean of the sampling scheme: cell weight = left value * h,
        # position uniform inside the cell
        left = m0.edge_values(0)[:-1]
        centers = (np.arange(g.n_cells[0]) + 0.5) * g.h[0]
        expected = (left * centers).sum() / left.sum()
        assert ys.mean() == pytest.approx(expected, abs=0.005)
        assert ys.min() >= 0.1
        assert ys.max() <= 0.9 + g.h[0]

    def test_convergence_in_agent_count(self, single_edge):
        g, m0 = self.grid_and_m0(single_edge)
        times = np.linspace(0.05, 3.0, 40)
        ref = estimate_arrival_cdf(
            single_edge, SimConfig(n_agents=64_000, dt=2e-3, t_max=3.0, seed=100),
            g, m0, times).fraction
        dists = []
        for n in (4000, 8000, 16000):
            frac = estimate_arrival_cdf(
                single_edge, SimConfig(n_agents=n, dt=2e-3, t_max=3.0, seed=200 + n),
                g, m0, times).fraction
            dists.append(np.abs(frac - ref).max())
        assert dists[2] < dists[0]
        assert dists[1] < 1.2 * dists[0]

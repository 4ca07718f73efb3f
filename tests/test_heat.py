import tracemalloc

import numpy as np
import pytest

import mfgnet as mn
from mfgnet.errors import CflViolation, NonpositivePhi
from mfgnet.heat import StepOperator, solve_backward_phi, solve_forward_psi

from conftest import edge_slots, every_level, level_states, random_tree_network


def star(step_lengths):
    """Star with the exit on leaf 0 and given leaf-edge lengths."""
    n = len(step_lengths)
    vertices = [(0, (1.0, 0.0)), (1, (0.0, 0.0))]
    edges = [(0, 1, 0, step_lengths[0])]
    for i, l in enumerate(step_lengths[1:], start=2):
        vertices.append((i, (np.cos(i), np.sin(i))))
        edges.append((i - 1, 1, i, l))
    return mn.build_network(vertices, edges, 0)


def step(fld, dt, pins):
    """One StepOperator step of a field with ``pins`` (vertex: value) imposed."""
    grid = fld.grid
    op = StepOperator(grid, tuple(pins), dt)
    out = np.empty(grid.n_flat)
    op.step(fld.data, np.array(list(pins.values()), dtype=float), out, op.scratch())
    return mn.GridField(grid, out)


def first_interior(grid, edge_id):
    """Flat index of node k = 1 of an edge."""
    return grid.edge_nodes[grid.edge_starts[edge_id] + 1]


def balance(f, pinned):
    """Flux-balance every vertex of ``f`` outside ``pinned``, in place, and
    return the operator that did it."""
    op = StepOperator(f.grid, pinned, 0.25 * f.grid.min_h**2)
    op.balance_vertices(f.data, op.scratch()[2])
    return op


class TestVertexSolve:
    def test_equal_steps_average(self):
        topo = star([0.2, 0.2, 0.2])
        g = mn.SpatialGrid(topo, np.array([2, 2, 2]))  # h = 0.1 everywhere
        f = mn.GridField(g, np.zeros(g.n_flat))
        for j, v in enumerate((1.0, 2.0, 3.0)):
            f.data[first_interior(g, j)] = v
        balance(f, (0, 2, 3))
        # sum over edges of (adjacent - center)/h = 0  =>  center = mean
        assert f.data[1] == pytest.approx(2.0)

    def test_unequal_steps_weighted_average(self):
        topo = star([0.2, 0.4])
        g = mn.SpatialGrid(topo, np.array([2, 2]))  # h = 0.1 and 0.2
        f = mn.GridField(g, np.zeros(g.n_flat))
        f.data[first_interior(g, 0)] = 1.0
        f.data[first_interior(g, 1)] = 2.0
        balance(f, (0, 2))
        # (1/0.1 + 2/0.2) / (1/0.1 + 1/0.2) = 20/15
        assert f.data[1] == pytest.approx(4.0 / 3.0)

    def test_degree_one_reflects(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        f = mn.GridField(g, np.zeros(g.n_flat))
        f.data[edge_slots(g, 0)[-2]] = 7.0
        balance(f, (0,))
        assert f.data[1] == 7.0

    def test_residual_vanishes_after_solve(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            topo = random_tree_network(rng, int(rng.integers(0, 3)))
            g = mn.build_grid(topo, 0.2)
            f = mn.GridField(g, rng.uniform(0, 5, g.n_flat))
            op = balance(f, (topo.exit_vertex,))
            scale = op.total_weight * max(abs(f.data).max(), 1.0)
            assert (np.abs(op.kirchhoff_residual(f.data)) <= 1e-12 * scale).all()

    def test_every_step_of_a_sweep_is_balanced(self):
        rng = np.random.default_rng(11)
        for k in range(9):
            topo = random_tree_network(rng, k % 3)
            g = mn.build_grid(topo, 0.2)
            tg = mn.build_time_grid(0.3, g.min_h, 0.25)
            m0 = mn.GridField(g, rng.uniform(0, 5, g.n_flat))
            phi0 = mn.GridField(g, rng.uniform(1, 2, g.n_flat))
            sweep = solve_forward_psi(g, tg, m0, phi0, snapshot_levels=every_level(tg))
            op = StepOperator(g, (topo.exit_vertex,), tg.dt)
            for state in level_states(sweep)[1:]:
                scale = op.total_weight * max(abs(state).max(), 1.0)
                assert (np.abs(op.kirchhoff_residual(state)) <= 1e-12 * scale).all()


    def test_batch_gathers_only_the_adjacent_nodes(self, three_star):
        """Balancing a batch of states allocates less than twice ``contrib``:
        it gathers the few nodes next to the free vertices, not a copy of
        every state's interior."""
        g = mn.build_grid(three_star, 0.01)
        op = StepOperator(g, (three_star.exit_vertex,), 0.25 * g.min_h**2)
        out = np.random.default_rng(5).random((2000, g.n_flat))
        contrib = np.empty((len(out), len(op.adj_nodes)))
        expected = out.copy()
        for row in expected:
            op.balance_vertices(row, op.scratch()[2])
        tracemalloc.start()
        try:
            op.balance_vertices(out, contrib)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * contrib.nbytes
        np.testing.assert_array_equal(out, expected)

class TestSingleStep:
    def test_forward_stencil_arithmetic(self, single_edge):
        # one interior node, neighbors pinned at 0, lambda = 1/4
        g = mn.build_grid(single_edge, 0.5)
        f = mn.GridField(g, np.zeros(g.n_flat))
        f.data[2] = 1.0
        out = step(f, 0.25 * 0.5**2, {0: 0.0, 1: 0.0})
        assert out.data[2] == pytest.approx(0.5)

    def test_backward_stencil_arithmetic(self, single_edge):
        g = mn.build_grid(single_edge, 0.5)
        f = mn.GridField(g, np.zeros(g.n_flat))
        f.data[0] = 2.0
        f.data[1] = 2.0
        out = step(f, 0.25 * 0.5**2, {0: 2.0, 1: 2.0})
        assert out.data[2] == pytest.approx(1.0)

    def test_constants_are_steady_under_pure_flux_balance(self, three_star):
        g = mn.build_grid(three_star, 0.25)
        f = mn.GridField(g, np.full(g.n_flat, 3.7))
        out = step(f, 0.25 * g.min_h**2, {})
        np.testing.assert_allclose(out.data, 3.7, rtol=1e-15)

    def test_cfl_violation_raises(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        with pytest.raises(CflViolation):
            StepOperator(g, (single_edge.exit_vertex,), 0.6 * g.min_h**2)


class TestAnalyticDecay:
    """Separable solution oracle: on [0,1] with both ends held at zero,
    sin(pi x) decays by exactly exp(-pi^2 t)."""

    def exact(self, x, t):
        return np.exp(-np.pi**2 * t) * np.sin(np.pi * x)

    def test_forward_sweep_matches(self, single_edge):
        g = mn.build_grid(single_edge, 0.02)
        tg = mn.build_time_grid(0.1, g.min_h, 0.25)
        x = g.positions[:, 0]
        m0 = mn.GridField(g, np.sin(np.pi * x))
        phi0 = mn.GridField(g, np.ones(g.n_flat))
        sweep = solve_forward_psi(g, tg, m0, phi0, extra_dirichlet=[(1, 0.0)])
        err = np.abs(sweep.terminal.data - self.exact(x, 0.1)).max()
        assert err < 4e-4

    def test_second_order_in_space(self, single_edge):
        errs = []
        for h in (0.02, 0.01):
            g = mn.build_grid(single_edge, h)
            tg = mn.build_time_grid(0.1, g.min_h, 0.25)
            x = g.positions[:, 0]
            sweep = solve_forward_psi(
                g, tg, mn.GridField(g, np.sin(np.pi * x)),
                mn.GridField(g, np.ones(g.n_flat)), extra_dirichlet=[(1, 0.0)])
            errs.append(np.abs(sweep.terminal.data - self.exact(x, 0.1)).max())
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_repeated_single_steps_match_sweep(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        tg = mn.build_time_grid(0.05, g.min_h, 0.25)
        x = g.positions[:, 0]
        f = mn.GridField(g, np.sin(np.pi * x))
        for _ in range(tg.n_steps):
            f = step(f, tg.dt, {0: 0.0, 1: 0.0})
        sweep = solve_forward_psi(
            g, tg, mn.GridField(g, np.sin(np.pi * x)),
            mn.GridField(g, np.ones(g.n_flat)), extra_dirichlet=[(1, 0.0)])
        np.testing.assert_allclose(f.data, sweep.terminal.data, atol=1e-15)


class TestBackwardSweep:
    def test_zero_cost_gives_unit_field(self, three_star):
        g = mn.build_grid(three_star, 0.2)
        tg = mn.build_time_grid(1.0, g.min_h, 0.25)
        sweep = solve_backward_phi(g, tg, lambda s: np.zeros_like(s),
                                   snapshot_levels=every_level(tg))
        np.testing.assert_allclose(sweep.initial.data, 1.0, rtol=1e-14)
        assert level_states(sweep).min() == pytest.approx(1.0)

    def test_exit_datum_imposed_exactly(self, three_star):
        g = mn.build_grid(three_star, 0.2)
        tg = mn.build_time_grid(1.0, g.min_h, 0.25)
        c = lambda s: 0.1 * np.maximum(s - 0.5, 0) + 0.1 * np.maximum(0.8 - s, 0)
        sweep = solve_backward_phi(g, tg, c, snapshot_levels={0, tg.n_steps // 2})
        np.testing.assert_array_equal(sweep.exit_values, np.exp(c(tg.times)))
        mid = tg.n_steps // 2
        assert sweep.snapshots[mid].data[0] == np.exp(c(tg.times[mid]))

    def test_min_principle_randomized(self, three_star):
        g = mn.build_grid(three_star, 0.2)
        tg = mn.build_time_grid(0.8, g.min_h, 0.25)
        rng = np.random.default_rng(7)
        for _ in range(5):
            knots = np.sort(rng.uniform(0, 0.8, 3))
            vals = rng.uniform(0.2, 3.0, 3)
            c = lambda s: np.log(np.interp(s, knots, vals))
            sweep = solve_backward_phi(g, tg, c, snapshot_levels=every_level(tg))
            assert level_states(sweep).min() >= vals.min() - 1e-12


class TestForwardSweep:
    def test_zero_density_stays_zero(self, three_star):
        g = mn.build_grid(three_star, 0.2)
        tg = mn.build_time_grid(0.5, g.min_h, 0.25)
        phi0 = mn.GridField(g, np.ones(g.n_flat))
        sweep = solve_forward_psi(g, tg, mn.GridField(g, np.zeros(g.n_flat)), phi0,
                                  snapshot_levels=every_level(tg))
        assert level_states(sweep).min() == 0.0
        np.testing.assert_array_equal(sweep.terminal.data, 0.0)

    def test_nonnegativity_preserved(self, three_star):
        g = mn.build_grid(three_star, 0.2)
        tg = mn.build_time_grid(1.0, g.min_h, 0.25)
        rng = np.random.default_rng(3)
        m0 = mn.GridField(g, rng.uniform(0, 1, g.n_flat))
        phi0 = mn.GridField(g, np.ones(g.n_flat))
        sweep = solve_forward_psi(g, tg, m0, phi0, snapshot_levels=every_level(tg))
        assert level_states(sweep).min() >= -1e-14

    def test_nonpositive_phi_rejected(self, three_star):
        g = mn.build_grid(three_star, 0.2)
        tg = mn.build_time_grid(0.5, g.min_h, 0.25)
        bad = mn.GridField(g, np.ones(g.n_flat))
        bad.data[3] = 0.0
        with pytest.raises(NonpositivePhi):
            solve_forward_psi(g, tg, mn.GridField(g, np.zeros(g.n_flat)), bad)

    def test_exit_adjacent_trace_recorded(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        tg = mn.build_time_grid(0.2, g.min_h, 0.25)
        m0 = mn.sample_function(g, lambda p: p[:, 0])
        phi0 = mn.GridField(g, np.ones(g.n_flat))
        sweep = solve_forward_psi(g, tg, m0, phi0, snapshot_levels=every_level(tg))
        adj = g.exit_adjacent_index
        np.testing.assert_array_equal(sweep.exit_adjacent, level_states(sweep)[:, adj])


class TestConservation:
    def test_reflecting_star_conserves_mass(self, three_star):
        """With no pinned vertex the flux balance is exactly conservative on
        the interior sums (once the vertex values satisfy it, i.e. after the
        first step); full quadrature mass drifts only through the h-weighted
        vertex slots, which are bounded by the vertex value swing."""
        g = mn.build_grid(three_star, 0.1)
        dt = 0.25 * g.min_h**2
        f = mn.sample_function(
            g, lambda p: np.exp(-8 * ((p[:, 0] + 0.2) ** 2 + p[:, 1] ** 2)))
        start = mn.integrate(f)

        def interior_mass(fld):
            return sum(g.h[j] * fld.data[edge_slots(g, j)[1:-1]].sum() for j in range(3))

        f = step(f, dt, {})
        ref = interior_mass(f)
        worst_total = 0.0
        for _ in range(400):
            f = step(f, dt, {})
            worst_total = max(worst_total, abs(mn.integrate(f) - start))
        assert interior_mass(f) == pytest.approx(ref, abs=1e-12)
        # vertex slots carry weight O(h), so the total drifts by O(h)
        assert worst_total <= 2.0 * g.min_h * start

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgnet as mn
from mfgnet import mfg
from mfgnet.errors import NonpositivePhi
from mfgnet.heat import solve_backward_phi, solve_forward_psi
from mfgnet.mfg import (
    CostSpec,
    cost,
    cumulative_flow,
    discretize,
    drift_from_matrix,
    fixed_point,
    psi_map,
    quorum_time,
    recover_um,
    residual_mass_error,
)

from conftest import SweptEvaluator, every_level, level_states


EX1_COST = CostSpec(t0=0.5, t_max=10.0, c1=0.1, c2=0.0, c3=0.1)


class TestCost:
    def test_zero_at_coincident_times(self):
        assert cost(0.5, 0.5, EX1_COST) == 0.0

    def test_waiting_branch(self):
        # s=0.3 before the start T=5: only waiting cost 0.1*(5-0.3)
        assert cost(0.3, 5.0, EX1_COST) == pytest.approx(0.47)

    def test_lateness_branch(self):
        # s=6 after T=5: only scheduled-lateness 0.1*(6-0.5)
        assert cost(6.0, 5.0, EX1_COST) == pytest.approx(0.55)

    def test_vectorized(self):
        out = cost(np.array([0.3, 6.0]), 5.0, EX1_COST)
        np.testing.assert_allclose(out, [0.47, 0.55])

    def test_nonnegative_everywhere(self):
        s = np.linspace(0, 10, 101)
        assert (cost(s, 3.3, EX1_COST) >= 0).all()

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            CostSpec(t0=5.0, t_max=1.0, c1=0.1)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            CostSpec(t0=0.0, t_max=1.0, c1=-0.1)

    @pytest.mark.parametrize("kwargs", [
        {"t0": 0.5, "t_max": 10.0, "c1": float("nan")},
        {"t0": 0.5, "t_max": 10.0, "c1": 0.1, "c2": float("nan")},
        {"t0": 0.5, "t_max": 10.0, "c1": 0.1, "c3": float("nan")},
        {"t0": 0.5, "t_max": float("inf"), "c1": 1.0},
        {"t0": float("nan"), "t_max": 10.0, "c1": 1.0},
        {"t0": 0.5, "t_max": float("nan"), "c1": 1.0},
    ], ids=["c1_nan", "c2_nan", "c3_nan", "t_max_inf", "t0_nan", "t_max_nan"])
    def test_nonfinite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CostSpec(**kwargs)


class TestCumulativeFlow:
    def test_zero_density_zero_flow(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        tg = mn.build_time_grid(1.0, 0.1, 0.25)
        trace = np.zeros(tg.n_steps + 1)
        F = cumulative_flow(trace, np.exp(np.zeros(tg.n_steps + 1)), g, tg)
        assert (F == 0).all()

    def test_single_term_hand_value(self, single_edge):
        # dt=0.01, h0=0.1, c(0)=0.5, psi=0.2: F(t0) = 0.1*e^0.5*0.2
        g = mn.build_grid(single_edge, 0.1)
        tg = mn.TimeGrid(dt=0.01, n_steps=1, t_max=0.01)
        trace = np.array([0.2, 0.0])
        F = cumulative_flow(trace, np.exp(np.full(tg.n_steps + 1, 0.5)), g, tg)
        assert F[0] == pytest.approx(0.03297442541400256)

    def test_nondecreasing_for_nonnegative_density(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        tg = mn.build_time_grid(1.0, 0.1, 0.25)
        rng = np.random.default_rng(0)
        trace = rng.uniform(0, 1, tg.n_steps + 1)
        F = cumulative_flow(trace, np.exp(np.sin(tg.times)), g, tg)
        assert (np.diff(F) >= 0).all()


class TestQuorum:
    tg = mn.TimeGrid(dt=0.5, n_steps=20, t_max=10.0)

    def test_interior_crossing(self):
        F = np.where(self.tg.times >= 3.0, 0.6, 0.1)
        assert quorum_time(F, 0.5, 0.5, 10.0, self.tg) == 3.0

    def test_clamps_to_schedule(self):
        F = np.full(21, 0.9)
        F[0] = 0.0
        assert quorum_time(F, 0.5, 0.75, 10.0, self.tg) == 0.75

    def test_no_crossing_returns_horizon(self):
        F = np.linspace(0, 0.4, 21)
        assert quorum_time(F, 0.5, 0.5, 10.0, self.tg) == 10.0

    def test_strict_inequality(self):
        # F == theta exactly does not trigger the quorum
        F = np.concatenate([np.full(10, 0.5), np.full(11, 0.7)])
        assert quorum_time(F, 0.5, 0.0, 10.0, self.tg) == 5.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_monotone_in_theta(self, th1, th2):
        rng = np.random.default_rng(12)
        F = np.cumsum(rng.uniform(0, 0.01, 21))
        lo, hi = sorted([th1, th2])
        assert (quorum_time(F, lo, 0.5, 10.0, self.tg)
                <= quorum_time(F, hi, 0.5, 10.0, self.tg))


class TestRecoverUM:
    def test_unit_phi(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        phi = mn.GridField(g, np.ones(g.n_flat))
        psi = mn.GridField(g, np.linspace(0, 1, g.n_flat))
        u, m = recover_um(phi, psi)
        assert (u.data == 0).all()
        np.testing.assert_array_equal(m.data, psi.data)

    def test_constant_e(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        u, m = recover_um(mn.GridField(g, np.full(g.n_flat, np.e)),
                          mn.GridField(g, np.zeros(g.n_flat)))
        np.testing.assert_allclose(u.data, 1.0, rtol=1e-15)
        assert (m.data == 0).all()

    def test_round_trip_identity(self, single_edge):
        g = mn.build_grid(single_edge, 0.05)
        rng = np.random.default_rng(5)
        phi = mn.GridField(g, rng.uniform(0.5, 3.0, g.n_flat))
        psi = mn.GridField(g, rng.uniform(0.0, 2.0, g.n_flat))
        u, m = recover_um(phi, psi)
        assert np.abs(np.exp(u.data) * psi.data - m.data).max() <= 1e-14

    def test_nonpositive_phi_rejected(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        bad = mn.GridField(g, np.zeros(g.n_flat))
        with pytest.raises(NonpositivePhi):
            recover_um(bad, bad)


class TestResidualMass:
    def test_exact_balance(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        m = mn.GridField(g, np.full(g.n_flat, 0.5))
        m.data[0] = 0.5  # uniform 0.5 integrates to 0.5 on unit length
        assert residual_mass_error(m, 0.5) == pytest.approx(0.0, abs=1e-14)


class TestDrift:
    def test_constant_field_no_drift(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        d = drift_from_matrix(g, np.full((1, g.n_flat), 2.0))
        assert (d.values == 0).all()

    def test_linear_field_unit_drift(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        u = mn.sample_function(g, lambda p: p[:, 0])
        d = drift_from_matrix(g, np.stack([u.data]))
        np.testing.assert_allclose(d.values[0], -1.0)

    def test_centered_difference_exact_for_quadratic(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        u = mn.sample_function(g, lambda p: p[:, 0] ** 2)
        d = drift_from_matrix(g, np.stack([u.data]))
        nodes = d.values[0]  # edge 0's nodes, tail to head
        # interior node at x=0.5 is slot k=5; derivative of x^2 there is 1
        assert nodes[5] == pytest.approx(-1.0)

    @staticmethod
    def row_at(d, t):
        """The row a particle step at time t reads: step 1 of dt_mc = t."""
        return d.step_rows(t, 1, 2)[0]

    def test_interpolation_between_nodes(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        u = mn.sample_function(g, lambda p: p[:, 0])
        d = drift_from_matrix(g, np.stack([k * u.data for k in (1, 2, 3, 4)]), dt=0.1)
        vals = d.eval(d.values[0], np.array([0.1, 0.6]), *d.edge_table[:, [0, 0]])
        np.testing.assert_allclose(vals, -1.0)
        np.testing.assert_allclose(self.row_at(d, 0.25), -3.0)  # level 2
        np.testing.assert_allclose(self.row_at(d, 9.9), -4.0)  # clamped to the last level

    def test_rows_at_chosen_levels(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        u = mn.sample_function(g, lambda p: p[:, 0])
        d = drift_from_matrix(g, np.stack([u.data, 2 * u.data, 3 * u.data]), dt=0.1,
                              levels=[0, 4, 7])
        rows = [self.row_at(d, t) for t in (0.0, 0.45, 0.75, 9.9)]
        np.testing.assert_allclose(rows, np.repeat([-1.0, -2.0, -3.0, -3.0], len(rows[0]))
                                   .reshape(4, -1))
        with pytest.raises(KeyError):
            self.row_at(d, 0.25)

    def test_step_rows_one_per_step(self, single_edge):
        """Each particle step reads level int(step * dt_mc / dt), clamped to
        the last level, whether its row is asked alone or with others."""
        g = mn.build_grid(single_edge, 0.25)
        u = mn.sample_function(g, lambda p: p[:, 0])
        d = drift_from_matrix(g, np.stack([k * u.data for k in range(1, 8)]), dt=0.1)
        for dt_mc in (0.03, 0.1, 0.3):
            rows = d.step_rows(dt_mc, 0, 40)
            levels = [min(int(k * dt_mc / 0.1), 6) for k in range(40)]
            np.testing.assert_array_equal(rows, d.values[levels])
            np.testing.assert_array_equal(d.step_rows(dt_mc, 7, 19), rows[7:19])


def desk_problem(h=0.05, theta=0.5):
    topo = mn.build_network([(0, (0.0, 0.0)), (1, (1.0, 0.0))], [(0, 0, 1, 1.0)], 0)
    hat = lambda p: np.maximum(1 - np.abs(p[:, 0] - 0.5) / 0.5, 0.0)
    return mn.ProblemSpec(topology=topo, cost=EX1_COST, theta=theta, m0=hat,
                          h_target=h, t_init=10.0)


class TestPsiMap:
    def test_range_and_clamping(self):
        spec = desk_problem()
        prob = discretize(spec)
        for T in (0.5, 3.0, 10.0):
            res = psi_map(T, prob)
            assert spec.cost.t0 <= res.t_star <= spec.cost.t_max

    def test_tiny_theta_clamps_to_schedule(self):
        spec = desk_problem(theta=0.01)
        res = psi_map(5.0, discretize(spec))
        assert res.t_star == spec.cost.t0

    def test_huge_theta_returns_horizon(self):
        spec = desk_problem(theta=0.999)
        res = psi_map(5.0, discretize(spec))
        assert res.t_star == spec.cost.t_max

    def test_input_outside_window_rejected(self):
        spec = desk_problem()
        with pytest.raises(ValueError):
            psi_map(11.0, discretize(spec))

    def test_refinement_concordance(self):
        """Oracle: the same pipeline at 4x finer resolution; the crossing
        time of the coarse run must agree with it closely."""
        coarse = psi_map(5.0, discretize(desk_problem(h=0.1)))
        fine = psi_map(5.0, discretize(desk_problem(h=0.025)))
        assert coarse.t_star == pytest.approx(fine.t_star, abs=0.05)

    def test_f_series_nondecreasing(self):
        res = psi_map(5.0, discretize(desk_problem()))
        assert (np.diff(res.f_series) >= -1e-15).all()

    def test_exit_edge_orientation_irrelevant(self):
        """Reversing the exit edge's parametrization flips which node is
        exit-adjacent; the arrival flow must not change."""
        hat = lambda p: np.maximum(1 - np.abs(p[:, 0] - 0.5) / 0.5, 0.0)
        results = []
        for tail, head in ((0, 1), (1, 0)):
            topo = mn.build_network(
                [(0, (0.0, 0.0)), (1, (1.0, 0.0))], [(0, tail, head, 1.0)], 0)
            spec = mn.ProblemSpec(topology=topo, cost=EX1_COST, theta=0.5,
                                  m0=hat, h_target=0.05, t_init=10.0)
            results.append(psi_map(5.0, discretize(spec)))
        np.testing.assert_allclose(results[0].f_series, results[1].f_series,
                                   rtol=1e-10, atol=1e-12)
        assert results[0].t_star == results[1].t_star


class TestFixedPoint:
    def test_constant_map_converges_in_two_iterations(self):
        # mass next to the exit reaches the quorum before the scheduled
        # time for every candidate, so the map is constantly t0
        topo = mn.build_network([(0, (0.0, 0.0)), (1, (1.0, 0.0))], [(0, 0, 1, 1.0)], 0)
        near = lambda p: np.maximum(1 - np.abs(p[:, 0] - 0.15) / 0.15, 0.0)
        spec = mn.ProblemSpec(topology=topo, cost=EX1_COST, theta=0.3, m0=near,
                              h_target=0.05, t_init=10.0)
        res = fixed_point(spec)
        assert res.converged
        assert res.t_star == spec.cost.t0
        assert res.iterations == 2
        assert res.iterates == [0.5, 0.5]

    def test_iterates_stay_in_window(self):
        res = fixed_point(desk_problem())
        assert all(0.5 <= t <= 10.0 for t in res.iterates)
        assert res.converged

    def test_exit_value_round_trip(self):
        """u at the exit equals the arrival cost of the reported time, to
        the accuracy of ln(exp(.))."""
        res = fixed_point(desk_problem())
        u0 = res.fields["u"][0]
        expected = cost(0.0, res.t_star, EX1_COST)
        assert abs(u0.data[0] - expected) <= 1e-14

    def test_minimum_principles_hold(self):
        """On the reference sweeps of the equilibrium's captured candidate."""
        problem = discretize(desk_problem())
        res = fixed_point(problem)
        grid, tg = problem.grid, problem.time_grid
        c_T = lambda s: cost(s, res.map.t_input, problem.spec.cost)  # noqa: E731
        phi = solve_backward_phi(grid, tg, c_T, snapshot_levels=every_level(tg))
        psi = solve_forward_psi(grid, tg, problem.m0, phi.initial,
                                snapshot_levels=every_level(tg))
        assert level_states(phi).min() >= 1.0 - 1e-12
        assert level_states(psi).min() >= -1e-14

    def test_equilibrium_level_matches_t_star(self):
        res = fixed_point(desk_problem())
        assert res.equilibrium_level == res.time_grid.level_of(res.t_star)

    def test_snapshot_levels_recorded(self):
        res = fixed_point(desk_problem(), snapshot_levels={10})
        for name in ("phi", "psi", "u", "m"):
            assert 10 in res.fields[name]
            assert 0 in res.fields[name]


    @pytest.mark.parametrize("move", [-100.0, 100.0])
    @pytest.mark.parametrize("path", ["modal", "lanczos", "sweep"])
    def test_cost_shift_leaves_the_equilibrium(self, monkeypatch, path, move):
        """Moving the C of phi's exit series exp(c - C) scales phi and psi
        only: F, T*, m and u stay, on each evaluator and on the reference
        sweeps."""
        if path == "lanczos":
            monkeypatch.setattr(mfg, "modal_pays", lambda *a: False)
        if path == "sweep":
            monkeypatch.setattr(mfg, "_evaluator", SweptEvaluator)
        ref = fixed_point(desk_problem())
        shift = mfg._cost_shift
        monkeypatch.setattr(mfg, "_cost_shift", lambda c: shift(c) + move)
        problem = discretize(desk_problem())
        res = fixed_point(problem)
        assert type(problem.evaluator).__name__ == {
            "modal": "ModalStep", "lanczos": "LanczosStep", "sweep": "NoneType"}[path]
        assert res.map.cost_shift == ref.map.cost_shift + move
        assert res.iterates == ref.iterates and res.t_star == ref.t_star
        np.testing.assert_allclose(res.map.f_series, ref.map.f_series, rtol=0, atol=1e-12)
        for name in ("m", "u"):
            for n, field in ref.fields[name].items():
                np.testing.assert_allclose(res.fields[name][n].data, field.data,
                                           rtol=0, atol=1e-12)

class TestExitFluxIdentity:
    def test_cost_weight_equals_boundary_value(self):
        """The arrival-flow weight exp(c_T) is exactly the pinned exit value
        of the backward sweep, so the product-rule exit flux of m = phi*psi
        equals the cost-weighted flux of psi at machine precision."""
        res = fixed_point(desk_problem())
        h0 = res.grid.exit_h
        dpsi = res.map.psi_exit_adjacent / h0  # psi(exit) == 0
        weights = np.exp(cost(res.times, res.t_star, EX1_COST))
        flux_psi = weights * dpsi
        flux_m = res.map.exit_series * dpsi  # + psi(exit)*dphi, which is 0
        scale = np.maximum(np.abs(flux_psi), 1e-30)
        # the capture pass solved with the converged candidate, so the
        # cost weights recomputed at t_star match the stored exit values
        assert (np.abs(flux_m - flux_psi) / scale).max() <= 1e-10

    def test_raw_difference_flux_agrees_to_first_order(self):
        """One-sided difference of the m-field itself differs from the
        product-rule flux by O(h): the gap is phi one node in, vs at the
        exit."""
        gaps = []
        for h in (0.1, 0.05):
            res = fixed_point(desk_problem(h=h))
            c_T = lambda s: cost(s, res.map.t_input, EX1_COST)  # noqa: E731
            phi_adjacent = solve_backward_phi(res.grid, res.time_grid, c_T).exit_adjacent
            raw = phi_adjacent * res.map.psi_exit_adjacent / res.grid.exit_h
            prod = res.map.exit_series * res.map.psi_exit_adjacent / res.grid.exit_h
            denom = max(np.abs(prod).max(), 1e-30)
            gaps.append(np.abs(raw - prod).max() / denom)
        assert gaps[1] < gaps[0]
        assert gaps[0] < 0.1


def test_example2_reaches_marginal_quorum(example2_config):
    """The reconstructed 17-vertex street grid sits in the same regime as
    the reported experiment: the quorum is only marginally reached near the
    horizon. Under this approximate geometry the arrived fraction stays just
    below theta, so the start time clamps to the horizon."""
    res = fixed_point(example2_config.spec)
    assert res.converged
    assert res.t_star == example2_config.spec.cost.t_max
    assert 0.66 <= res.map.f_series[-1] <= 0.70
    assert res.residual_mass <= 2e-2
    assert (np.diff(res.map.f_series) >= -1e-12).all()


def test_theta_bounds_enforced():
    topo = mn.build_network([(0, (0.0, 0.0)), (1, (1.0, 0.0))], [(0, 0, 1, 1.0)], 0)
    with pytest.raises(ValueError):
        mn.ProblemSpec(topology=topo, cost=EX1_COST, theta=1.2,
                       m0=lambda p: np.ones(len(p)), h_target=0.1)

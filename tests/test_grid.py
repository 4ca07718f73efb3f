import numpy as np
import pytest

import mfgnet as mn
from mfgnet.errors import StepTooCoarse, StepTooFine, ZeroMass
from mfgnet.grid import TabulatedDensity


def line(length):
    return mn.build_network([(0, (0.0, 0.0)), (1, (length, 0.0))], [(0, 0, 1, length)], 0)


class TestBuildGrid:
    def test_even_division(self):
        g = mn.build_grid(line(1.0), 0.1)
        assert g.n_cells[0] == 10
        assert g.h[0] == pytest.approx(0.1)

    def test_rounding(self):
        g = mn.build_grid(line(1.0), 0.3)
        assert g.n_cells[0] == 3
        assert g.h[0] == pytest.approx(1 / 3)

    def test_minimum_two_cells(self):
        g = mn.build_grid(line(0.15), 0.1)
        assert g.n_cells[0] == 2
        assert g.h[0] == pytest.approx(0.075)

    def test_step_coarser_than_shortest_edge(self):
        with pytest.raises(StepTooCoarse):
            mn.build_grid(line(0.15), 0.2)

    def test_step_too_fine_for_the_memory_bound(self):
        mn.build_grid(line(1.0), 1e-5)  # 100 000 nodes
        for h in (1e-9, 1e-320):  # the second gives an infinite cell count
            with pytest.raises(StepTooFine, match="grid nodes"):
                mn.build_grid(line(1.0), h)

    def test_node_positions_follow_the_chord(self):
        topo = mn.build_network([(0, (0, 0)), (1, (2, 0))], [(0, 0, 1, 2.0)], 0)
        g = mn.build_grid(topo, 0.5)
        np.testing.assert_allclose(g.positions[g.islice(0)][:, 0], [0.5, 1.0, 1.5])


class TestTimeGrid:
    def test_paper_step_choice(self):
        tg = mn.build_time_grid(10.0, 0.1, 0.25)
        assert tg.dt == pytest.approx(2.5e-3)
        assert tg.n_steps == 4000

    def test_small_case(self):
        tg = mn.build_time_grid(1.0, 1.0, 0.25)
        assert tg.dt == pytest.approx(0.25)
        assert tg.n_steps == 4

    def test_ceiling_rule(self):
        # dt0 = 0.25*0.07^2 = 1.225e-3; 10/dt0 = 8163.3 -> 8164 steps
        tg = mn.build_time_grid(10.0, 0.07, 0.25)
        assert tg.n_steps == 8164
        assert tg.dt == pytest.approx(10.0 / 8164)

    def test_times_within_the_memory_bound(self):
        assert len(mn.TimeGrid(dt=1.0, n_steps=10**6, t_max=1e6).times) == 10**6 + 1
        with pytest.raises(StepTooFine, match="time levels"):
            mn.TimeGrid(dt=1e-9, n_steps=10**9, t_max=1.0).times

    def test_step_never_exceeds_cfl_target(self):
        for t_max, h, f in [(10, 0.1, 0.25), (3.7, 0.13, 0.4), (1, 0.07, 0.2)]:
            tg = mn.build_time_grid(t_max, h, f)
            assert tg.dt <= f * h * h * (1 + 1e-12)
            assert tg.n_steps * tg.dt == pytest.approx(t_max, abs=1e-12)

    def test_times_cover_horizon(self):
        tg = mn.build_time_grid(2.0, 0.2, 0.25)
        assert len(tg.times) == tg.n_steps + 1
        assert tg.times[-1] == pytest.approx(2.0, abs=1e-12)
        assert tg.level_of(2.0) == tg.n_steps
        assert tg.level_of(0.0) == 0


class TestSamplingAndQuadrature:
    def test_constant_samples_everywhere(self, three_star):
        g = mn.build_grid(three_star, 0.25)
        f = mn.sample_function(g, lambda p: np.ones(len(p)))
        assert (f.data == 1.0).all()

    def test_integrate_constant_is_total_length(self, three_star):
        g = mn.build_grid(three_star, 0.25)
        f = mn.sample_function(g, lambda p: np.full(len(p), 2.5))
        assert mn.integrate(g, f) == pytest.approx(2.5 * 3.0)

    def test_integrate_single_edge_unit(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        f = mn.sample_function(g, lambda p: np.ones(len(p)))
        assert mn.integrate(g, f) == pytest.approx(1.0)

    def test_edge_values_respects_shared_vertices(self, three_star):
        g = mn.build_grid(three_star, 0.5)
        f = g.zeros()
        f.vertex_values[1] = 7.0
        for j in (0, 1, 2):
            vals = f.edge_values(j)
            # center (vertex 1) is the tail of every edge in this fixture
            assert vals[0] == 7.0


class TestNormalizeMass:
    def test_constant_density(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        raw = mn.sample_function(g, lambda p: np.full(len(p), 2.0))
        with pytest.warns(UserWarning):
            m0 = mn.normalize_mass(g, raw)
        inner = np.delete(m0.data, single_edge.exit_vertex)
        np.testing.assert_allclose(inner, 1.0)
        assert m0.data[single_edge.exit_vertex] == 0.0

    def test_zero_mass_rejected(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        with pytest.raises(ZeroMass):
            mn.normalize_mass(g, g.zeros())

    def test_negative_density_rejected(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        raw = mn.sample_function(g, lambda p: p[:, 0] - 0.5)
        with pytest.raises(ValueError):
            mn.normalize_mass(g, raw)

    def test_reintegrates_to_one(self, example1_config):
        topo = example1_config.spec.topology
        g = mn.build_grid(topo, 0.05)
        raw = mn.sample_function(g, lambda p: np.linalg.norm(p, axis=1))
        m0 = mn.normalize_mass(g, raw)
        # the exit sits at the origin, so zeroing it costs no mass
        assert mn.integrate(g, m0) == pytest.approx(1.0, abs=1e-12)

    def test_warns_when_exit_density_projected(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        raw = mn.sample_function(g, lambda p: np.full(len(p), 2.0))
        with pytest.warns(UserWarning, match="exit vertex"):
            mn.normalize_mass(g, raw)

    def test_projection_perturbs_mass_by_cell_weight(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        raw = mn.sample_function(g, lambda p: np.full(len(p), 1.0))
        with pytest.warns(UserWarning):
            m0 = mn.normalize_mass(g, raw)
        # exit tail slot carried h * normalized value
        assert mn.integrate(g, m0) == pytest.approx(1.0 - 0.1, abs=1e-12)


class TestTabulatedDensity:
    def test_linear_interpolation(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        d = TabulatedDensity({0: (np.array([0.0, 1.0]), np.array([0.0, 4.0]))})
        f = mn.sample_density(g, d)
        np.testing.assert_allclose(f.interior(0), [1.0, 2.0, 3.0])
        assert f.data[0] == 0.0
        assert f.data[1] == 4.0

    def test_missing_edges_are_zero(self, three_star):
        g = mn.build_grid(three_star, 0.5)
        d = TabulatedDensity({1: (np.array([0.0, 1.0]), np.array([2.0, 2.0]))})
        f = mn.sample_density(g, d)
        assert (f.interior(0) == 0).all()
        assert (f.interior(1) == 2.0).all()


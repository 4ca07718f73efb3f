import math

import numpy as np
import pytest

import mfgnet as mn
from mfgnet.cli import _field_layout
from mfgnet.errors import StepTooCoarse, StepTooFine, ZeroMass
from mfgnet.grid import TabulatedDensity
from mfgnet.heat import StepOperator
from mfgnet.mfg import _derivative_plan
from mfgnet.montecarlo import sample_initial_positions

from conftest import edge_rows, edge_slots, random_tree_network


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
        np.testing.assert_allclose(g.positions[edge_slots(g, 0)[1:-1]][:, 0], [0.5, 1.0, 1.5])


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
        assert mn.integrate(f) == pytest.approx(2.5 * 3.0)

    def test_integrate_single_edge_unit(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        f = mn.sample_function(g, lambda p: np.ones(len(p)))
        assert mn.integrate(f) == pytest.approx(1.0)

    def test_edge_values_respects_shared_vertices(self, three_star):
        g = mn.build_grid(three_star, 0.5)
        data = np.zeros(g.n_flat)
        data[1] = 7.0
        for j in (0, 1, 2):
            # center (vertex 1) is the tail of every edge in this fixture
            assert data[edge_slots(g, j)][0] == 7.0


class TestNormalizeMass:
    def test_constant_density(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        raw = mn.sample_function(g, lambda p: np.full(len(p), 2.0))
        with pytest.warns(UserWarning):
            m0 = mn.normalize_mass(raw)
        inner = np.delete(m0.data, single_edge.exit_vertex)
        np.testing.assert_allclose(inner, 1.0)
        assert m0.data[single_edge.exit_vertex] == 0.0

    def test_zero_mass_rejected(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        with pytest.raises(ZeroMass):
            mn.normalize_mass(mn.GridField(g, np.zeros(g.n_flat)))

    def test_negative_density_rejected(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        raw = mn.sample_function(g, lambda p: p[:, 0] - 0.5)
        with pytest.raises(ValueError):
            mn.normalize_mass(raw)

    def test_reintegrates_to_one(self, example1_config):
        topo = example1_config.spec.topology
        g = mn.build_grid(topo, 0.05)
        raw = mn.sample_function(g, lambda p: np.linalg.norm(p, axis=1))
        m0 = mn.normalize_mass(raw)
        # the exit sits at the origin, so zeroing it costs no mass
        assert mn.integrate(m0) == pytest.approx(1.0, abs=1e-12)

    def test_warns_when_exit_density_projected(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        raw = mn.sample_function(g, lambda p: np.full(len(p), 2.0))
        with pytest.warns(UserWarning, match="exit vertex"):
            mn.normalize_mass(raw)

    def test_projection_perturbs_mass_by_cell_weight(self, single_edge):
        g = mn.build_grid(single_edge, 0.1)
        raw = mn.sample_function(g, lambda p: np.full(len(p), 1.0))
        with pytest.warns(UserWarning):
            m0 = mn.normalize_mass(raw)
        # exit tail slot carried h * normalized value
        assert mn.integrate(m0) == pytest.approx(1.0 - 0.1, abs=1e-12)


class TestTabulatedDensity:
    def test_linear_interpolation(self, single_edge):
        g = mn.build_grid(single_edge, 0.25)
        d = TabulatedDensity({0: (np.array([0.0, 1.0]), np.array([0.0, 4.0]))})
        f = mn.sample_density(g, d)
        np.testing.assert_allclose(f.data[edge_slots(g, 0)[1:-1]], [1.0, 2.0, 3.0])
        assert f.data[0] == 0.0
        assert f.data[1] == 4.0

    def test_missing_edges_are_zero(self, three_star):
        g = mn.build_grid(three_star, 0.5)
        d = TabulatedDensity({1: (np.array([0.0, 1.0]), np.array([2.0, 2.0]))})
        f = mn.sample_density(g, d)
        assert (f.data[edge_slots(g, 0)[1:-1]] == 0).all()
        assert (f.data[edge_slots(g, 1)[1:-1]] == 2.0).all()



# The index plans as they were first written, one Python loop per edge or
# per vertex; the array-built plans must equal them bit for bit.

def _loop_interior(grid, edge_id):
    """Flat slice of one edge's interior nodes: after the vertices, edge by edge."""
    start = grid.n_vertices + sum(int(c) - 1 for c in grid.n_cells[:edge_id])
    return slice(start, start + int(grid.n_cells[edge_id]) - 1)


def _loop_edge_nodes(grid):
    nodes = []
    for e in edge_rows(grid.topology):
        sl = _loop_interior(grid, e.id)
        nodes.extend([e.tail, *range(sl.start, sl.stop), e.head])
    return np.array(nodes)


def _loop_positions(grid):
    pos = grid.topology.positions
    coords = np.empty((grid.n_flat, 2))
    coords[: grid.n_vertices] = pos
    for e in edge_rows(grid.topology):
        a, b = pos[e.tail], pos[e.head]
        frac = np.arange(1, grid.n_cells[e.id])[:, None] / grid.n_cells[e.id]
        coords[_loop_interior(grid, e.id)] = a + frac * (b - a)
    return coords


def _loop_quad_weights(grid):
    w = np.zeros(grid.n_flat)
    for e in edge_rows(grid.topology):
        w[e.tail] += grid.h[e.id]
        w[_loop_interior(grid, e.id)] = grid.h[e.id]
    return w


def _loop_incident(topo):
    """Per vertex, the ids of its edges in id order."""
    incident = [[] for _ in range(topo.n_vertices)]
    for e in edge_rows(topo):
        incident[e.tail].append(e.id)
        incident[e.head].append(e.id)
    return incident


def _loop_adjacent(grid, edge_id, vertex_id):
    e = edge_rows(grid.topology)[edge_id]
    sl = _loop_interior(grid, edge_id)
    return sl.start if vertex_id == e.tail else sl.stop - 1


def _loop_step_plan(grid, pinned, dt):
    nv, topo = grid.n_vertices, grid.topology
    first, last, inv_h2 = [], [], np.empty(grid.n_flat - nv)
    for e in edge_rows(topo):
        sl = _loop_interior(grid, e.id)
        first.append(sl.start - nv)
        last.append(sl.stop - 1 - nv)
        inv_h2[sl.start - nv: sl.stop - nv] = 1.0 / grid.h[e.id] ** 2
    free = [v for v in range(topo.n_vertices) if v not in set(pinned)]
    incident = _loop_incident(topo)
    adj, w, starts, total = [], [], [], []
    for vid in free:
        starts.append(len(adj))
        weights = [1.0 / grid.h[j] for j in incident[vid]]
        adj.extend(_loop_adjacent(grid, j, vid) for j in incident[vid])
        w.extend(weights)
        total.append(float(sum(weights)))
    total = np.array(total)
    return {
        "edge_first": np.array(first), "edge_last": np.array(last),
        "edge_tails": np.array([e.tail for e in edge_rows(topo)]),
        "edge_heads": np.array([e.head for e in edge_rows(topo)]),
        "inv_h2": inv_h2, "lam": dt * inv_h2, "free_vertices": np.array(free, dtype=int),
        "adj_nodes": np.array(adj, dtype=int), "adj_weights": np.array(w),
        "seg_starts": np.array(starts, dtype=int), "total_weight": total,
        "inv_total_weight": 1.0 / total,
    }


def _loop_derivative_plan(grid):
    left, right, inv_den = [], [], []
    for e in edge_rows(grid.topology):
        sl = _loop_interior(grid, e.id)
        ns = [e.tail, *range(sl.start, sl.stop), e.head]
        h = grid.h[e.id]
        left.extend([ns[0], *ns[:-2], ns[-2]])
        right.extend([ns[1], *ns[2:], ns[-1]])
        inv_den.extend([1.0 / h, *([1.0 / (2 * h)] * (len(ns) - 2)), 1.0 / h])
    return np.array(left), np.array(right), np.array(inv_den)


def _loop_field_rows(grid):
    pos = grid.topology.positions
    rows = []
    for e in edge_rows(grid.topology):
        a, b = pos[e.tail], pos[e.head]
        n = grid.n_cells[e.id]
        coords = a + (np.arange(n + 1) / n)[:, None] * (b - a)
        rows.extend(f"{e.id},{k},{x!r},{y!r}" for k, (x, y) in enumerate(coords.tolist()))
    return rows


def _loop_sample_initial_positions(grid, m0, n, rng):
    weights, ends, cell_edge, cell_k = [], [], [], []
    for e in edge_rows(grid.topology):
        sl = _loop_interior(grid, e.id)
        vals = np.concatenate(([m0.data[e.tail]], m0.data[sl], [m0.data[e.head]]))
        weights.append((vals[:-1] + vals[1:]) * grid.h[e.id])
        ends.extend(zip(vals[:-1].tolist(), vals[1:].tolist()))
        cell_edge.append(np.full(len(vals) - 1, e.id))
        cell_k.append(np.arange(len(vals) - 1))
    w = np.concatenate(weights)
    cum = np.cumsum(w) / w.sum()
    cell = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(w) - 1)
    s = []
    for c, u in zip(cell.tolist(), rng.random(n).tolist()):
        # a s + (b - a) s^2 / 2 = u (a + b) / 2, solved for s in [0, 1]
        a, b = ends[c]
        den = math.sqrt((1.0 - u) * a * a + u * b * b) + a
        s.append(u * (a + b) / den if den > 0.0 else 0.0)
    edges = np.concatenate(cell_edge)[cell]
    return edges, (np.concatenate(cell_k)[cell] + np.array(s)) * grid.h[edges]


def _loop_tabulated(density, grid):
    out, vertex_hits = np.zeros(grid.n_flat), np.zeros(grid.n_vertices)
    for e in edge_rows(grid.topology):
        if e.id in density.tables:
            xs, vs = density.tables[e.id]
            nodes = np.arange(grid.n_cells[e.id] + 1) * grid.h[e.id]
            vals = np.interp(nodes, xs, vs, left=vs[0], right=vs[-1])
            out[_loop_interior(grid, e.id)] = vals[1:-1]
            vertex_hits[e.tail] = max(vertex_hits[e.tail], vals[0])
            vertex_hits[e.head] = max(vertex_hits[e.head], vals[-1])
    out[: grid.n_vertices] = vertex_hits
    return out


def _assert_same(got, want, name=""):
    """Equal values and dtypes, floats to the bit (so -0.0 is not 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, name
    assert got.dtype == want.dtype or not want.size, name
    if want.dtype.kind == "f":
        got, want = got.view(np.uint64), want.view(np.uint64)
    np.testing.assert_array_equal(got, want, err_msg=name)


def _layout_cases(star):
    """The three-edge star, and random trees with 0 to 25 chords (so
    multi-edges and vertices of degree up to 25), each at two steps."""
    cases = [(star, 0.1), (star, 0.3)]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        topo = random_tree_network(rng, int(rng.integers(0, 26)))
        min_len = topo.lengths.min()
        cases += [(topo, float(rng.uniform(0.03, 0.3)) * min_len) for _ in range(2)]
    return cases


class TestLayoutAgainstLoops:
    """The topology's arrays and the grid's edge-node layout, and every plan
    read from them, equal the per-edge and per-vertex loops they replace."""

    def test_every_plan_matches_its_loop(self, three_star):
        max_degree = 0
        for topo, h in _layout_cases(three_star):
            edges = edge_rows(topo)
            incident = _loop_incident(topo)
            assert topo.incident_edges.tolist() == [j for js in incident for j in js]
            assert np.diff(topo.incident_starts).tolist() == [len(js) for js in incident]
            max_degree = max(max_degree, *map(len, incident))

            grid = mn.build_grid(topo, h)
            _assert_same(grid.edge_nodes, _loop_edge_nodes(grid))
            _assert_same(grid.positions, _loop_positions(grid))
            _assert_same(grid.quad_weights, _loop_quad_weights(grid))
            assert grid.exit_adjacent_index == _loop_adjacent(
                grid, topo.exit_edge, topo.exit_vertex)

            rng = np.random.default_rng(len(edges))
            extra = tuple(int(v) for v in rng.permutation(topo.n_vertices)[:2]
                          if v != topo.exit_vertex)
            for pinned in ((topo.exit_vertex,), (), (topo.exit_vertex, *extra)):
                dt = 0.2 * float(grid.h.min()) ** 2
                op = StepOperator(grid, pinned, dt)
                for name, want in _loop_step_plan(grid, pinned, dt).items():
                    _assert_same(getattr(op, name), want, name)

            for got, want in zip(_derivative_plan(grid), _loop_derivative_plan(grid)):
                _assert_same(got, want)
            order, text = _field_layout(grid)
            _assert_same(order, _loop_edge_nodes(grid))
            assert "\n".join(text).split("\n") == _loop_field_rows(grid)

            m0 = mn.GridField(grid, rng.random(grid.n_flat))
            got = sample_initial_positions(m0, 500, np.random.default_rng(1))
            want = _loop_sample_initial_positions(grid, m0, 500, np.random.default_rng(1))
            for a, b in zip(got, want):
                _assert_same(a, b)

            # tables on some edges, with zeros of both signs at their ends
            tables = {}
            for j in rng.permutation(len(edges))[: max(1, len(edges) // 2)].tolist():
                xs = np.linspace(0.0, edges[j].length, 4)
                tables[j] = (xs, rng.choice([0.0, -0.0, 0.5, 1.0], size=4))
            density = TabulatedDensity(tables)
            _assert_same(density.sample(grid).data, _loop_tabulated(density, grid))
        assert max_degree >= 20  # high-degree vertices were exercised

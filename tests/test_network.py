import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgnet as mn
from mfgnet.errors import (
    DanglingEdgeEndpoint,
    DisconnectedGraph,
    ExitNotDegreeOne,
    NonfiniteChord,
    NonpositiveLength,
    SelfLoop,
)

from conftest import edge_rows, random_tree_network


def test_smallest_legal_network(single_edge):
    assert single_edge.incident_edges.tolist() == [0, 0]
    assert single_edge.incident_starts.tolist() == [0, 1, 2]
    assert single_edge.exit_edge == 0
    assert single_edge.lengths.tolist() == [1.0]


def test_arrays_follow_the_ids_not_the_input_order():
    """Shuffled inputs give the same arrays: edge j's fields at index j,
    vertex v's position at row v, incidences by vertex in edge-id order."""
    vertices = [(0, (1.0, 0.0)), (1, (0.0, 0.0)), (2, (-0.5, 0.9)), (3, (0.0, -2.0))]
    edges = [(0, 1, 0, 1.0), (1, 1, 2, 1.5), (2, 3, 1)]  # edge 2's length is its chord
    rng = np.random.default_rng(0)
    for _ in range(6):
        topo = mn.build_network([vertices[i] for i in rng.permutation(4)],
                                [edges[j] for j in rng.permutation(3)], 3)
        assert topo.positions.tolist() == [[1.0, 0.0], [0.0, 0.0], [-0.5, 0.9], [0.0, -2.0]]
        assert topo.tails.tolist() == [1, 1, 3]
        assert topo.heads.tolist() == [0, 2, 1]
        assert topo.lengths.tolist() == [1.0, 1.5, 2.0]
        assert topo.incident_edges.tolist() == [0, 0, 1, 2, 1, 2]
        assert topo.incident_starts.tolist() == [0, 1, 4, 5, 6]
        assert topo.exit_edge == 2
    names = ("positions", "tails", "heads", "lengths", "incident_edges", "incident_starts")
    for seed in range(10):
        rng = np.random.default_rng(seed)
        topo = random_tree_network(rng, int(rng.integers(0, 6)))
        vertices = list(enumerate(map(tuple, topo.positions.tolist())))
        edges = edge_rows(topo)
        again = mn.build_network([vertices[i] for i in rng.permutation(len(vertices))],
                                 [edges[j] for j in rng.permutation(len(edges))],
                                 topo.exit_vertex)
        for name in names:
            a, b = getattr(again, name), getattr(topo, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_arrays_are_read_only(three_star):
    for name in ("positions", "tails", "heads", "lengths", "incident_edges",
                 "incident_starts"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(three_star, name)[0] = 0
    assert three_star.positions.shape == (4, 2)


def test_networks_equal_only_themselves(single_edge):
    longer = mn.build_network([(0, (0.0, 0.0)), (1, (1.0, 0.0))], [(0, 0, 1, 2.0)], 0)
    assert single_edge == single_edge
    assert longer != single_edge


def test_example1_topology_valid(example1_config):
    topo = example1_config.spec.topology
    assert topo.n_vertices == 4
    assert topo.n_edges == 4
    assert np.diff(topo.incident_starts)[topo.exit_vertex] == 1


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        mn.build_network([(0, (0, 0)), (1, (1, 0))],
                         [(0, 0, 1, 1.0), (1, 1, 1, 1.0)], 0)


def test_nonpositive_length_rejected():
    with pytest.raises(NonpositiveLength):
        mn.build_network([(0, (0, 0)), (1, (1, 0))], [(0, 0, 1, 0.0)], 0)


def test_overflowing_chord_rejected():
    """Vertices too far apart for their chord, or its squared length when
    the length comes from it, to be a finite float are rejected before any
    numpy arithmetic warns; with an explicit length a finite chord is legal."""
    far = [(0, (1e308, 0.0)), (1, (-1e308, 0.0))]
    apart = [(0, (1e200, 0.0)), (1, (-1e200, 0.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vertices, edge in ((far, (0, 0, 1, 1.0)), (far, (0, 0, 1)), (apart, (0, 0, 1))):
            with pytest.raises(NonfiniteChord, match="edge 0"):
                mn.build_network(vertices, [edge], 0)
        grid = mn.build_grid(mn.build_network(apart, [(0, 0, 1, 1.0)], 0), 0.25)
    np.testing.assert_allclose(grid.positions[2:, 0], [5e199, 0.0, -5e199], atol=1e185)


def test_dangling_endpoint_rejected():
    with pytest.raises(DanglingEdgeEndpoint):
        mn.build_network([(0, (0, 0)), (1, (1, 0))], [(0, 0, 5, 1.0)], 0)


def test_exit_degree_enforced():
    with pytest.raises(ExitNotDegreeOne):
        mn.build_network(
            [(0, (0, 0)), (1, (1, 0)), (2, (2, 0))],
            [(0, 0, 1, 1.0), (1, 0, 2, 1.0)], 0)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        mn.build_network(
            [(0, (0, 0)), (1, (1, 0)), (2, (5, 0)), (3, (6, 0))],
            [(0, 0, 1, 1.0), (1, 2, 3, 1.0)], 0)


def test_length_defaults_to_euclidean():
    topo = mn.build_network([(0, (0, 0)), (1, (3, 4))], [(0, 0, 1, None)], 0)
    assert topo.lengths[0] == pytest.approx(5.0)


def test_incidence_signs(single_edge):
    # the parametrization starts at the tail and ends at the head
    assert (single_edge.tails[0], single_edge.heads[0]) == (0, 1)
    topo = mn.build_network(
        [(0, (0, 0)), (1, (1, 0)), (2, (2, 0))],
        [(0, 0, 1, 1.0), (1, 1, 2, 1.0)], 0)
    assert 0 not in (topo.tails[1], topo.heads[1])
    assert _vertex_edges(topo, 1) == [0, 1]


def _vertex_edges(topo, v):
    return topo.incident_edges[topo.incident_starts[v]: topo.incident_starts[v + 1]].tolist()


def test_classify_single_edge(single_edge):
    # boundary vertices are the degree-1 ones; here there is no transition vertex
    assert np.diff(single_edge.incident_starts).tolist() == [1, 1]


def test_classify_three_star(three_star):
    assert np.diff(three_star.incident_starts).tolist() == [1, 3, 1, 1]


def test_classify_example2_partition(example2_config):
    topo = example2_config.spec.topology
    degree = np.diff(topo.incident_starts)
    assert len(degree) == 17 and degree.sum() == 2 * topo.n_edges
    assert degree[topo.exit_vertex] == 1


def test_example2_size(example2_config):
    topo = example2_config.spec.topology
    assert (topo.n_vertices, topo.n_edges) == (17, 22)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_incidence_matrix_properties(seed, extra):
    topo = random_tree_network(np.random.default_rng(seed), extra)
    n_v, n_e = topo.n_vertices, topo.n_edges
    # the signed incidence matrix from the CSR table: +1 where an edge
    # starts at the vertex, -1 where it ends there
    signs = np.zeros((n_v, n_e), dtype=int)
    for v in range(n_v):
        for j in _vertex_edges(topo, v):
            signs[v, j] = 1 if topo.tails[j] == v else -1
            assert v in (topo.tails[j], topo.heads[j])
    # every edge contributes exactly one +1 and one -1
    assert (signs.sum(axis=0) == 0).all()
    assert (np.abs(signs).sum(axis=0) == 2).all()
    # degrees match nonzero counts, exit has degree 1
    degrees = np.abs(signs).sum(axis=1)
    np.testing.assert_array_equal(degrees, np.diff(topo.incident_starts))
    assert degrees[topo.exit_vertex] == 1

from importlib import resources
from typing import NamedTuple

import numpy as np
import pytest

import mfgnet as mn


def bundled_text(name: str) -> str:
    return (resources.files("mfgnet") / "data" / name).read_text()


@pytest.fixture(scope="session")
def single_edge():
    """Unit edge from the exit at the origin to a reflecting far end."""
    return mn.build_network([(0, (0.0, 0.0)), (1, (1.0, 0.0))], [(0, 0, 1, 1.0)], 0)


@pytest.fixture(scope="session")
def three_star():
    """Three unit edges meeting at a center, exit at one leaf."""
    return mn.build_network(
        [(0, (1.0, 0.0)), (1, (0.0, 0.0)), (2, (-0.5, 0.9)), (3, (-0.5, -0.9))],
        [(0, 1, 0, 1.0), (1, 1, 2, 1.0), (2, 1, 3, 1.0)],
        0)


@pytest.fixture(scope="session")
def example1_config():
    return mn.parse_config(bundled_text("example1.json"))


@pytest.fixture(scope="session")
def example2_config():
    return mn.parse_config(bundled_text("example2.json"))


@pytest.fixture(scope="session")
def desk_config():
    return mn.parse_config(bundled_text("desk.json"))


def random_tree_network(rng: np.random.Generator, n_extra_edges: int = 0):
    """Random connected topology: a spanning tree plus optional chords,
    with the exit attached as a fresh leaf so its degree is always 1."""
    n = int(rng.integers(2, 7))
    pts = rng.uniform(-2, 2, size=(n, 2))
    vertices = [(i, tuple(pts[i])) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((len(edges), j, i, float(rng.uniform(0.5, 2.0))))
    for _ in range(n_extra_edges):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((len(edges), int(i), int(j), float(rng.uniform(0.5, 2.0))))
    # fresh leaf -> exit
    exit_id = n
    vertices.append((exit_id, tuple(rng.uniform(-2, 2, size=2))))
    hub = int(rng.integers(0, n))
    edges.append((len(edges), exit_id, hub, float(rng.uniform(0.5, 2.0))))
    return mn.build_network(vertices, edges, exit_id)


class EdgeRow(NamedTuple):
    id: int
    tail: int
    head: int
    length: float


def edge_rows(topo) -> list[EdgeRow]:
    """The topology's edges in id order, read from ``tails``, ``heads`` and
    ``lengths``: the edge list the tests' reference loops walk."""
    return [EdgeRow(j, *row) for j, row in enumerate(
        zip(topo.tails.tolist(), topo.heads.tolist(), topo.lengths.tolist()))]


def edge_slots(grid, edge_id: int) -> np.ndarray:
    """The flat indices of one edge's nodes k = 0..n_cells, tail to head,
    from the grid's ``edge_nodes``; ``[1:-1]`` are its interior nodes."""
    return grid.edge_nodes[grid.edge_starts[edge_id]: grid.edge_starts[edge_id + 1]]


def every_level(time_grid) -> range:
    """Every level of a time grid, as snapshot levels."""
    return range(time_grid.n_steps + 1)


def level_states(sweep) -> np.ndarray:
    """A sweep's snapshot states in level order, one row each."""
    return np.stack([sweep.snapshots[n].data for n in sorted(sweep.snapshots)])


class SweptEvaluator:
    """The three evaluations of ``mfg``'s evaluators, ``map``,
    ``phi_levels`` and ``psi_levels``, each one run of the public reference
    sweeps: patched in as ``mfg._evaluator``, it runs whole maps and fixed
    points on the sweeps."""

    def __init__(self, problem):
        self.grid, self.time_grid, self.m0 = problem.grid, problem.time_grid, problem.m0

    def map(self, exit_series):
        phi = mn.solve_backward_phi(self.grid, self.time_grid, exit_series)
        psi = mn.solve_forward_psi(self.grid, self.time_grid, self.m0, phi.initial)
        return psi.initial.data, psi.exit_adjacent

    def phi_levels(self, exit_series, levels):
        phi = mn.solve_backward_phi(self.grid, self.time_grid, exit_series,
                                    snapshot_levels=levels)
        return np.array([phi.snapshots[n].data for n in levels])

    def psi_levels(self, psi0, levels):
        # psi0 over a phi0 of ones is psi0 itself, to the last bit
        ones = mn.GridField(self.grid, np.ones(self.grid.n_flat))
        psi = mn.solve_forward_psi(self.grid, self.time_grid, mn.GridField(self.grid, psi0),
                                   ones, snapshot_levels=levels)
        return np.array([psi.snapshots[n].data for n in levels])

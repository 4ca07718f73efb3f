"""Discretization of the network and quadrature over it.

Node layout: one shared value per vertex plus per-edge interior nodes.
A field is stored as a single flat vector ``[vertex values | interior
values]`` with the interior of edge j occupying a contiguous segment; the
tail/head slots of an edge are *views* onto the vertex entries, so the
continuity conditions across vertices are structural rather than stored
twice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StepTooCoarse, ZeroMass
from .network import NetworkTopology

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "GridField",
    "TabulatedDensity",
    "build_grid",
    "build_time_grid",
    "sample_function",
    "sample_density",
    "integrate",
    "normalize_mass",
    "field_to_csv",
]


class SpatialGrid:
    """Uniform per-edge partition of a network.

    Edge j is split into ``n_cells[j]`` cells of width ``h[j]``; interior
    nodes are k = 1..n_cells[j]-1, with k = 0 and k = n_cells[j] identified
    with the tail/head vertices.
    """

    def __init__(self, topology: NetworkTopology, n_cells: np.ndarray):
        self.topology = topology
        self.n_cells = np.asarray(n_cells, dtype=int)
        lengths = np.array([e.length for e in topology.edges])
        self.h = lengths / self.n_cells

        nv = topology.n_vertices
        self.n_vertices = nv
        counts = self.n_cells - 1  # interior nodes per edge
        self.interior_offsets = nv + np.concatenate([[0], np.cumsum(counts)])
        self.n_flat = int(self.interior_offsets[-1])

        # node coordinates (vertex slots first, then interiors edge by edge)
        pos = topology.positions()
        coords = np.empty((self.n_flat, 2))
        coords[:nv] = pos
        for e in topology.edges:
            a, b = pos[e.tail], pos[e.head]
            frac = np.arange(1, self.n_cells[e.id])[:, None] / self.n_cells[e.id]
            coords[self.islice(e.id)] = a + frac * (b - a)
        self.positions = coords

        # left-endpoint rectangle weights: each of the cells k=0..n_cells-1
        # contributes h * value(node k); the tail vertex owns the k=0 cell.
        w = np.empty(self.n_flat)
        w[:nv] = 0.0
        for e in topology.edges:
            w[e.tail] += self.h[e.id]
            w[self.islice(e.id)] = self.h[e.id]
        self.quad_weights = w

    def islice(self, edge_id: int) -> slice:
        """Flat slice holding the interior nodes of one edge."""
        return slice(self.interior_offsets[edge_id], self.interior_offsets[edge_id + 1])

    def adjacent_interior_index(self, edge_id: int, vertex_id: int) -> int:
        """Flat index of the interior node next to ``vertex_id`` along ``edge_id``."""
        e = self.topology.edges[edge_id]
        if vertex_id == e.tail:
            return int(self.interior_offsets[edge_id])
        if vertex_id == e.head:
            return int(self.interior_offsets[edge_id + 1] - 1)
        raise ValueError(f"vertex {vertex_id} is not an endpoint of edge {edge_id}")

    @property
    def exit_adjacent_index(self) -> int:
        """Flat index of the first interior node on the exit side of the exit edge."""
        e = self.topology.exit_edge
        return self.adjacent_interior_index(e.id, self.topology.exit_vertex)

    @property
    def exit_h(self) -> float:
        """Spatial step of the exit edge."""
        return float(self.h[self.topology.exit_edge.id])

    @property
    def min_h(self) -> float:
        return float(self.h.min())

    def zeros(self) -> "GridField":
        return GridField(self, np.zeros(self.n_flat))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_n = n*dt with n_steps*dt == t_max."""

    dt: float
    n_steps: int
    t_max: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def level_of(self, t: float) -> int:
        """Nearest grid level to a time in [0, t_max]."""
        return min(max(int(round(t / self.dt)), 0), self.n_steps)


class GridField:
    """One scalar per grid node at a single time level.

    ``data`` is the flat vector described in the module docstring. Value
    semantics: copy before handing to code that mutates.
    """

    __slots__ = ("grid", "data", "time_label")

    def __init__(self, grid: SpatialGrid, data: np.ndarray, time_label: float | None = None):
        if data.shape != (grid.n_flat,):
            raise ValueError(f"expected {grid.n_flat} values, got {data.shape}")
        self.grid = grid
        self.data = data
        self.time_label = time_label

    @property
    def vertex_values(self) -> np.ndarray:
        return self.data[: self.grid.n_vertices]

    def interior(self, edge_id: int) -> np.ndarray:
        return self.data[self.grid.islice(edge_id)]

    def edge_values(self, edge_id: int) -> np.ndarray:
        """All node values along one edge, tail to head (length n_cells+1)."""
        e = self.grid.topology.edges[edge_id]
        return np.concatenate(([self.data[e.tail]], self.interior(edge_id), [self.data[e.head]]))

    def copy(self) -> "GridField":
        return GridField(self.grid, self.data.copy(), self.time_label)


def build_grid(topology: NetworkTopology, h_target: float) -> SpatialGrid:
    """Partition every edge with cells of width as close to ``h_target`` as
    the edge length allows (at least two cells per edge).

    Raises StepTooCoarse when ``h_target`` exceeds the shortest edge.
    """
    if not h_target > 0:
        raise StepTooCoarse(f"h_target must be positive, got {h_target}")
    min_len = min(e.length for e in topology.edges)
    if h_target > min_len:
        raise StepTooCoarse(
            f"h_target={h_target} exceeds the shortest edge length {min_len}")
    n_cells = np.array([max(2, round(e.length / h_target)) for e in topology.edges])
    return SpatialGrid(topology, n_cells)


def build_time_grid(t_max: float, h_min: float, cfl_factor: float = 0.25) -> TimeGrid:
    """Time step dt = cfl_factor*h_min^2, then shrunk so that an integer
    number of steps lands exactly on t_max (the stability bound still holds).
    """
    if not 0 < cfl_factor < 1:
        raise ValueError(f"cfl_factor must lie in (0, 1), got {cfl_factor}")
    dt0 = cfl_factor * h_min * h_min
    n = max(1, math.ceil(t_max / dt0))
    return TimeGrid(dt=t_max / n, n_steps=n, t_max=t_max)


def sample_function(grid: SpatialGrid, f) -> GridField:
    """Evaluate ``f`` at every node. ``f`` maps an (n, 2) array of ambient
    coordinates to n values."""
    values = np.asarray(f(grid.positions), dtype=float)
    return GridField(grid, values.reshape(grid.n_flat).copy())


@dataclass(frozen=True)
class TabulatedDensity:
    """Density given by per-edge (arclength, value) tables, linearly
    interpolated along each edge; edges without a table get zero."""

    tables: dict[int, tuple[np.ndarray, np.ndarray]]

    def sample(self, grid: SpatialGrid) -> GridField:
        out = np.zeros(grid.n_flat)
        vertex_hits = np.zeros(grid.n_vertices)
        for e in grid.topology.edges:
            tab = self.tables.get(e.id)
            if tab is None:
                continue
            xs, vs = tab
            nodes = np.arange(grid.n_cells[e.id] + 1) * grid.h[e.id]
            vals = np.interp(nodes, xs, vs, left=vs[0], right=vs[-1])
            out[grid.islice(e.id)] = vals[1:-1]
            # vertices shared between tabulated edges: keep the max so a
            # vertex is never assigned less than any incident table says
            vertex_hits[e.tail] = max(vertex_hits[e.tail], vals[0])
            vertex_hits[e.head] = max(vertex_hits[e.head], vals[-1])
        out[: grid.n_vertices] = vertex_hits
        return GridField(grid, out)


def sample_density(grid: SpatialGrid, density) -> GridField:
    """Sample either a callable of ambient position or a TabulatedDensity."""
    if isinstance(density, TabulatedDensity):
        return density.sample(grid)
    return sample_function(grid, density)


def integrate(grid: SpatialGrid, field: GridField) -> float:
    """Left-endpoint rectangle rule over the whole network.

    Each edge sums h_j * value over nodes k = 0..n_cells-1, so a vertex
    value is counted once per incident edge whose tail it is.
    """
    return float(grid.quad_weights @ field.data)


def normalize_mass(grid: SpatialGrid, g: GridField) -> GridField:
    """Rescale a nonnegative field to unit mass and clear its exit value.

    The model requires zero initial density at the exit; a nonzero sampled
    value there is projected to zero (with a warning when it is not already
    negligible), which perturbs the unit mass by O(h * g(exit)).
    """
    if g.data.min() < 0:
        raise ValueError(f"density must be nonnegative, min value {g.data.min()}")
    total = integrate(grid, g)
    if total <= 0:
        raise ZeroMass("density integrates to zero")
    out = g.data / total
    exit_id = grid.topology.exit_vertex
    if abs(out[exit_id]) > 1e-8:
        warnings.warn(
            f"initial density is {out[exit_id]:.3g} at the exit vertex; "
            "projecting to zero", stacklevel=2)
    out[exit_id] = 0.0
    return GridField(grid, out)


def field_to_csv(field: GridField, path) -> None:
    """Write a field as rows (edge_id, k, x_coord_1, x_coord_2, value),
    k running 0..n_cells along each edge (vertex slots included)."""
    grid = field.grid
    with open(path, "w") as fh:
        fh.write("edge_id,k,x_coord_1,x_coord_2,value\n")
        for e in grid.topology.edges:
            vals = field.edge_values(e.id)
            a = np.asarray(grid.topology.vertices[e.tail].position)
            b = np.asarray(grid.topology.vertices[e.head].position)
            for k, v in enumerate(vals):
                frac = k / grid.n_cells[e.id]
                x = a + frac * (b - a)
                fh.write(f"{e.id},{k},{float(x[0])!r},{float(x[1])!r},{float(v)!r}\n")

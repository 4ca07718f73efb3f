"""Discretization of the network and quadrature over it.

Node layout: one shared value per vertex plus per-edge interior nodes.
A field (``GridField``) is its grid and one flat vector ``[vertex values |
interior values]``, with the interior of edge j occupying a contiguous
segment. An edge's tail and head slots hold the flat indices of its
vertices, so continuity across a vertex is structural rather than stored
twice. Every module reads an edge's nodes from ``SpatialGrid.edge_nodes``
(the flat index of each, tail to head, cut at ``edge_starts``), the graph
from the ``NetworkTopology`` arrays, and a field's grid from the field.
This module formats no text: the CLI writes fields as CSV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StepTooCoarse, StepTooFine, ValidationError, ZeroMass
from .network import NetworkTopology

__all__ = [
    "MEMORY_LIMIT",
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
]


# Bytes a grid may ask for. A solve holds about seven float arrays of one
# value per time level (the times, phi's exit series, F, psi's exit trace
# and their temporaries: 7.0 per level measured on example1 and desk) and
# a few of one value per node (positions, weights, the sweep's buffers and
# the written fields); each count below is rounded up.
MEMORY_LIMIT = 2 * 1024**3
_FLOATS_PER_LEVEL = 8
_FLOATS_PER_NODE = 8


class SpatialGrid:
    """Uniform per-edge partition of a network.

    Edge j is split into ``n_cells[j]`` cells of width ``h[j]``; interior
    nodes are k = 1..n_cells[j]-1, with k = 0 and k = n_cells[j] identified
    with the tail/head vertices.
    Slot ``edge_starts[j] + k`` of ``edge_nodes`` holds the flat index of
    node k = 0..n_cells[j] of edge j.
    """

    def __init__(self, topology: NetworkTopology, n_cells: np.ndarray):
        self.topology = topology
        self.n_cells = np.asarray(n_cells, dtype=int)
        self.h = topology.lengths / self.n_cells

        nv = topology.n_vertices
        self.n_vertices = nv
        counts = self.n_cells - 1  # interior nodes per edge
        self.n_flat = nv + int(counts.sum())

        # every earlier edge has two vertex slots in the layout that the
        # interior numbering skips, so slot s of edge j is node s + nv - 1 - 2j
        self.edge_starts = np.concatenate([[0], np.cumsum(self.n_cells + 1)])
        self.edge_nodes = np.arange(self.edge_starts[-1]) + (nv - 1)
        self.edge_nodes -= np.repeat(2 * np.arange(topology.n_edges), self.n_cells + 1)
        self.edge_nodes[self.edge_starts[:-1]] = topology.tails
        self.edge_nodes[self.edge_starts[1:] - 1] = topology.heads

        # node coordinates: the vertices', then interior node i's, on its edge
        # j at the layout's slot i - nv + 1 + 2j
        self.positions = np.empty((self.n_flat, 2))
        self.positions[:nv] = topology.positions
        edge = np.repeat(np.arange(topology.n_edges), counts)
        k = np.arange(1, self.n_flat - nv + 1) + 2 * edge - self.edge_starts[edge]
        self.positions[nv:] = self.edge_points(edge, k)

        # left-endpoint rectangle weights: each of the cells k=0..n_cells-1
        # contributes h * value(node k); the tail vertex owns the k=0 cell.
        self.quad_weights = np.empty(self.n_flat)
        self.quad_weights[:nv] = np.bincount(topology.tails, weights=self.h, minlength=nv)
        self.quad_weights[nv:] = np.repeat(self.h, counts)

    def edge_points(self, edge_ids: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Ambient coordinates of node ``k`` of each edge in ``edge_ids``, on
        the chord from its tail to its head, one row each."""
        a = self.positions[self.topology.tails[edge_ids]]
        b = self.positions[self.topology.heads[edge_ids]]
        return a + (k / self.n_cells[edge_ids])[:, None] * (b - a)

    @property
    def exit_adjacent_index(self) -> int:
        """Flat index of the first interior node on the exit side of the exit edge."""
        j = self.topology.exit_edge
        k = 1 if self.topology.tails[j] == self.topology.exit_vertex else self.n_cells[j] - 1
        return int(self.edge_nodes[self.edge_starts[j] + k])

    @property
    def exit_h(self) -> float:
        """Spatial step of the exit edge."""
        return float(self.h[self.topology.exit_edge])

    @property
    def min_h(self) -> float:
        return float(self.h.min())


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_n = n*dt with n_steps*dt == t_max."""

    dt: float
    n_steps: int
    t_max: float

    @property
    def times(self) -> np.ndarray:
        """The time of each level. Every array a solve holds per level
        starts here, so this raises StepTooFine, before allocating, when
        they would need more than MEMORY_LIMIT."""
        _check_levels(self.n_steps, self.dt, self.t_max)
        return np.arange(self.n_steps + 1) * self.dt

    def level_of(self, t: float) -> int:
        """Nearest grid level to a time in [0, t_max]."""
        return min(max(int(round(t / self.dt)), 0), self.n_steps)


@dataclass(eq=False)
class GridField:
    """One scalar per grid node at a single time level: the grid and its
    flat ``data`` vector, described in the module docstring."""

    grid: SpatialGrid
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.grid.n_flat,):
            raise ValueError(f"expected {self.grid.n_flat} values, got {self.data.shape}")


def build_grid(topology: NetworkTopology, h_target: float) -> SpatialGrid:
    """Partition every edge with cells of width as close to ``h_target`` as
    the edge length allows (at least two cells per edge).

    Raises StepTooCoarse when ``h_target`` exceeds the shortest edge, and
    StepTooFine, before allocating, when the grid's nodes would need more
    than MEMORY_LIMIT.
    """
    if not h_target > 0:
        raise StepTooCoarse(f"h_target must be positive, got {h_target}")
    # in Python floats, so the memory guard's arithmetic cannot warn
    lengths = topology.lengths.tolist()
    min_len = min(lengths)
    if h_target > min_len:
        raise StepTooCoarse(
            f"h_target={h_target} exceeds the shortest edge length {min_len}")
    cells = [max(2.0, length / h_target) for length in lengths]
    n_flat = topology.n_vertices + sum(cells) - len(cells)
    if not 8 * _FLOATS_PER_NODE * n_flat <= MEMORY_LIMIT:
        raise StepTooFine(
            f"h_target={h_target} needs about {n_flat:.3g} grid nodes, more than the "
            f"{MEMORY_LIMIT / 1024**3:g} GiB memory bound allows; raise numerics.h_target "
            "(--h)")
    return SpatialGrid(topology, np.array([round(c) for c in cells]))


def _check_levels(n_steps, dt: float, t_max: float) -> None:
    """StepTooFine if n_steps + 1 levels (n_steps may be inf) overrun MEMORY_LIMIT."""
    max_levels = MEMORY_LIMIT // (8 * _FLOATS_PER_LEVEL)
    if not n_steps < max_levels:
        raise StepTooFine(
            f"dt={dt:.3g} needs {n_steps + 1:.10g} time levels up to "
            f"t_max={t_max:g}, more than the {max_levels} that the "
            f"{MEMORY_LIMIT / 1024**3:g} GiB memory bound allows; raise numerics.h_target (--h)")


def build_time_grid(t_max: float, h_min: float, cfl_factor: float = 0.25) -> TimeGrid:
    """Time step dt = cfl_factor*h_min^2, then shrunk so that an integer
    number of steps lands exactly on t_max (the stability bound still holds).
    """
    if not 0 < cfl_factor < 1:
        raise ValueError(f"cfl_factor must lie in (0, 1), got {cfl_factor}")
    dt0 = cfl_factor * h_min * h_min
    steps = t_max / dt0
    if not math.isfinite(steps):  # too many to round up; times checks a finite count
        _check_levels(steps, dt0, t_max)
    n = max(1, math.ceil(steps))
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
        for j, (xs, vs) in sorted(self.tables.items()):
            nodes = grid.edge_nodes[grid.edge_starts[j]: grid.edge_starts[j + 1]]
            vals = np.interp(np.arange(len(nodes)) * grid.h[j], xs, vs, left=vs[0], right=vs[-1])
            out[nodes[1:-1]] = vals[1:-1]
            # a vertex shared by tabulated edges keeps the largest end value,
            # and of equal ones the first, as max does (0.0 over -0.0)
            ends, at_ends = nodes[[0, -1]], vals[[0, -1]]
            out[ends] = np.where(at_ends > out[ends], at_ends, out[ends])
        return GridField(grid, out)


def sample_density(grid: SpatialGrid, density) -> GridField:
    """Sample either a callable of ambient position or a TabulatedDensity.
    Raises ValidationError naming problem.m0 when a sampled value is not
    finite, as a density can be at coordinates near the float range's end."""
    with np.errstate(all="ignore"):
        fld = (density.sample(grid) if isinstance(density, TabulatedDensity)
               else sample_function(grid, density))
    bad = np.count_nonzero(~np.isfinite(fld.data))
    if bad:
        raise ValidationError("problem.m0", f"the density is not finite at {bad} of the "
                              f"{grid.n_flat} grid nodes")
    return fld


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of ``a * b`` over two vectors, by einsum rather than a BLAS
    dot: OpenBLAS splits a dot of more than 10 000 terms across its threads,
    and each thread count rounds the sum its own way."""
    return float(np.einsum("i,i->", a, b))


def integrate(field: GridField) -> float:
    """Left-endpoint rectangle rule over the field's network.

    Each edge sums h_j * value over nodes k = 0..n_cells-1, so a vertex
    value is counted once per incident edge whose tail it is.
    """
    return dot(field.grid.quad_weights, field.data)


def normalize_mass(g: GridField) -> GridField:
    """Rescale a nonnegative field to unit mass and clear its exit value.

    The model requires zero initial density at the exit; a nonzero sampled
    value there is projected to zero (with a warning when it is not already
    negligible), which perturbs the unit mass by O(h * g(exit)).
    """
    if g.data.min() < 0:
        raise ValueError(f"density must be nonnegative, min value {g.data.min()}")
    total = integrate(g)
    if total <= 0:
        raise ZeroMass("density integrates to zero")
    out = g.data / total
    exit_id = g.grid.topology.exit_vertex
    if abs(out[exit_id]) > 1e-8:
        warnings.warn(
            f"initial density is {out[exit_id]:.3g} at the exit vertex; "
            "projecting to zero", stacklevel=2)
    out[exit_id] = 0.0
    return GridField(g.grid, out)

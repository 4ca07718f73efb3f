"""Immutable metric-graph model: vertices joined by parametrized arcs.

Each edge is identified with the interval [0, length]; the parametrization
direction (tail -> head) gives the orientation used by the vertex
conditions. The exit vertex is the single absorbing boundary vertex; every
other vertex is treated as a transition vertex (a degree-1 non-exit vertex
is the degenerate, reflecting case of the same vertex condition).
A ``NetworkTopology`` is its read-only arrays (``positions``, ``tails``,
``heads``, ``lengths``, and the incidence table ``incident_edges`` cut at
``incident_starts``, so the degrees are ``np.diff(incident_starts)``);
every other module reads the graph from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DanglingEdgeEndpoint,
    DisconnectedGraph,
    ExitNotDegreeOne,
    NonfiniteChord,
    NonpositiveLength,
    SelfLoop,
)

__all__ = [
    "NetworkTopology",
    "build_network",
]


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Validated graph as read-only arrays: vertex v's ambient (2D)
    coordinates at ``positions[v]``, edge j's tail, head and length at index
    j of ``tails``, ``heads`` and ``lengths``, and the edges incident to
    vertex v, in id order, as
    ``incident_edges[incident_starts[v]:incident_starts[v + 1]]``.

    Positions are only used to evaluate ambient density functions and to
    label output; the PDE itself sees arc lengths only. An edge's arc-length
    coordinate runs from 0 at its tail to its length at its head.

    Immutable after construction; safe to share between threads. Two
    topologies are equal only when they are the same object.
    """

    exit_vertex: int
    positions: np.ndarray = field(repr=False)
    tails: np.ndarray = field(repr=False)
    heads: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    incident_edges: np.ndarray = field(repr=False)
    incident_starts: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    @property
    def n_edges(self) -> int:
        return len(self.lengths)

    @property
    def exit_edge(self) -> int:
        """The id of the unique edge incident to the exit vertex."""
        return int(self.incident_edges[self.incident_starts[self.exit_vertex]])


def build_network(vertices, edges, exit_vertex: int) -> NetworkTopology:
    """Validate and freeze a topology.

    ``vertices`` is a sequence of (id, position) pairs with dense ids
    0..n-1; ``edges`` a sequence of (id, tail, head, length) tuples, the
    length optional (or None) when vertex positions determine it.

    Raises DanglingEdgeEndpoint, SelfLoop, NonfiniteChord (vertices too far
    apart for floats), NonpositiveLength, ExitNotDegreeOne or
    DisconnectedGraph when the inputs do not describe a legal network.
    """
    verts = sorted(((int(v[0]), (float(v[1][0]), float(v[1][1]))) for v in vertices),
                   key=lambda v: v[0])
    if not verts or not edges:
        raise DanglingEdgeEndpoint("a network needs at least one vertex and one edge")
    ids = [i for i, _ in verts]
    if ids != list(range(len(verts))):
        raise DanglingEdgeEndpoint(f"vertex ids must be dense 0..{len(verts) - 1}, got {ids}")
    points = [p for _, p in verts]

    valid = range(len(verts))
    built = []
    for e in edges:
        eid, tail, head = int(e[0]), int(e[1]), int(e[2])
        length = float(e[3]) if len(e) > 3 and e[3] is not None else None
        if tail not in valid or head not in valid:
            raise DanglingEdgeEndpoint(f"edge {eid} references missing vertex {tail if tail not in valid else head}")
        if tail == head:
            raise SelfLoop(f"edge {eid} starts and ends at vertex {tail}")
        # in Python floats, so an overflow raises here and does not warn in
        # the grid's positions; a length taken from the chord squares it, and
        # halves are summed so that two finite ones cannot overflow
        (ax, ay), (bx, by) = points[tail], points[head]
        dx, dy = bx - ax, by - ay
        if not math.isfinite(dx * dx + dy * dy if length is None else 0.5 * dx + 0.5 * dy):
            raise NonfiniteChord(f"edge {eid}: vertices {tail} and {head} are too far apart for floats")
        if length is None:
            length = float(np.linalg.norm([dx, dy]))
        if not length > 0.0:
            raise NonpositiveLength(f"edge {eid} has length {length}")
        built.append((eid, tail, head, length))
    built.sort(key=lambda e: e[0])
    eids = [e[0] for e in built]
    if eids != list(range(len(built))):
        raise DanglingEdgeEndpoint(f"edge ids must be dense 0..{len(built) - 1}, got {eids}")

    nv = len(verts)
    _, tails, heads, lengths = (np.array(column) for column in zip(*built))
    # each edge is listed at its tail, then at its head: by vertex, in id order
    owner = np.column_stack([tails, heads]).ravel()
    order = np.argsort(owner, kind="stable")
    incident_edges = order // 2
    incident_starts = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=nv))])

    if not 0 <= exit_vertex < nv:
        raise DanglingEdgeEndpoint(f"exit vertex {exit_vertex} does not exist")
    exit_degree = int(incident_starts[exit_vertex + 1] - incident_starts[exit_vertex])
    if exit_degree != 1:
        raise ExitNotDegreeOne(f"exit vertex {exit_vertex} has degree {exit_degree}, expected 1")

    # connectivity by depth-first search from the exit: incidence i leads
    # from its vertex to far[i], the other end of its edge
    starts = incident_starts.tolist()
    far = (tails[incident_edges] + heads[incident_edges] - owner[order]).tolist()
    seen = [False] * nv
    seen[exit_vertex] = True
    stack = [exit_vertex]
    while stack:
        v = stack.pop()
        for w in far[starts[v]: starts[v + 1]]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        missing = [v for v in range(nv) if not seen[v]]
        raise DisconnectedGraph(f"vertices {missing} are not reachable from the exit")

    positions = np.array(points, dtype=float)
    for a in (positions, tails, heads, lengths, incident_edges, incident_starts):
        a.flags.writeable = False
    return NetworkTopology(
        exit_vertex=int(exit_vertex), positions=positions, tails=tails, heads=heads,
        lengths=lengths, incident_edges=incident_edges, incident_starts=incident_starts)

"""Immutable metric-graph model: vertices joined by parametrized arcs.

Each edge is identified with the interval [0, length]; the parametrization
direction (tail -> head) induces the signed incidence used by the vertex
conditions. The exit vertex is the single absorbing boundary vertex; every
other vertex is treated as a transition vertex (a degree-1 non-exit vertex
is the degenerate, reflecting case of the same vertex condition).
``NetworkTopology``'s arrays (``tails``, ``heads``, ``lengths``, and the
incidence table ``incident_edges`` cut at ``incident_starts``) are how
every other module reads the graph.
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
    "Vertex",
    "Edge",
    "NetworkTopology",
    "build_network",
    "incidence_sign",
    "classify_vertices",
]


@dataclass(frozen=True)
class Vertex:
    """A network node. The position is ambient (2D) and only used to
    evaluate ambient density functions and to label output; the PDE itself
    sees arc lengths only."""

    id: int
    position: tuple[float, float]


@dataclass(frozen=True)
class Edge:
    """An arc from ``tail`` to ``head`` with positive length.

    The arc-length coordinate runs 0 at the tail to ``length`` at the head.
    """

    id: int
    tail: int
    head: int
    length: float


@dataclass(frozen=True)
class NetworkTopology:
    """Validated graph with precomputed incidence tables: edge j's fields
    at index j of ``tails``, ``heads`` and ``lengths``, and the edges
    incident to vertex v, in id order, as
    ``incident_edges[incident_starts[v]:incident_starts[v + 1]]``.

    Immutable after construction (the arrays are read-only); safe to share
    between threads.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    exit_vertex: int
    tails: np.ndarray = field(repr=False, compare=False)
    heads: np.ndarray = field(repr=False, compare=False)
    lengths: np.ndarray = field(repr=False, compare=False)
    incident_edges: np.ndarray = field(repr=False, compare=False)
    incident_starts: np.ndarray = field(repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def exit_edge(self) -> Edge:
        """The unique edge incident to the exit vertex."""
        return self.edges[self.incident_edges[self.incident_starts[self.exit_vertex]]]

    def degree(self, vertex_id: int) -> int:
        return int(self.incident_starts[vertex_id + 1] - self.incident_starts[vertex_id])

    def positions(self) -> np.ndarray:
        """Vertex coordinates as an (n_vertices, 2) array."""
        return np.array([v.position for v in self.vertices], dtype=float)

    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))


def build_network(vertices, edges, exit_vertex: int) -> NetworkTopology:
    """Validate and freeze a topology.

    ``vertices`` is a sequence of Vertex (or (id, position) pairs) with dense
    ids 0..n-1; ``edges`` a sequence of Edge (or (id, tail, head, length)
    tuples, length optional when vertex positions determine it).

    Raises DanglingEdgeEndpoint, SelfLoop, NonfiniteChord (vertices too far
    apart for floats), NonpositiveLength, ExitNotDegreeOne or
    DisconnectedGraph when the inputs do not describe a legal network.
    """
    verts = [v if isinstance(v, Vertex) else Vertex(int(v[0]), (float(v[1][0]), float(v[1][1])))
             for v in vertices]
    if not verts or not edges:
        raise DanglingEdgeEndpoint("a network needs at least one vertex and one edge")
    verts.sort(key=lambda v: v.id)
    ids = [v.id for v in verts]
    if ids != list(range(len(verts))):
        raise DanglingEdgeEndpoint(f"vertex ids must be dense 0..{len(verts) - 1}, got {ids}")

    valid = range(len(verts))
    built: list[Edge] = []
    for e in edges:
        if isinstance(e, Edge):
            eid, tail, head, length = e.id, e.tail, e.head, e.length
        else:
            eid, tail, head = int(e[0]), int(e[1]), int(e[2])
            length = float(e[3]) if len(e) > 3 and e[3] is not None else None
        if tail not in valid or head not in valid:
            raise DanglingEdgeEndpoint(f"edge {eid} references missing vertex {tail if tail not in valid else head}")
        if tail == head:
            raise SelfLoop(f"edge {eid} starts and ends at vertex {tail}")
        # in Python floats, so an overflow raises here and does not warn in
        # the grid's positions; a length taken from the chord squares it, and
        # halves are summed so that two finite ones cannot overflow
        (ax, ay), (bx, by) = verts[tail].position, verts[head].position
        dx, dy = float(bx) - float(ax), float(by) - float(ay)
        if not math.isfinite(dx * dx + dy * dy if length is None else 0.5 * dx + 0.5 * dy):
            raise NonfiniteChord(f"edge {eid}: vertices {tail} and {head} are too far apart for floats")
        if length is None:
            length = float(np.linalg.norm([dx, dy]))
        if not length > 0.0:
            raise NonpositiveLength(f"edge {eid} has length {length}")
        built.append(Edge(eid, tail, head, float(length)))
    built.sort(key=lambda e: e.id)
    eids = [e.id for e in built]
    if eids != list(range(len(built))):
        raise DanglingEdgeEndpoint(f"edge ids must be dense 0..{len(built) - 1}, got {eids}")

    nv = len(verts)
    tails = np.array([e.tail for e in built])
    heads = np.array([e.head for e in built])
    lengths = np.array([e.length for e in built])
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

    for a in (tails, heads, lengths, incident_edges, incident_starts):
        a.flags.writeable = False
    return NetworkTopology(
        vertices=tuple(verts), edges=tuple(built), exit_vertex=int(exit_vertex),
        tails=tails, heads=heads, lengths=lengths, incident_edges=incident_edges,
        incident_starts=incident_starts)


def incidence_sign(topology: NetworkTopology, vertex_id: int, edge_id: int) -> int:
    """+1 if the edge starts at the vertex, -1 if it ends there, 0 otherwise."""
    return int(topology.tails[edge_id] == vertex_id) - int(topology.heads[edge_id] == vertex_id)


def classify_vertices(topology: NetworkTopology) -> tuple[set[int], set[int]]:
    """Split vertex ids into (boundary, transition) sets by degree.

    Boundary vertices are exactly the degree-1 ones; the exit vertex is
    always among them.
    """
    boundary = {v.id for v in topology.vertices if topology.degree(v.id) == 1}
    transition = {v.id for v in topology.vertices} - boundary
    return boundary, transition

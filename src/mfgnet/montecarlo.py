"""Particle simulation of the agent dynamics, used as an independent check
of the PDE pipeline.

Agents follow Euler-Maruyama steps along their current edge. When a step
carries an agent past a vertex, the leftover distance is re-emitted into an
edge drawn uniformly from the edges incident to that vertex (the arrival
edge included); with a single incident edge that reduces to specular
reflection. Reaching the exit vertex absorbs the agent; runs are censored
at the horizon. All agents advance in lockstep on one seeded generator, so
a run is reproducible bit for bit.

A step that starts and ends on the exit edge may still have crossed the
exit in between; ignoring that biases arrivals late by O(sqrt(dt)). Those
steps are absorbed with the Brownian-bridge crossing probability
exp(-2*d0*d1 / (sigma^2 dt)), which removes the leading-order bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroMass
from .grid import GridField, SpatialGrid
from .network import NetworkTopology

__all__ = [
    "SimConfig",
    "ArrivalCdf",
    "simulate_agents",
    "estimate_arrival_cdf",
    "dkw_epsilon",
]

_MAX_CROSSINGS_PER_STEP = 1000


@dataclass(frozen=True)
class SimConfig:
    """Batch settings. ``sigma`` defaults to sqrt(2) to match the unit
    diffusivity of the PDE scheme; ``drift`` is a DriftSeries or None for
    driftless motion."""

    n_agents: int
    dt: float
    t_max: float
    seed: int = 0
    sigma: float = math.sqrt(2.0)
    drift: object | None = None

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")


class _TopologyTables:
    """Flat arrays for vectorized edge/vertex lookups."""

    def __init__(self, topology: NetworkTopology):
        self.tail = np.array([e.tail for e in topology.edges])
        self.head = np.array([e.head for e in topology.edges])
        self.length = np.array([e.length for e in topology.edges])
        self.degree = np.array([topology.degree(v.id) for v in topology.vertices])
        flat, off = [], [0]
        for v in topology.vertices:
            flat.extend(topology.incident[v.id])
            off.append(len(flat))
        self.inc_flat = np.asarray(flat, dtype=int)
        self.inc_off = np.asarray(off, dtype=int)
        self.exit_vertex = topology.exit_vertex


def _route_batch(tables: _TopologyTables, vertices: np.ndarray, overshoot: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Re-emit crossing agents: pick an incident edge uniformly at random at
    each vertex and place the leftover distance into it from that vertex."""
    deg = tables.degree[vertices]
    pick = np.minimum((rng.random(len(vertices)) * deg).astype(int), deg - 1)
    new_edges = tables.inc_flat[tables.inc_off[vertices] + pick]
    from_tail = tables.tail[new_edges] == vertices
    new_ys = np.where(from_tail, overshoot, tables.length[new_edges] - overshoot)
    return new_edges, new_ys


def _resolve_crossings(tables, edges, ys, rng):
    """Bounce agents through vertices until every coordinate is inside its
    edge; returns a mask of agents absorbed at the exit."""
    absorbed = np.zeros(len(edges), dtype=bool)
    for _ in range(_MAX_CROSSINGS_PER_STEP):
        below = ys < 0.0
        above = ys > tables.length[edges]
        moving = np.flatnonzero((below | above) & ~absorbed)
        if len(moving) == 0:
            return absorbed
        at_tail = below[moving]
        verts = np.where(at_tail, tables.tail[edges[moving]], tables.head[edges[moving]])
        over = np.where(at_tail, -ys[moving], ys[moving] - tables.length[edges[moving]])
        hit_exit = verts == tables.exit_vertex
        absorbed[moving[hit_exit]] = True
        ys[moving[hit_exit]] = 0.0
        go = moving[~hit_exit]
        if len(go):
            new_e, new_y = _route_batch(tables, verts[~hit_exit], over[~hit_exit], rng)
            edges[go] = new_e
            ys[go] = new_y
    raise RuntimeError("agent crossed vertices more than "
                       f"{_MAX_CROSSINGS_PER_STEP} times in one step; dt is far too large")


def simulate_agents(topology: NetworkTopology, config: SimConfig,
                    start_edges: np.ndarray, start_ys: np.ndarray) -> np.ndarray:
    """Arrival time per agent; NaN where censored at the horizon.

    Starting exactly on the exit vertex counts as arrival at time zero.
    """
    tables = _TopologyTables(topology)
    rng = np.random.default_rng(config.seed)
    edges = np.asarray(start_edges, dtype=int).copy()
    ys = np.asarray(start_ys, dtype=float).copy()
    n = len(edges)
    arrival = np.full(n, np.nan)

    exit_edge = topology.exit_edge
    on_exit = (edges == exit_edge.id) & (
        (ys <= 0.0) if exit_edge.tail == topology.exit_vertex else (ys >= exit_edge.length))
    arrival[on_exit] = 0.0

    drift = config.drift
    noise_scale = config.sigma * math.sqrt(config.dt)
    n_steps = math.ceil(config.t_max / config.dt)
    bridge_scale = -2.0 / (config.sigma**2 * config.dt)
    exit_from_tail = exit_edge.tail == topology.exit_vertex

    for step in range(n_steps):
        active = np.flatnonzero(np.isnan(arrival))
        if len(active) == 0:
            break
        t = step * config.dt
        e = edges[active]
        y = ys[active]
        on_exit_before = e == exit_edge.id
        d_before = np.where(on_exit_before,
                            y if exit_from_tail else exit_edge.length - y, np.inf)
        if drift is not None:
            a = drift.eval(e, y, drift.level_at(t))
            y = y + a * config.dt
        y = y + noise_scale * rng.standard_normal(len(active))
        absorbed = _resolve_crossings(tables, e, y, rng)
        # Brownian-bridge test: a path that stayed on the exit edge may have
        # touched the exit between the endpoints of the step
        candidates = np.flatnonzero(on_exit_before & (e == exit_edge.id) & ~absorbed)
        if len(candidates):
            d_after = y[candidates] if exit_from_tail else exit_edge.length - y[candidates]
            p_cross = np.exp(bridge_scale * d_before[candidates] * d_after)
            hit = rng.random(len(candidates)) < p_cross
            absorbed[candidates[hit]] = True
        edges[active] = e
        ys[active] = y
        arrival[active[absorbed]] = min(t + config.dt, config.t_max)
    return arrival


def dkw_epsilon(n: int, alpha: float = 0.05) -> float:
    """Half-width of the distribution-free confidence band for an empirical
    CDF from n samples at confidence 1 - alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@dataclass
class ArrivalCdf:
    """Empirical arrival-time distribution with its confidence band."""

    times: np.ndarray
    fraction: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    epsilon: float
    arrival_times: np.ndarray


def sample_initial_positions(grid: SpatialGrid, m0: GridField, n: int,
                             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (edge, arclength) starts from a density by inverting the
    left-endpoint rectangle quadrature: pick a cell with probability
    proportional to value * h, then place uniformly inside the cell."""
    weights, cell_edge, cell_k = [], [], []
    for e in grid.topology.edges:
        vals = m0.edge_values(e.id)[:-1]  # left endpoints of the cells
        weights.append(vals * grid.h[e.id])
        cell_edge.append(np.full(len(vals), e.id))
        cell_k.append(np.arange(len(vals)))
    w = np.concatenate(weights)
    if w.min() < 0:
        raise ZeroMass("density must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise ZeroMass("density integrates to zero")
    cum = np.cumsum(w) / total
    cell = np.searchsorted(cum, rng.random(n), side="right")
    cell = np.minimum(cell, len(w) - 1)
    edges = np.concatenate(cell_edge)[cell]
    ks = np.concatenate(cell_k)[cell]
    ys = (ks + rng.random(n)) * grid.h[edges]
    return edges, ys


def estimate_arrival_cdf(topology: NetworkTopology, config: SimConfig,
                         grid: SpatialGrid, m0: GridField,
                         eval_times: np.ndarray) -> ArrivalCdf:
    """Simulate a population drawn from m0 and return the fraction arrived
    by each evaluation time, with a 95% band."""
    rng = np.random.default_rng(config.seed)
    edges, ys = sample_initial_positions(grid, m0, config.n_agents, rng)
    # hand the generator's current state to the dynamics by reseeding a
    # child stream, so sampling and stepping stay decoupled but reproducible
    child_seed = int(rng.integers(0, 2**63 - 1))
    arrivals = simulate_agents(topology, SimConfig(
        n_agents=config.n_agents, dt=config.dt, t_max=config.t_max,
        seed=child_seed, sigma=config.sigma, drift=config.drift),
        edges, ys)

    finite = np.sort(arrivals[~np.isnan(arrivals)])
    fraction = np.searchsorted(finite, eval_times, side="right") / config.n_agents
    eps = dkw_epsilon(config.n_agents)
    return ArrivalCdf(
        times=np.asarray(eval_times, dtype=float), fraction=fraction,
        band_lo=np.clip(fraction - eps, 0.0, 1.0),
        band_hi=np.clip(fraction + eps, 0.0, 1.0),
        epsilon=eps, arrival_times=arrivals)

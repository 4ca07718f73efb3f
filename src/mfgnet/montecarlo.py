"""Particle simulation of the agent dynamics, used as an independent check
of the PDE pipeline.

Agents follow Euler-Maruyama steps along their current edge. When a step
carries an agent past a vertex, the leftover distance is re-emitted into an
edge drawn uniformly from the edges incident to that vertex (the arrival
edge included); with a single incident edge that reduces to specular
reflection. Reaching the exit vertex absorbs the agent; runs are censored
at the horizon. The agents of one ``simulate_agents`` call advance in
lockstep on one seeded generator, so a call replays bit for bit.

``estimate_arrival_cdf`` cuts its population into blocks of at most
_BLOCK_AGENTS agents, each simulated on its own seed: the first block on
the seed the sampler hands on, the later ones on seeds spawned from it.
When the process may use more than one CPU, the blocks are cut into runs
of consecutive blocks, the first for the caller and each other for a
worker forked by ``workers.run_forked``, which cli's CSV writer shares;
otherwise they run one after another in the caller. The arrivals depend
only on the seed and the population size either way.

A step that starts and ends on the exit edge may still have crossed the
exit in between; ignoring that biases arrivals late by O(sqrt(dt)). Those
steps are absorbed with the Brownian-bridge crossing probability
exp(-2*d0*d1 / (sigma^2 dt)), which removes the leading-order bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import StepTooLarge, ZeroMass
from .grid import GridField
from .network import NetworkTopology

__all__ = [
    "SimConfig",
    "ArrivalCdf",
    "simulate_agents",
    "read_levels",
    "estimate_arrival_cdf",
    "dkw_epsilon",
]

_MAX_CROSSINGS_PER_STEP = 1000
_BRIDGE_EXP_FLOOR = -40.0  # exp(-40) ~ 4.2e-18 < 2**-53
_NO_AGENTS = np.empty(0, dtype=int)
# Share of parked (absorbed) agents at which simulate_agents compacts its
# columns. Compacting on every step that absorbs agents, example1's oracle
# loop (30 000 agents to t = 1, a few absorbed per step) took 1.41 s against
# 1.25 s at 1/16, and desk's took about as long either way; 1/8, 1/16 and
# 1/32 measured about equal on both (2-CPU Xeon VM).
_PARKED_SHARE = 1 / 16
# Agents per block of estimate_arrival_cdf's population. The blocks fix the
# draws, so their size is a constant, not a count of the machine's CPUs; a
# population of at most this many is one block, stepped on the sampler's seed.
_BLOCK_AGENTS = 50_000


SIGMA = math.sqrt(2.0)  # the noise of the PDE's unit diffusivity


@dataclass(frozen=True)
class SimConfig:
    """Batch settings. ``drift`` is a DriftSeries or None for driftless motion."""

    n_agents: int
    dt: float
    t_max: float
    seed: int = 0
    drift: object | None = None

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if not (0 < self.dt < math.inf and 0 < self.t_max < math.inf):
            raise ValueError("dt and t_max must be positive and finite")


def _route_batch(topology: NetworkTopology, vertices: np.ndarray, overshoot: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Re-emit crossing agents: pick an incident edge uniformly at random at
    each vertex and place the leftover distance into it from that vertex."""
    first = topology.incident_starts[vertices]
    deg = topology.incident_starts[vertices + 1] - first
    pick = np.minimum((rng.random(len(vertices)) * deg).astype(int), deg - 1)
    new_edges = topology.incident_edges[first + pick]
    from_tail = topology.tails[new_edges] == vertices
    new_ys = np.where(from_tail, overshoot, topology.lengths[new_edges] - overshoot)
    return new_edges, new_ys


def _resolve_crossings(topology, moving, edges, ys, rng):
    """Bounce the agents ``moving``, whose coordinates lie outside their
    edges, through vertices until every coordinate is inside its edge,
    updating ``edges`` and ``ys`` in place.

    Returns two index lists into the arrays: the agents absorbed at the
    exit, and the agents routed onto another edge (once per route, so an
    agent that was routed and then absorbed is in both). An absorbed
    agent's entries are left as they were when it reached the exit.
    """
    absorbed, routed = [], []
    for _ in range(_MAX_CROSSINGS_PER_STEP):
        y, e = ys[moving], edges[moving]
        at_tail = y < 0.0
        verts = np.where(at_tail, topology.tails[e], topology.heads[e])
        over = np.where(at_tail, -y, y - topology.lengths[e])
        onward = verts != topology.exit_vertex
        absorbed.append(moving[~onward])
        go, over = moving[onward], over[onward]
        new_e, new_y = _route_batch(topology, verts[onward], over, rng)
        edges[go], ys[go] = new_e, new_y
        routed.append(go)
        # an overshoot longer than its new edge carries the agent past it
        moving = go[over > topology.lengths[new_e]]
        if not len(moving):
            if len(routed) == 1:  # one round, as in most steps
                return absorbed[0], go
            return np.concatenate(absorbed), np.concatenate(routed)
    raise StepTooLarge(f"an agent crossed vertices more than {_MAX_CROSSINGS_PER_STEP} "
                       "times in one step; the particle time step dt is far too large")


def _bridge_hits(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The indices i with ``u[i] < exp(x[i])``, for uniform draws u, taking
    exp only where x exceeds _BRIDGE_EXP_FLOOR.

    ``rng.random`` returns multiples of 2**-53 > exp(_BRIDGE_EXP_FLOOR), so
    at or below the floor only a draw u == 0 can hit, and it hits exactly
    when exp(x) > 0. Most agents on the exit edge are far enough from the
    exit to sit below the floor.
    """
    near = (x > _BRIDGE_EXP_FLOOR).nonzero()[0]
    hits = near[u.take(near) < np.exp(x.take(near))]
    if not u.all():
        # a zero draw above the floor is in near already
        zero = ((u == 0.0) & ~(x > _BRIDGE_EXP_FLOOR)).nonzero()[0]
        hits = np.sort(np.concatenate((hits, zero[np.exp(x[zero]) > 0.0])))
    return hits


def simulate_agents(topology: NetworkTopology, config: SimConfig,
                    start_edges: np.ndarray, start_ys: np.ndarray) -> np.ndarray:
    """Arrival time per agent; NaN where censored at the horizon.

    Starting exactly on the exit vertex counts as arrival at time zero.
    Start coordinates must be nonnegative (an arclength along the edge).

    The loop keeps columns of the agents still moving, in their original
    order, and draws only for them, so every draw lands on the same agent as
    in a loop over the full population. A boolean column marks the agents
    on the exit edge, and the bridge factor of a step is formed for every
    agent, so the bridge test gathers its candidates once, after the step;
    the router runs only in a step where some agent left its edge. An
    absorbed agent stays parked in the columns, off the exit edge, until
    _PARKED_SHARE of them are parked; then one boolean mask compacts every
    column.
    """
    rng = np.random.default_rng(config.seed)
    edges = np.asarray(start_edges, dtype=int)
    ys = np.asarray(start_ys, dtype=float)
    if not (ys >= 0.0).all():
        raise ValueError("start coordinates must be nonnegative arclengths")
    arrival = np.full(len(edges), np.nan)

    exit_edge = topology.exit_edge
    exit_length = float(topology.lengths[exit_edge])
    exit_from_tail = topology.tails[exit_edge] == topology.exit_vertex
    on_exit = (edges == exit_edge) & ((ys <= 0.0) if exit_from_tail else (ys >= exit_length))
    arrival[on_exit] = 0.0

    drift, dt = config.drift, config.dt
    noise_scale = SIGMA * math.sqrt(dt)
    n_steps = math.ceil(config.t_max / dt)
    bridge_scale = -2.0 / (SIGMA**2 * dt)

    # per edge: its length and the rows of the drift's edge_table
    table = topology.lengths[None] if drift is None else np.vstack((topology.lengths,
                                                                     drift.edge_table))
    # the agents still moving, in their original order so every draw lands
    # on the same agent: index, edge, coordinate, whether on the exit edge,
    # and table's column of the edge, one column per row, refreshed only
    # when an agent changes edge. A parked agent is off the exit edge, at 0,
    # with no drift and no noise.
    idx = (~on_exit).nonzero()[0]
    e = edges[idx]
    columns = [idx, e, ys[idx], e == exit_edge, *table.take(e, axis=1)]
    del on_exit, e
    parked, live = _NO_AGENTS, None
    for step in range(n_steps):
        idx, e, y, on, lengths, *consts = columns
        n = len(idx)
        if n == len(parked):
            break
        t = step * dt
        # the bridge exponent's factor from before the step; the distance
        # after the step is the other, and only the exit edge's agents use it
        x = (y if exit_from_tail else exit_length - y) * bridge_scale
        if drift is not None:
            velocity = drift.eval(drift.level_at(t), y, *consts)
            velocity *= dt
            velocity[parked] = 0.0
            y += velocity
            del velocity  # freed before the draws, where a large run peaks in memory
        noise = rng.standard_normal(n - len(parked))
        noise *= noise_scale
        if len(parked):
            noise, draws = np.zeros(n), noise
            noise[live] = draws
            del draws
        y += noise
        del noise  # freed before the bridge and a compaction, which peak in memory
        absorbed = _NO_AGENTS
        moving = ((y < 0.0) | (y > lengths)).nonzero()[0]
        if len(moving):
            absorbed, routed = _resolve_crossings(topology, moving, e, y, rng)
            fresh = e.take(routed)
            for column, values in zip(columns[4:], table.take(fresh, axis=1)):
                column[routed] = values
            # the bridge's candidates start and end the step on the exit edge
            back = fresh == exit_edge
            on[routed] &= back
            on[absorbed] = False
        # Brownian-bridge test: a path that stayed on the exit edge may have
        # touched the exit between the endpoints of the step
        before = on.nonzero()[0]
        if len(before):
            x *= y if exit_from_tail else exit_length - y
            hits = before.take(_bridge_hits(x.take(before), rng.random(len(before))))
            absorbed = np.concatenate((absorbed, hits))
        del x, before
        if len(moving):
            on[routed] = back
        if len(absorbed):
            arrival[idx.take(absorbed)] = min(t + dt, config.t_max)
            y[absorbed], on[absorbed] = 0.0, False
            parked = np.concatenate((parked, absorbed))
            if live is None:
                live = np.ones(n, dtype=bool)
            live[absorbed] = False
            if len(parked) > _PARKED_SHARE * n:
                # one column at a time, each old column freed as its new one is made
                del idx, e, y, on, lengths, consts
                for i, column in enumerate(columns):
                    columns[i] = column[live]
                del column
                parked, live = _NO_AGENTS, None
    return arrival


def read_levels(config: SimConfig, dt: float, last_level: int) -> np.ndarray:
    """The levels, increasing, at which ``simulate_agents`` reads a drift
    with time step ``dt`` and levels 0 to ``last_level``: its ``level_at(t)``
    at every step time t = k * config.dt, by the loop's arithmetic."""
    t = np.arange(math.ceil(config.t_max / config.dt)) * config.dt
    levels = np.minimum((t / dt).astype(int), last_level)
    # nondecreasing, so each level first appears where it differs from the
    # one before (np.unique would import numpy.ma on its first call)
    return levels[np.diff(levels, prepend=-1) != 0]


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


def sample_initial_positions(m0: GridField, n: int,
                             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (edge, arclength) starts from the piecewise-linear interpolant
    of a density along each edge of its grid: pick a cell with probability
    proportional to its trapezoid mass h (a + b) / 2, a and b its end
    values, then place the agent at the fraction s of the cell where the
    cell's linear density has mass u of its own: a s + (b - a) s^2 / 2 =
    u (a + b) / 2, for a uniform draw u."""
    grid = m0.grid
    if m0.data.min() < 0:
        raise ZeroMass("density must be nonnegative")
    # cell c, on edge j, runs from layout slot c + j to the next
    cell_edge = np.repeat(np.arange(grid.topology.n_edges), grid.n_cells)
    slot = np.arange(len(cell_edge)) + cell_edge
    a, b = m0.data[grid.edge_nodes[slot]], m0.data[grid.edge_nodes[slot + 1]]
    w = (a + b) * grid.h[cell_edge]  # twice the trapezoid mass; the factor cancels
    total = w.sum()
    if total <= 0:
        raise ZeroMass("density integrates to zero")
    cum = np.cumsum(w) / total
    cell = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(w) - 1)
    a, b, u = a[cell], b[cell], rng.random(n)
    # the quadratic's root in the form without cancellation; its denominator
    # is 0 only where a = 0 and u = 0 or b = 0, and there s is 0
    den = a + np.sqrt((1.0 - u) * a * a + u * b * b)
    s = np.divide(u * (a + b), den, out=np.zeros(n), where=den > 0.0)
    edges = cell_edge[cell]
    return edges, (cell + edges - grid.edge_starts[edges] + s) * grid.h[edges]


def _block_seeds(seed: int, n_blocks: int) -> list[int]:
    """``seed`` for the first block; for each later block, 63 bits of the
    state of its own child of ``seed``'s SeedSequence."""
    spawned = np.random.SeedSequence(seed).spawn(n_blocks - 1)
    return [seed] + [int(child.generate_state(2, np.uint64)[0] >> np.uint64(1))
                     for child in spawned]


def _simulate_blocks(topology: NetworkTopology, config: SimConfig,
                     edges: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Arrival time per agent, from ``simulate_agents`` on each block of at
    most _BLOCK_AGENTS agents with the seeds of ``_block_seeds``.

    The blocks are cut into P runs of consecutive blocks. Run 0 runs in the
    caller and runs 1 to P - 1 in workers of ``workers.run_forked``, one per
    spare CPU and at most one per block after the first, each of whose
    arrivals is read straight into its slice of the result. Without
    ``os.fork`` or a second CPU every block runs in the caller.
    """
    n = len(edges)
    n_blocks = -(-n // _BLOCK_AGENTS)
    cuts = np.linspace(0, n, n_blocks + 1).astype(int)
    blocks = [(replace(config, n_agents=int(b - a), seed=seed), edges[a:b], ys[a:b])
              for seed, a, b in zip(_block_seeds(config.seed, n_blocks), cuts[:-1], cuts[1:])]
    from .workers import run_forked, spare_cpus  # loaded by the oracle alone

    n_procs = 1 + min(n_blocks - 1, spare_cpus())
    first = np.linspace(0, n_blocks, n_procs + 1).astype(int)  # each run's first block
    arrival = np.empty(n)

    def run(p: int) -> np.ndarray:
        return np.concatenate([simulate_agents(topology, *block)
                               for block in blocks[first[p]:first[p + 1]]])

    def local() -> None:
        arrival[:cuts[first[1]]] = run(0)

    run_forked(local, [partial(run, p) for p in range(1, n_procs)],
               out=[arrival[cuts[a]:cuts[b]] for a, b in zip(first[1:-1], first[2:])])
    return arrival


def estimate_arrival_cdf(config: SimConfig, m0: GridField,
                         eval_times: np.ndarray) -> ArrivalCdf:
    """Simulate a population drawn from m0 on its grid's network and return
    the fraction arrived by each evaluation time, with a 95% band."""
    rng = np.random.default_rng(config.seed)
    edges, ys = sample_initial_positions(m0, config.n_agents, rng)
    # hand the generator's current state to the dynamics by reseeding a
    # child stream, so sampling and stepping stay decoupled but reproducible
    child_seed = int(rng.integers(0, 2**63 - 1))
    arrivals = _simulate_blocks(m0.grid.topology, replace(config, seed=child_seed), edges, ys)

    finite = np.sort(arrivals[~np.isnan(arrivals)])
    fraction = np.searchsorted(finite, eval_times, side="right") / config.n_agents
    eps = dkw_epsilon(config.n_agents)
    return ArrivalCdf(
        times=np.asarray(eval_times, dtype=float), fraction=fraction,
        band_lo=np.clip(fraction - eps, 0.0, 1.0),
        band_hi=np.clip(fraction + eps, 0.0, 1.0),
        epsilon=eps, arrival_times=arrivals)

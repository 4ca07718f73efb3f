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
The blocks after the first run in forked workers when the process may use
more than one CPU, and one after another in the caller otherwise; the
arrivals depend only on the seed and the population size either way.

A step that starts and ends on the exit edge may still have crossed the
exit in between; ignoring that biases arrivals late by O(sqrt(dt)). Those
steps are absorbed with the Brownian-bridge crossing probability
exp(-2*d0*d1 / (sigma^2 dt)), which removes the leading-order bias.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, replace

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


def _resolve_crossings(topology, edges, ys, lengths, rng):
    """Bounce agents through vertices until every coordinate is inside its
    edge, updating ``edges``, ``ys`` and ``lengths`` in place.

    Returns two index lists into the arrays: the agents absorbed at the
    exit, and the agents routed onto another edge (once per route, so an
    agent that was routed and then absorbed is in both). An absorbed
    agent's entries are left as they were when it reached the exit.
    """
    absorbed, routed = [_NO_AGENTS], [_NO_AGENTS]
    moving = np.flatnonzero((ys < 0.0) | (ys > lengths))
    for _ in range(_MAX_CROSSINGS_PER_STEP):
        if len(moving) == 0:
            return np.concatenate(absorbed), np.concatenate(routed)
        y, e = ys[moving], edges[moving]
        at_tail = y < 0.0
        verts = np.where(at_tail, topology.tails[e], topology.heads[e])
        over = np.where(at_tail, -y, y - lengths[moving])
        hit_exit = verts == topology.exit_vertex
        absorbed.append(moving[hit_exit])
        go = moving[~hit_exit]
        new_e, new_y = _route_batch(topology, verts[~hit_exit], over[~hit_exit], rng)
        edges[go], ys[go], lengths[go] = new_e, new_y, topology.lengths[new_e]
        routed.append(go)
        # only an agent routed in this round can still be outside its edge
        moving = go[(new_y < 0.0) | (new_y > lengths[go])]
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
    near = np.flatnonzero(x > _BRIDGE_EXP_FLOOR)
    hits = near[u.take(near) < np.exp(x.take(near))]
    if not u.all():
        # a zero draw above the floor is in near already
        zero = np.flatnonzero((u == 0.0) & ~(x > _BRIDGE_EXP_FLOOR))
        hits = np.sort(np.concatenate((hits, zero[np.exp(x[zero]) > 0.0])))
    return hits


def simulate_agents(topology: NetworkTopology, config: SimConfig,
                    start_edges: np.ndarray, start_ys: np.ndarray) -> np.ndarray:
    """Arrival time per agent; NaN where censored at the horizon.

    Starting exactly on the exit vertex counts as arrival at time zero.
    Start coordinates must be nonnegative (an arclength along the edge).

    The loop keeps columns of the agents still moving, in their original
    order, and draws only for them, so every draw lands on the same agent as
    in a loop over the full population. Its bookkeeping runs on index
    lists: the agents on the exit edge, those that crossed a vertex, and
    those absorbed. An absorbed agent stays parked in the columns until
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

    drift = config.drift
    noise_scale = SIGMA * math.sqrt(config.dt)
    n_steps = math.ceil(config.t_max / config.dt)
    bridge_scale = -2.0 / (SIGMA**2 * config.dt)

    # the agents still moving, in their original order so every draw lands
    # on the same agent: index, edge, coordinate, edge length and the
    # drift's per-edge constants, refreshed only when an agent changes edge.
    # A parked agent is on no edge, at 0, with no drift and no noise.
    idx = np.flatnonzero(~on_exit)
    e, y = edges[idx], ys[idx]
    columns = [idx, e, y, topology.lengths[e], *(() if drift is None else drift.edge_constants(e))]
    parked, live = _NO_AGENTS, None
    for step in range(n_steps):
        idx, e, y, lengths, *consts = columns
        n = len(idx)
        if n == len(parked):
            break
        t = step * config.dt
        # the agents on the exit edge and the bridge exponent's factor from
        # before the step; the distance after the step is the other
        before = np.flatnonzero(e == exit_edge)
        x = y.take(before)
        if not exit_from_tail:
            np.subtract(exit_length, x, out=x)
        x *= bridge_scale
        if drift is not None:
            velocity = drift.eval(drift.level_at(t), y, *consts)
            velocity *= config.dt
            velocity[parked] = 0.0
            y += velocity
            del velocity  # freed before the draws, where a large run peaks in memory
        noise = rng.standard_normal(n - len(parked))
        noise *= noise_scale
        if len(parked):
            noise, draws = np.zeros(n), noise
            noise[live] = draws
        y += noise
        absorbed, routed = _resolve_crossings(topology, e, y, lengths, rng)
        if consts and len(routed):
            for c, fresh in zip(consts, drift.edge_constants(e[routed])):
                c[routed] = fresh
        if len(routed) or len(absorbed):
            e[absorbed] = -1  # on no edge, so out of the bridge test
            stayed = e.take(before) == exit_edge
            before, x = before[stayed], x[stayed]
        # Brownian-bridge test: a path that stayed on the exit edge may have
        # touched the exit between the endpoints of the step
        if len(before):
            d_after = y.take(before)
            if not exit_from_tail:
                np.subtract(exit_length, d_after, out=d_after)
            x *= d_after
            hits = before.take(_bridge_hits(x, rng.random(len(before))))
            absorbed = np.concatenate((absorbed, hits))
        if len(absorbed):
            arrival[idx.take(absorbed)] = min(t + config.dt, config.t_max)
            e[absorbed], y[absorbed] = -1, 0.0
            parked = np.concatenate((parked, absorbed))
            if live is None:
                live = np.ones(n, dtype=bool)
            live[absorbed] = False
            if len(parked) > _PARKED_SHARE * n:
                columns = [col[live] for col in columns]
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_seeds(seed: int, n_blocks: int) -> list[int]:
    """``seed`` for the first block; for each later block, 63 bits of the
    state of its own child of ``seed``'s SeedSequence."""
    spawned = np.random.SeedSequence(seed).spawn(n_blocks - 1)
    return [seed] + [int(child.generate_state(2, np.uint64)[0] >> np.uint64(1))
                     for child in spawned]


def _fork_worker(topology: NetworkTopology, blocks: list) -> tuple[int, object]:
    """Fork a process that simulates ``blocks`` one after another and writes
    to a pipe a 0 byte and their arrivals, concatenated, or a 1 byte and its
    pickled exception. Returns the worker's pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                tag, body = b"\0", np.concatenate(
                    [simulate_agents(topology, *block) for block in blocks])
            except BaseException as exc:  # interrupts too: the caller raises it
                tag, body = b"\1", pickle.dumps(exc)
            with open(write_end, "wb") as pipe:
                pipe.write(tag)
                pipe.write(body)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _stop(workers: dict) -> None:
    """Kill and reap the workers whose arrivals were not collected."""
    import signal  # only after a failure; the program does not load it otherwise

    for pid, pipe in workers.items():
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _simulate_blocks(topology: NetworkTopology, config: SimConfig,
                     edges: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Arrival time per agent, from ``simulate_agents`` on each block of at
    most _BLOCK_AGENTS agents with the seeds of ``_block_seeds``.

    Block b runs in process b mod P, where process 0 is the caller and
    processes 1 to P - 1 are forked workers, one per usable CPU beyond the
    first and at most one per block after the first. Without ``os.fork``
    or a second CPU every block runs in the caller. Every worker is reaped
    before this returns or raises, and a worker's error is raised here.
    Workers are forked rather than spawned: a forked worker reads the
    network and its starts from memory it shares with the caller, where a
    spawned pool re-imports the package and raised desk's peak RSS from
    62.1 to 65.3 MB.
    """
    n = len(edges)
    n_blocks = -(-n // _BLOCK_AGENTS)
    cuts = np.linspace(0, n, n_blocks + 1).astype(int)
    blocks = [(replace(config, n_agents=int(b - a), seed=seed), edges[a:b], ys[a:b])
              for seed, a, b in zip(_block_seeds(config.seed, n_blocks), cuts[:-1], cuts[1:])]
    n_procs = 1 + (min(n_blocks - 1, _usable_cpus() - 1) if hasattr(os, "fork") else 0)
    arrivals = [None] * n_blocks
    workers = {}  # pid: pipe, until the worker is reaped
    try:
        for p in range(1, n_procs):
            pid, pipe = _fork_worker(topology, blocks[p::n_procs])
            workers[pid] = pipe
        for b in range(0, n_blocks, n_procs):
            arrivals[b] = simulate_agents(topology, *blocks[b])
        for p, pid in enumerate(list(workers), 1):
            with workers[pid] as pipe:
                tag, body = pipe.read(1), pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if tag == b"\1":
                raise pickle.loads(body)
            sizes = [block[0].n_agents for block in blocks[p::n_procs]]
            if tag != b"\0" or len(body) != 8 * sum(sizes):
                raise ChildProcessError(f"particle worker {pid} sent no arrivals "
                                        f"(wait status {status})")
            arrivals[p::n_procs] = np.split(np.frombuffer(body), np.cumsum(sizes)[:-1])
    finally:
        if workers:
            _stop(workers)
    return np.concatenate(arrivals)


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

"""Explicit time stepping for the two heat sweeps on the network.

Within a step: (1) interior three-point stencil on every edge, (2) pinned
(Dirichlet) vertex values are written, (3) every remaining vertex gets the
1/h-weighted average of its adjacent interior nodes, which is the unique
solution of the discrete flux-balance condition once continuity across the
vertex is imposed. The exit vertex is pinned in both sweeps; any other
vertex can be pinned explicitly (handy for analytic regression tests), and
a degree-1 unpinned vertex degenerates to a reflecting end.

``ModalStep`` evaluates many steps at once from the eigenbasis of the same
step (exit pinned, every other vertex free); the sweeps stay the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolation, NonpositivePhi
from .grid import GridField, SpatialGrid, TimeGrid

__all__ = [
    "VertexStencil",
    "StencilWorkspace",
    "make_vertex_stencils",
    "solve_vertex_values",
    "kirchhoff_residual",
    "step_forward",
    "step_backward",
    "solve_backward_phi",
    "solve_forward_psi",
    "psi_initial",
    "HeatSweep",
    "ModalStep",
    "modal_pays",
]

CFL_LIMIT = 0.5

# A ModalStep costs one dense eigh, about 0.18 ns * n_int^3 (0.17 s at
# n_int = 1000, 1.3 s at 2000; single-threaded OpenBLAS on a 2-CPU Xeon VM),
# and then O(n_steps * n_int) per map; one sweep pair costs about 2 * 9 ns
# per node-step plus 2 * 17 us per step. Leaving out the per-step part, it
# pays once n_int^3 <= R * n_steps * n_flat with R = 2 * 9 / 0.18 = 100,
# even for a single map evaluation.
MODAL_COST_RATIO = 100.0
_FLUSH = 1e-150  # smaller powers are set to 0, so no product is subnormal


@dataclass(frozen=True)
class VertexStencil:
    """Flux-balance data for one vertex: the adjacent interior node, the
    step and the weight 1/h of every incident edge."""

    vertex: int
    edges: tuple[int, ...]
    signs: tuple[int, ...]
    steps: tuple[float, ...]
    adjacent: tuple[int, ...]  # flat node indices
    weights: tuple[float, ...]  # 1/h per incident edge
    total_weight: float


def make_vertex_stencils(grid: SpatialGrid, vertices=None) -> list[VertexStencil]:
    """Stencils for the given vertex ids (default: every non-exit vertex)."""
    topo = grid.topology
    if vertices is None:
        vertices = [v.id for v in topo.vertices if v.id != topo.exit_vertex]
    out = []
    for vid in vertices:
        edges, signs, steps, adjacent, weights = [], [], [], [], []
        for j in topo.incident[vid]:
            e = topo.edges[j]
            edges.append(j)
            signs.append(1 if e.tail == vid else -1)
            steps.append(float(grid.h[j]))
            adjacent.append(grid.adjacent_interior_index(j, vid))
            weights.append(1.0 / grid.h[j])
        out.append(VertexStencil(
            vertex=vid, edges=tuple(edges), signs=tuple(signs), steps=tuple(steps),
            adjacent=tuple(adjacent), weights=tuple(weights),
            total_weight=float(sum(weights))))
    return out


def solve_vertex_values(field: GridField, stencils) -> GridField:
    """Replace each stencil vertex value with the weighted average of its
    adjacent interior values (in place; the field is also returned)."""
    for s in stencils:
        acc = 0.0
        for adj, w in zip(s.adjacent, s.weights):
            acc += field.data[adj] * w
        field.data[s.vertex] = acc / s.total_weight
    return field


def kirchhoff_residual(field: GridField, stencil: VertexStencil) -> float:
    """Sum of one-sided outgoing difference quotients at the vertex; zero
    when the vertex value solves the discrete flux balance."""
    v = field.data[stencil.vertex]
    return float(sum((field.data[adj] - v) * w
                     for adj, w in zip(stencil.adjacent, stencil.weights)))


class StencilWorkspace:
    """Precomputed index plan for stepping one grid with a fixed pinned set."""

    def __init__(self, grid: SpatialGrid, pinned: tuple[int, ...]):
        self.grid = grid
        self.pinned = np.asarray(pinned, dtype=int)
        if len(set(pinned)) != len(pinned):
            raise ValueError(f"duplicate pinned vertices: {pinned}")

        nv = grid.n_vertices
        n_int = grid.n_flat - nv
        left = np.empty(n_int, dtype=int)
        right = np.empty(n_int, dtype=int)
        inv_h2 = np.empty(n_int)
        for e in grid.topology.edges:
            sl = grid.islice(e.id)
            idx = np.arange(sl.start, sl.stop)
            left[idx - nv] = idx - 1
            right[idx - nv] = idx + 1
            left[sl.start - nv] = e.tail
            right[sl.stop - 1 - nv] = e.head
            inv_h2[idx - nv] = 1.0 / grid.h[e.id] ** 2
        self.left = left
        self.right = right
        self.inv_h2 = inv_h2

        free = [v.id for v in grid.topology.vertices if v.id not in set(pinned)]
        self.stencils = make_vertex_stencils(grid, free)
        self.free_vertices = np.array(free, dtype=int)
        adj, w, starts = [], [], []
        for s in self.stencils:
            starts.append(len(adj))
            adj.extend(i - nv for i in s.adjacent)  # indices into the interior block
            w.extend(s.weights)
        self.adj_interior = np.asarray(adj, dtype=int)
        self.adj_weights = np.asarray(w)
        self.seg_starts = np.asarray(starts, dtype=int)
        self.inv_total_weight = np.array([1.0 / s.total_weight for s in self.stencils])
        self.n_interior = n_int

    def check_cfl(self, dt: float) -> np.ndarray:
        lam = dt * self.inv_h2
        worst = float(lam.max()) if lam.size else 0.0
        if worst > CFL_LIMIT * (1 + 1e-12):
            raise CflViolation(
                f"dt/h^2 = {worst:.6g} exceeds the stability bound {CFL_LIMIT}")
        return lam

    def step(self, src: np.ndarray, lam: np.ndarray, pinned_values: np.ndarray,
             out: np.ndarray, scratch: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """One explicit step src -> out (distinct buffers)."""
        nv = self.grid.n_vertices
        buf_l, buf_r, contrib = scratch
        old = src[nv:]
        np.take(src, self.left, out=buf_l)
        np.take(src, self.right, out=buf_r)
        np.add(buf_l, buf_r, out=buf_l)
        np.multiply(old, -2.0, out=buf_r)
        np.add(buf_l, buf_r, out=buf_l)
        np.multiply(buf_l, lam, out=buf_l)
        np.add(old, buf_l, out=out[nv:])
        out[self.pinned] = pinned_values
        self.balance_vertices(out, contrib)

    def balance_vertices(self, out: np.ndarray, contrib: np.ndarray) -> None:
        """Set every free vertex of ``out`` to the 1/h-weighted mean of its
        adjacent interior values (the discrete flux balance)."""
        if len(self.free_vertices):
            np.take(out[self.grid.n_vertices:], self.adj_interior, out=contrib)
            np.multiply(contrib, self.adj_weights, out=contrib)
            sums = np.add.reduceat(contrib, self.seg_starts)
            out[self.free_vertices] = sums * self.inv_total_weight

    def scratch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.empty(self.n_interior), np.empty(self.n_interior),
                np.empty(len(self.adj_interior)))

    def interior_matrix(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense (K, b) with ``step`` = K u + b * p on the interior block, for
        a state whose free vertices are flux-balanced, u its interior values
        and p its pinned values (this must pin exactly one vertex).

        Column j of K is one ``step`` of the balanced unit state on interior
        node j; b is one ``step`` of the state that is 1 at the pin only.
        """
        if len(self.pinned) != 1:
            raise ValueError("the interior matrix is defined for one pinned vertex")
        nv, n = self.grid.n_vertices, self.n_interior
        src, out, scratch = np.zeros(self.grid.n_flat), np.empty(self.grid.n_flat), self.scratch()
        no_pin = np.zeros(1)
        K = np.empty((n, n))
        for j in range(n):
            src[nv + j] = 1.0
            self.balance_vertices(src, scratch[2])
            self.step(src, lam, no_pin, out, scratch)
            K[:, j] = out[nv:]
            src[:] = 0.0
        src[self.pinned] = 1.0
        self.step(src, lam, no_pin, out, scratch)
        return K, out[nv:].copy()


def _single_step(fld: GridField, grid: SpatialGrid, dt: float,
                 dirichlet: dict[int, float]) -> GridField:
    ws = StencilWorkspace(grid, tuple(dirichlet))
    lam = ws.check_cfl(dt)
    out = np.empty(grid.n_flat)
    ws.step(fld.data, lam, np.array(list(dirichlet.values()), dtype=float),
            out, ws.scratch())
    return GridField(grid, out)


def step_forward(fld: GridField, grid: SpatialGrid, dt: float,
                 dirichlet: dict[int, float] | None = None) -> GridField:
    """Advance one level. ``dirichlet`` maps pinned vertex ids to the values
    imposed at the *new* level; default pins the exit at zero (the absorbing
    condition of the density sweep). Pass ``{}`` for a fully reflecting step.
    """
    if dirichlet is None:
        dirichlet = {grid.topology.exit_vertex: 0.0}
    return _single_step(fld, grid, dt, dirichlet)


def step_backward(fld: GridField, grid: SpatialGrid, dt: float,
                  dirichlet: dict[int, float]) -> GridField:
    """Recede one level (same symmetric stencil, time index reversed);
    ``dirichlet`` carries the exit datum at the *earlier* level."""
    return _single_step(fld, grid, dt, dirichlet)


@dataclass
class HeatSweep:
    """Outcome of a full sweep over all time levels."""

    grid: SpatialGrid
    time_grid: TimeGrid
    initial: GridField                 # level 0
    terminal: GridField                # level n_steps
    exit_adjacent: np.ndarray          # value next to the exit, per level
    exit_values: np.ndarray            # pinned exit value, per level
    snapshots: dict[int, GridField] = field(default_factory=dict)
    full: np.ndarray | None = None     # (n_steps+1, n_flat) when recorded
    min_value: float = np.nan

    def level(self, n: int) -> GridField:
        if n in self.snapshots:
            return self.snapshots[n]
        if self.full is not None:
            return GridField(self.grid, self.full[n].copy(), n * self.time_grid.dt)
        raise KeyError(f"level {n} was not recorded")


def _normalize_pins(time_grid: TimeGrid, extra_dirichlet) -> list[tuple[int, np.ndarray]]:
    pins = []
    times = time_grid.times
    for vid, val in (extra_dirichlet or []):
        if callable(val):
            arr = np.asarray(val(times), dtype=float)
        else:
            arr = np.broadcast_to(np.asarray(val, dtype=float), times.shape).copy()
        if arr.shape != times.shape:
            raise ValueError(f"dirichlet series for vertex {vid} has shape {arr.shape}")
        pins.append((int(vid), arr))
    return pins


def _run_sweep(grid: SpatialGrid, time_grid: TimeGrid, init: np.ndarray,
               exit_series: np.ndarray, extra_pins, level_seq,
               snapshot_levels, record_full, track_min, init_level) -> HeatSweep:
    exit_id = grid.topology.exit_vertex
    pins = [(exit_id, exit_series)] + list(extra_pins)
    if len({v for v, _ in pins}) != len(pins):
        raise ValueError("a vertex is pinned twice")
    ws = StencilWorkspace(grid, tuple(v for v, _ in pins))
    lam = ws.check_cfl(time_grid.dt)
    pin_matrix = np.stack([series for _, series in pins], axis=1)  # (N+1, P)

    n_levels = time_grid.n_steps + 1
    adj_idx = grid.exit_adjacent_index
    exit_adjacent = np.empty(n_levels)
    snapshots: dict[int, GridField] = {}
    wanted = set(snapshot_levels or ())
    full = np.empty((n_levels, grid.n_flat)) if record_full else None

    cur = init.copy()
    nxt = np.empty_like(cur)
    scratch = ws.scratch()
    vmin = np.inf

    def record(level: int, state: np.ndarray) -> None:
        nonlocal vmin
        exit_adjacent[level] = state[adj_idx]
        if level in wanted:
            snapshots[level] = GridField(grid, state.copy(), level * time_grid.dt)
        if full is not None:
            full[level] = state
        if track_min:
            vmin = min(vmin, float(state.min()))

    record(init_level, cur)
    for level in level_seq:
        ws.step(cur, lam, pin_matrix[level], nxt, scratch)
        cur, nxt = nxt, cur
        record(level, cur)

    initial = GridField(grid, (init if init_level == 0 else cur).copy(), 0.0)
    terminal = GridField(grid, (cur if init_level == 0 else init).copy(), time_grid.t_max)
    return HeatSweep(grid=grid, time_grid=time_grid, initial=initial, terminal=terminal,
                     exit_adjacent=exit_adjacent, exit_values=exit_series,
                     snapshots=snapshots, full=full,
                     min_value=(vmin if track_min else np.nan))


def solve_backward_phi(grid: SpatialGrid, time_grid: TimeGrid, c_T,
                       extra_dirichlet=None, snapshot_levels=None,
                       record_full: bool = False, track_min: bool = False) -> HeatSweep:
    """Sweep the value-potential equation from its constant terminal state
    down to level 0, pinning the exit at exp(c_T(t_n)).

    ``c_T`` maps an array of times to cost values.
    """
    exit_series = np.exp(np.asarray(c_T(time_grid.times), dtype=float))
    init = np.full(grid.n_flat, exit_series[-1])
    return _run_sweep(grid, time_grid, init, exit_series,
                      _normalize_pins(time_grid, extra_dirichlet),
                      range(time_grid.n_steps - 1, -1, -1),
                      snapshot_levels, record_full, track_min,
                      init_level=time_grid.n_steps)


def psi_initial(m0: GridField, phi0: GridField) -> np.ndarray:
    """Initial density potential m0 / phi0, zero at the exit. ``phi0`` must
    be strictly positive."""
    if float(phi0.data.min()) <= 0.0:
        raise NonpositivePhi(
            f"backward solution has min {phi0.data.min()}; cannot form the initial ratio")
    init = m0.data / phi0.data
    init[m0.grid.topology.exit_vertex] = 0.0
    return init


def solve_forward_psi(grid: SpatialGrid, time_grid: TimeGrid, m0: GridField,
                      phi0: GridField, extra_dirichlet=None, snapshot_levels=None,
                      record_full: bool = False, track_min: bool = False) -> HeatSweep:
    """Sweep the density potential forward from m0 / phi0 with the exit
    held at zero. ``phi0`` must be strictly positive."""
    init = psi_initial(m0, phi0)
    exit_series = np.zeros(time_grid.n_steps + 1)
    return _run_sweep(grid, time_grid, init, exit_series,
                      _normalize_pins(time_grid, extra_dirichlet),
                      range(1, time_grid.n_steps + 1),
                      snapshot_levels, record_full, track_min, init_level=0)


def modal_pays(grid: SpatialGrid, time_grid: TimeGrid) -> bool:
    """Whether a ModalStep (one dense eigh) costs less than one sweep pair
    on these grids: n_int^3 <= MODAL_COST_RATIO * n_steps * n_flat."""
    n_int = grid.n_flat - grid.n_vertices
    return n_int**3 <= MODAL_COST_RATIO * time_grid.n_steps * grid.n_flat


def _powers(base: np.ndarray, exponent) -> np.ndarray:
    out = np.power(base, exponent)
    out[np.abs(out) < _FLUSH] = 0.0
    return out


class ModalStep:
    """The two sweeps' exit-pinned step, applied many times from its
    eigenbasis instead of level by level.

    After a step every free vertex is the weighted mean of its adjacent
    interior values, so the interior evolves on its own: u -> K u + b * p,
    with p the exit value before the step (``StencilWorkspace.interior_matrix``).
    With D = diag(sqrt(h)) per interior node, D K D^-1 is symmetric, so
    K^n = D^-1 Q diag(lambda^n) Q^T D from one ``eigh``. A level n = a*B + j
    is split into chunk a and offset j, with B = ceil(sqrt(n_steps)), so
    lambda^n = lambda^(a*B) * lambda^j and each sum over levels is one
    matrix product with the (B, n_int) table of lambda^j, weighted by the
    (C, n_int) table of lambda^(a*B): O(n_steps * n_int) per evaluation.
    """

    def __init__(self, grid: SpatialGrid, time_grid: TimeGrid):
        ws = StencilWorkspace(grid, (grid.topology.exit_vertex,))
        self.workspace = ws
        self.lam = ws.check_cfl(time_grid.dt)
        self.n_steps = time_grid.n_steps
        K, b = ws.interior_matrix(self.lam)
        d = ws.inv_h2 ** -0.25  # sqrt(h)
        K *= d[:, None]
        K /= d
        self.evals, self.basis = np.linalg.eigh(K)
        self.d = d
        self.b_modal = self.basis.T @ (d * b)
        self.ones_modal = self.basis.T @ d
        adj = grid.exit_adjacent_index - grid.n_vertices
        self.adj_row = self.basis[adj] / d[adj]
        rows = math.isqrt(self.n_steps - 1) + 1
        chunks = -(-self.n_steps // rows)
        self.offset_powers = _powers(self.evals, np.arange(rows)[:, None])
        self.chunk_powers = _powers(self.evals, rows * np.arange(chunks)[:, None])

    def phi_initial(self, exit_series: np.ndarray) -> np.ndarray:
        """Level 0 of the backward sweep from the constant state
        exit_series[-1], with the exit pinned at exit_series[n] on level n:
        u^0 = K^N u^N + sum_{n<N} g_{n+1} K^n b."""
        chunks, rows = self.chunk_powers.shape[0], self.offset_powers.shape[0]
        by_level = np.zeros(chunks * rows)  # by_level[a, j] = g_(a*B + j + 1)
        by_level[: self.n_steps] = exit_series[1:]
        by_level = by_level.reshape(chunks, rows)
        sums = (self.chunk_powers * (by_level @ self.offset_powers)).sum(axis=0)
        coef = (_powers(self.evals, self.n_steps) * self.ones_modal * exit_series[-1]
                + self.b_modal * sums)
        ws = self.workspace
        out = np.empty(ws.grid.n_flat)
        out[ws.grid.n_vertices:] = (self.basis @ coef) / self.d
        out[ws.pinned] = exit_series[0]
        ws.balance_vertices(out, ws.scratch()[2])
        return out

    def exit_adjacent_trace(self, psi0: np.ndarray) -> np.ndarray:
        """Value next to the exit on every level of the forward sweep from
        psi0 with the exit held at zero. psi0's vertices need not be
        balanced: one ordinary step balances them, then
        trace[n] = e_adj^T K^(n-1) u^1."""
        ws = self.workspace
        u1 = np.empty(ws.grid.n_flat)
        ws.step(psi0, self.lam, np.zeros(1), u1, ws.scratch())
        weights = self.adj_row * (self.basis.T @ (self.d * u1[ws.grid.n_vertices:]))
        trace = np.empty(self.n_steps + 1)
        trace[0] = psi0[ws.grid.exit_adjacent_index]
        # by_level[a, j] = sum_k lambda_k^(a*B + j) * weights_k
        by_level = (self.chunk_powers * weights) @ self.offset_powers.T
        trace[1:] = by_level.ravel()[: self.n_steps]
        return trace

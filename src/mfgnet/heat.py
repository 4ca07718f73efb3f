"""Explicit time stepping for the two heat sweeps on the network.

Within a step: (1) interior three-point stencil on every edge, (2) pinned
(Dirichlet) vertex values are written, (3) every remaining vertex gets the
1/h-weighted average of its adjacent interior nodes, which is the unique
solution of the discrete flux-balance condition once continuity across the
vertex is imposed. The exit vertex is pinned in both sweeps; any other
vertex can be pinned explicitly (handy for analytic regression tests), and
a degree-1 unpinned vertex degenerates to a reflecting end. ``StepOperator``
is that step, on flat arrays, for one grid, pinned set and time step; its
index plan is read, by array arithmetic, from the grid's ``edge_nodes``
layout alone and the topology's ``tails``, ``heads`` and incidence arrays.

``ModalStep`` evaluates many steps at once from the eigenbasis of the same
step (exit pinned, every other vertex free): what a candidate map needs
(phi at level 0 and psi's exit trace), or both sweeps at chosen levels.
``lanczos.LanczosStep`` does the same from Lanczos bases on grids too large
for the eigenbasis (``modal_pays``). Each is built for one problem (its
grids and its crowd m0). Their base ``Evaluator`` writes the candidate map
once, from each one's ``phi0`` and ``exit_trace``; ``mfg`` calls only
``map``, ``phi_levels`` and ``psi_levels``. The public sweeps stay the
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolation, NonpositivePhi
from .grid import GridField, SpatialGrid, TimeGrid

__all__ = [
    "StepOperator",
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
# even for a single map evaluation. Past it the maps take a LanczosStep, not
# a sweep pair; the ratio is kept as measured so that no grid changes path.
MODAL_COST_RATIO = 100.0
# Accuracy target of a LanczosStep basis: its a-posteriori bound on the error
# of K^k x, relative to x in the h-weighted norm, for every k < n_steps.
KRYLOV_TOL = 1e-13
_FLUSH = 1e-150  # smaller powers are set to 0, so no product is subnormal


class StepOperator:
    """The explicit step on one grid, with a fixed set of pinned vertices and
    a fixed time step, as a precomputed flat index plan.

    This is the only implementation of the step and of the vertex solve:
    the sweeps, ``ModalStep`` and ``lanczos.LanczosStep`` all apply it.
    """

    def __init__(self, grid: SpatialGrid, pinned: tuple[int, ...], dt: float):
        self.grid = grid
        self.pinned = np.asarray(pinned, dtype=int)
        if len(set(pinned)) != len(pinned):
            raise ValueError(f"duplicate pinned vertices: {pinned}")

        nv = grid.n_vertices
        n_int = grid.n_flat - nv
        topo = grid.topology
        # interior index of each edge's nodes k = 1 and k = n_cells - 1, and the
        # vertex beyond each; inside an edge the neighbours are the adjacent slots
        self.edge_first = grid.edge_nodes[grid.edge_starts[:-1] + 1] - nv
        self.edge_last = grid.edge_nodes[grid.edge_starts[1:] - 2] - nv
        self.edge_tails, self.edge_heads = topo.tails, topo.heads
        # float_power calls libm's pow, as a scalar h ** 2 does; h * h and
        # the array h ** 2 differ from it in the last bit on some edges
        self.inv_h2 = np.repeat(1.0 / np.float_power(grid.h, 2), grid.n_cells - 1)
        self.lam = dt * self.inv_h2
        worst = float(self.lam.max()) if n_int else 0.0
        if worst > CFL_LIMIT * (1 + 1e-12):
            raise CflViolation(
                f"dt/h^2 = {worst:.6g} exceeds the stability bound {CFL_LIMIT}")

        # flux-balance plan: per free vertex, the flat index of the
        # adjacent interior node and the weight 1/h of every incident edge
        free = np.ones(nv, dtype=bool)
        free[self.pinned] = False
        self.free_vertices = np.flatnonzero(free)
        degree = np.diff(topo.incident_starts)
        owner = np.repeat(np.arange(nv), degree)  # the vertex of each incidence
        edges, vertex = topo.incident_edges[free[owner]], owner[free[owner]]
        slot = np.where(topo.tails[edges] == vertex,
                        grid.edge_starts[edges] + 1, grid.edge_starts[edges + 1] - 2)
        self.adj_nodes = grid.edge_nodes[slot]
        self.adj_weights = 1.0 / grid.h[edges]
        counts = degree[self.free_vertices]
        self.seg_starts = np.cumsum(counts) - counts
        # bincount adds each vertex's weights in order, as a running sum does
        self.total_weight = np.bincount(np.repeat(np.arange(len(counts)), counts),
                                        weights=self.adj_weights, minlength=len(counts))
        self.inv_total_weight = 1.0 / self.total_weight
        self.n_interior = n_int

    def step(self, src: np.ndarray, pinned_values: np.ndarray, out: np.ndarray,
             scratch: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """One explicit step src -> out (distinct buffers)."""
        self.interior_step(src, out, scratch)
        out[self.pinned] = pinned_values
        self.balance_vertices(out, scratch[2])

    def interior_step(self, src: np.ndarray, out: np.ndarray,
                      scratch: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """The stencil part of ``step``: out's interior nodes from src, out's
        vertex slots left as they are."""
        nv = self.grid.n_vertices
        buf_l, buf_r, _ = scratch
        old = src[nv:]
        buf_l[1:] = src[nv:-1]
        buf_l[self.edge_first] = src[self.edge_tails]
        buf_r[:-1] = src[nv + 1:]
        buf_r[self.edge_last] = src[self.edge_heads]
        np.add(buf_l, buf_r, out=buf_l)
        np.multiply(old, -2.0, out=buf_r)
        np.add(buf_l, buf_r, out=buf_l)
        np.multiply(buf_l, self.lam, out=buf_l)
        np.add(old, buf_l, out=out[nv:])

    def balance_vertices(self, out: np.ndarray, contrib: np.ndarray) -> None:
        """Set every free vertex of ``out`` to the 1/h-weighted mean of its
        adjacent interior values: the unique solution of the discrete flux
        balance once continuity across the vertex is imposed. ``out`` may
        hold one state per row, with ``contrib`` one row per state."""
        if len(self.free_vertices):
            np.take(out, self.adj_nodes, axis=-1, out=contrib)
            np.multiply(contrib, self.adj_weights, out=contrib)
            sums = np.add.reduceat(contrib, self.seg_starts, axis=-1)
            sums *= self.inv_total_weight
            # a fancy index on the first axis keeps the one-state step fast
            out.T[self.free_vertices] = sums.T

    def scratch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.empty(self.n_interior), np.empty(self.n_interior),
                np.empty(len(self.adj_nodes)))

    def interior_matrix(self) -> tuple[np.ndarray, np.ndarray]:
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
            self.step(src, no_pin, out, scratch)
            K[:, j] = out[nv:]
            src[:] = 0.0
        src[self.pinned] = 1.0
        self.step(src, no_pin, out, scratch)
        return K, out[nv:].copy()


@dataclass
class HeatSweep:
    """Outcome of a full sweep over all time levels."""

    initial: GridField                 # level 0
    terminal: GridField                # level n_steps
    exit_adjacent: np.ndarray          # value next to the exit, per level
    exit_values: np.ndarray            # pinned exit value, per level
    snapshots: dict[int, GridField] = field(default_factory=dict)


def _run_sweep(grid: SpatialGrid, time_grid: TimeGrid, init: np.ndarray,
               exit_series: np.ndarray, snapshot_levels=None, extra_dirichlet=None, *,
               backward: bool, op: StepOperator | None = None) -> HeatSweep:
    """Step ``init`` from level N down to 0 (``backward``) or from 0 up to N
    with ``op``, the exit-pinned StepOperator of these grids; without one,
    a StepOperator is built for the exit and ``extra_dirichlet``'s pins."""
    n_steps = time_grid.n_steps
    pins = [(grid.topology.exit_vertex, exit_series)] + [
        (int(vid), np.broadcast_to(np.asarray(val, dtype=float), (n_steps + 1,)).copy())
        for vid, val in (extra_dirichlet or [])]
    if op is None:
        op = StepOperator(grid, tuple(v for v, _ in pins), time_grid.dt)
    pin_matrix = np.stack([series for _, series in pins], axis=1)  # (N+1, P)

    adj_idx = grid.exit_adjacent_index
    exit_adjacent = np.empty(n_steps + 1)
    snapshots: dict[int, GridField] = {}
    wanted = set(snapshot_levels or ())

    cur, nxt, scratch = init.copy(), np.empty_like(init), op.scratch()

    def record(level: int, state: np.ndarray) -> None:
        exit_adjacent[level] = state[adj_idx]
        if level in wanted:
            snapshots[level] = GridField(grid, state.copy())

    record(n_steps if backward else 0, cur)
    for level in range(n_steps - 1, -1, -1) if backward else range(1, n_steps + 1):
        op.step(cur, pin_matrix[level], nxt, scratch)
        cur, nxt = nxt, cur
        record(level, cur)

    return HeatSweep(initial=GridField(grid, (cur if backward else init).copy()),
                     terminal=GridField(grid, (init if backward else cur).copy()),
                     exit_adjacent=exit_adjacent, exit_values=exit_series, snapshots=snapshots)


def solve_backward_phi(grid: SpatialGrid, time_grid: TimeGrid, c_T,
                       extra_dirichlet=None, snapshot_levels=None) -> HeatSweep:
    """Sweep the value-potential equation from its constant terminal state
    down to level 0, pinning the exit at exp(c_T(t_n)).

    ``c_T`` maps an array of times to cost values, or is already the exit
    series exp(c_T(t_n)), one value per level.
    """
    exit_series = (np.exp(np.asarray(c_T(time_grid.times), dtype=float)) if callable(c_T)
                   else np.asarray(c_T, dtype=float))
    return _run_sweep(grid, time_grid, np.full(grid.n_flat, exit_series[-1]), exit_series,
                      snapshot_levels, extra_dirichlet, backward=True)


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
                      phi0: GridField, extra_dirichlet=None, snapshot_levels=None) -> HeatSweep:
    """Sweep the density potential forward from m0 / phi0 with the exit
    held at zero. ``phi0`` must be strictly positive."""
    return _run_sweep(grid, time_grid, psi_initial(m0, phi0), np.zeros(time_grid.n_steps + 1),
                      snapshot_levels, extra_dirichlet, backward=False)


class Evaluator:
    """The evaluations of the two sweeps that ``mfg`` makes for one problem:
    its grids and its normalized crowd ``m0``, with one exit-pinned
    StepOperator. ``ModalStep`` and ``lanczos.LanczosStep`` each provide
    the two halves of ``map``, ``phi0`` (phi at level 0 from its exit
    series, wherever m0 / phi0 needs it) and ``exit_trace`` (the forward
    sweep next to the exit on levels 1 to N, from its level 1), and the
    fields ``phi_levels`` and ``psi_levels``."""

    def __init__(self, grid: SpatialGrid, time_grid: TimeGrid, m0: GridField):
        self.grid, self.time_grid, self.m0 = grid, time_grid, m0
        self.n_steps = time_grid.n_steps
        self.operator = StepOperator(grid, (grid.topology.exit_vertex,), time_grid.dt)

    def map(self, exit_series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi0 = m0 / phi0 and psi next to the exit on every level, for
        phi's exit series ``exit_series``."""
        psi0 = psi_initial(self.m0, GridField(self.grid, self.phi0(exit_series)))
        trace = np.empty(self.n_steps + 1)
        trace[0] = psi0[self.grid.exit_adjacent_index]
        trace[1:] = self.exit_trace(self._level_one(psi0))
        return psi0, trace

    def _level_one(self, psi0: np.ndarray) -> np.ndarray:
        """The forward sweep's level 1 from psi0, whose vertices need not be
        balanced: one ordinary step balances them."""
        op = self.operator
        u1 = np.empty(op.grid.n_flat)
        op.step(psi0, np.zeros(1), u1, op.scratch())
        return u1


def modal_pays(grid: SpatialGrid, time_grid: TimeGrid) -> bool:
    """Whether a problem on these grids takes a ModalStep (one dense eigh),
    not a ``lanczos.LanczosStep``: n_int^3 <= MODAL_COST_RATIO * n_steps *
    n_flat, the eigh's cost against one sweep pair's."""
    n_int = grid.n_flat - grid.n_vertices
    return n_int**3 <= MODAL_COST_RATIO * time_grid.n_steps * grid.n_flat


def _powers(base: np.ndarray, exponent) -> np.ndarray:
    out = np.power(base, exponent)
    out[np.abs(out) < _FLUSH] = 0.0
    return out


class ModalStep(Evaluator):
    """The two sweeps' exit-pinned step, applied many times from its
    eigenbasis instead of level by level.

    After a step every free vertex is the weighted mean of its adjacent
    interior values, so the interior evolves on its own: u -> K u + b * p,
    with p the exit value before the step (``StepOperator.interior_matrix``).
    With D = diag(sqrt(h)) per interior node, D K D^-1 is symmetric, so
    K^n = D^-1 Q diag(lambda^n) Q^T D from one ``eigh``. A level n = a*B + j
    is split into chunk a and offset j, with B = ceil(sqrt(n_steps)), so
    lambda^n = lambda^(a*B) * lambda^j and each sum over levels is one
    matrix product with the (B, n_int) table of lambda^j, weighted by the
    (C, n_int) table of lambda^(a*B): O(n_steps * n_int) per evaluation.
    ``phi_levels`` and ``psi_levels`` evaluate the sweeps at chosen levels
    from the same tables, at O(n_int^2) per level asked for, each level's
    row to the same bits whatever other levels are asked with it.
    """

    def __init__(self, grid: SpatialGrid, time_grid: TimeGrid, m0: GridField):
        super().__init__(grid, time_grid, m0)
        op = self.operator
        K, b = op.interior_matrix()
        d = op.inv_h2 ** -0.25  # sqrt(h)
        K *= d[:, None]
        K /= d
        self.evals, self.basis = np.linalg.eigh(K)
        self.d = d
        self.b_modal = self.basis.T @ (d * b)
        self.ones_modal = self.basis.T @ d
        adj = grid.exit_adjacent_index - grid.n_vertices
        self.adj_row = self.basis[adj] / d[adj]
        rows = math.isqrt(self.n_steps - 1) + 1
        self.chunks = -(-self.n_steps // rows)  # enough for every k < n_steps
        self.offset_powers = _powers(self.evals, np.arange(rows)[:, None])
        self.chunk_powers = _powers(self.evals, rows * np.arange(self.chunks)[:, None])

    def phi0(self, exit_series: np.ndarray) -> np.ndarray:
        """phi at level 0, as ``phi_levels`` gives it."""
        return self.phi_levels(exit_series, [0])[0]

    def _modal(self, state: np.ndarray) -> np.ndarray:
        """Modal coordinates Q^T D u of a flat state's interior u."""
        return self.basis.T @ (self.d * state[self.grid.n_vertices:])

    def exit_trace(self, u1: np.ndarray) -> np.ndarray:
        """Value next to the exit on levels 1 to N of the forward sweep with
        the exit held at zero, from its level 1 ``u1``: e_adj^T K^(n-1) u^1."""
        weights = self.adj_row * self._modal(u1)
        # by_level[a, j] = sum_k lambda_k^(a*B + j) * weights_k
        by_level = (self.chunk_powers * weights) @ self.offset_powers.T
        return by_level.ravel()[: self.n_steps]

    def _states(self, coef: np.ndarray, exit_values) -> np.ndarray:
        """Flat, flux-balanced states D^-1 Q c, one per row of modal
        coordinates ``coef``, with the exit at ``exit_values``. Each row is
        its own product, so its bits do not depend on the other rows."""
        op, nv = self.operator, self.operator.grid.n_vertices
        out = np.empty((len(coef), op.grid.n_flat))
        np.matmul(coef[:, None], self.basis.T, out=out[:, None, nv:])
        out[:, nv:] /= self.d
        out[:, op.pinned[0]] = exit_values
        op.balance_vertices(out, np.empty((len(coef), len(op.adj_nodes))))
        return out

    def phi_levels(self, exit_series: np.ndarray, levels) -> np.ndarray:
        """The backward sweep from the constant state exit_series[-1], with
        the exit pinned at exit_series[n] on level n, at each of ``levels``
        (level 0 allowed), one flat state per row.

        In modal coordinates c_n = Q^T D u^n the sweep is
        c_n = lambda^(N-n) c_N + b_modal * S_n, with g the exit series and
        S_n = sum_(j < N-n) lambda^j g_(n+1+j). At a checkpoint c, a multiple
        of B or N itself, S_c is one tail sum over the rows of the chunk
        products (g in chunks of B from level 1) @ (lambda^j table), formed
        once per call. Every other level n steps down from the checkpoint c
        above it: c_n = lambda^(c-n) c_c + b_modal * s_n, with
        s_n = sum_(j < c-n) lambda^j g_(n+1+j) = g_(n+1) + lambda * s_(n+1)
        from one scan down the offsets, over the blocks from the lowest asked
        to the highest at once. No step depends on which other levels are
        asked, so no row's bits do.
        """
        n_steps, rows = self.n_steps, self.offset_powers.shape[0]
        levels = np.asarray(levels, dtype=int)
        by_level = np.zeros(self.chunks * rows)  # by_level[a, j] = g_(a*B + j + 1)
        by_level[:n_steps] = exit_series[1:]
        by_level = by_level.reshape(self.chunks, rows)
        chunk_sums = by_level @ self.offset_powers
        # the checkpoint at or above level n is min(a*B, N), with a its chunk
        chunk_of = -(-levels // rows)
        down = np.minimum(chunk_of * rows, n_steps) - levels
        top = np.empty((self.chunks + 1, len(self.evals)))
        for a in set(chunk_of.tolist()):
            sums = (self.chunk_powers[: self.chunks - a] * chunk_sums[a:]).sum(axis=0)
            top[a] = (_powers(self.evals, n_steps - min(a * rows, n_steps)) * self.ones_modal
                      * exit_series[-1] + self.b_modal * sums)

        coef = top[chunk_of]
        at = np.flatnonzero(down)
        if len(at):
            offset = levels[at] % rows
            at = at[np.argsort(-offset, kind="stable")]  # offsets from B - 1 down
            # the blocks kB < n < (k + 1)B from the lowest asked to the highest
            low = chunk_of[at].min() - 1
            window = by_level[low: chunk_of[at].max()]
            partial = np.zeros((len(window), len(self.evals)))
            counts = np.bincount(offset, minlength=rows).tolist()
            done = 0
            for r in range(rows - 1, offset.min() - 1, -1):
                partial *= self.evals
                partial += window[:, r, None]
                if counts[r]:
                    now = at[done: done + counts[r]]
                    done += counts[r]
                    coef[now] = (self.offset_powers[down[now]] * coef[now]
                                 + self.b_modal * partial[chunk_of[now] - 1 - low])
        return self._states(coef, exit_series[levels])

    def psi_levels(self, psi0: np.ndarray, levels) -> np.ndarray:
        """The forward sweep from psi0 at each of ``levels`` (each >= 1), one
        flat state per row: c_n = lambda^(n-1) c_1."""
        m = np.asarray(levels) - 1
        rows = self.offset_powers.shape[0]
        coef = self.chunk_powers[m // rows] * self.offset_powers[m % rows]
        coef *= self._modal(self._level_one(psi0))
        return self._states(coef, 0.0)

"""Lanczos evaluation of the two sweeps' exit-pinned step, for grids too
large for ``heat.ModalStep``'s eigenbasis (past ``heat.modal_pays``):
``LanczosStep``.

A separate module so that only runs that take this path load it. Its
accuracy target, ``heat.KRYLOV_TOL``, stays next to the modal rule; its two
rules are here: which nodes a build keeps (``krylov_reach_pays``) and how
many levels its fields take before they are swept (``KRYLOV_FIELD_RATIO``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import heat
from .errors import NumericalFailure
from .grid import GridField, SpatialGrid, TimeGrid
from .heat import KRYLOV_TOL, Evaluator, StepOperator, psi_initial

__all__ = ["LanczosStep", "krylov_reach_pays"]

# A map reads the maps' basis only on S: phi0 where m0 is nonzero and psi's
# level 1 on the nodes one step from there reaches. With the basis rows on
# S kept by the build (m |S| floats), a map on the street lattice took 5.5,
# 7.8, 6.3, 9.7 and 15.5 ms at |S| = 218, 686, 1 758, 4 238 and 10 536 (all
# of n_flat), against 83 ms when each of its two reads replays the basis
# (single-threaded, 2-CPU Xeon VM), so time alone always favours keeping
# them. The rows took 0.65, 2.0, 5.2, 12.6 and 31 MB: they are kept only
# while they stay within an eighth of the m x n_flat basis the path never
# holds.
KRYLOV_REACH_SHARE = 0.125
# phi or psi at L levels after level 0 adds L products per block to a
# basis replay, where a sweep takes n_steps steps whatever L. On the 24 x 24
# street lattice (m = 371, n_steps = 4 481; 2-CPU Xeon VM, 1 BLAS thread,
# best of 2) phi and psi took 0.17, 0.33 and 0.49 s from the bases at
# L = 8, 40 and 80, against 0.48 to 0.58 s for a sweep pair: they cross
# near L = 80. With one axpy per vector and level they took 0.28, 0.60 and
# 1.04 s and crossed near L = 40. The bases serve them while
# m L <= KRYLOV_FIELD_RATIO n_steps, up to L = 41 there: the ratio is kept,
# so no run's choice between bases and sweeps changes.
KRYLOV_FIELD_RATIO = 3.4
# Basis vectors per block: each field row, and a map's phi0, adds one
# (k,) @ (k, n) product per block. One (L x 4) @ (4 x n) product for the L
# rows would make a row's bits depend on the other levels asked; blocks of
# 16 raised the street lattice's peak RSS by 1.2 MB.
_BLOCK = 4
# A beta_j at or below this is rounding, as |K|_H <= 1 on H-normalized vectors: the Krylov
# space is invariant (on a star of 9 interior nodes 4e-16 at j = 5; street lattice >= 0.089).
_INVARIANT_BETA = 64 * np.finfo(float).eps


def krylov_reach_pays(n_reach: int, n_flat: int) -> bool:
    """Whether a LanczosStep records its maps' basis on the ``n_reach``
    nodes S that a map reads: n_reach <= KRYLOV_REACH_SHARE * n_flat."""
    return n_reach <= KRYLOV_REACH_SHARE * n_flat


class _LanczosBasis:
    """The three-term Lanczos recurrence of the exit-pinned step K from one
    flux-balanced flat state x with the exit at 0, in the inner product
    <a, b>_H = sum_i h_i a_i b_i over interior nodes, in which K is
    self-adjoint: K W = W T + beta_m w_m e_m^T, with T tridiagonal (m x m)
    and W the first m vectors.

    K^k x ~ |x|_H W T^k e_1. Whatever the loss of orthogonality in W, that
    relation alone bounds the error for every k <= n_steps by
    |x|_H beta_m sum_(j<n_steps) |e_m^T T^j e_1|, since |K|_H <= 1 under the
    CFL bound; m grows until the bound is below KRYLOV_TOL, or until the
    recurrence ends at a beta_m that is rounding, whose bound must be too.

    The bound is first checked at m = 16, then at sizes extrapolated from
    its last rate of fall, at most doubling m. A basis expected to need
    about ``near`` vectors is first checked 8 short of that, then 8 vectors
    on until its rate is known. Each check costs about as much as 20
    recurrence steps on the street lattice.

    Powers of T are applied as in ModalStep, with k = a*B + j and
    B about sqrt(n_steps) / 2: a (B, m) table of T^j e_1 and the band of T^B
    (bandwidth B), applied once per chunk. Nothing is m x m: a dense eigh of
    T at m = 370 raised the street lattice's peak RSS by 6 MB. Only alpha
    and beta are kept: ``combine`` and ``LanczosStep``'s reads replay the
    recurrence into blocks of _BLOCK vectors, so no m x n_flat basis is held
    either. The build keeps W on the flat indices ``nodes`` only, when
    given, as the (m, len(nodes)) ``on_nodes``.
    """

    def __init__(self, op: StepOperator, start: np.ndarray, n_steps: int, nodes=None,
                 near: int | None = None):
        self.op, self.n_steps, self.start = op, n_steps, start
        self.h = 1.0 / np.sqrt(op.inv_h2)
        self.norm = math.sqrt(self._dot(start, start))
        # building the band costs m * B^2, applying it n_steps * m per pass
        # in n_steps / B numpy calls: B = sqrt(n_steps) / 2 balances the two
        self.rows = math.isqrt((n_steps - 1) // 4) + 1
        self.chunks = -(-n_steps // self.rows)
        self.alpha: list[float] = []
        self.beta: list[float] = []
        recorded = []
        target, last = (16, None) if near is None else (max(16, near - 8), None)
        for rows in self._recurrence():
            m = len(self.alpha)
            if nodes is not None:
                recorded.append(rows[-1, nodes])
            if m < target:
                continue
            bound = self._bound(m)
            if bound <= KRYLOV_TOL:
                break
            # the bound falls ever faster, so extrapolating its last rate
            # overshoots the m it needs by a little
            grow = m if near is None else 8
            if last is not None and bound < last[1]:
                rate = math.log(last[1] / bound) / (m - last[0])
                grow = math.ceil(math.log(bound / KRYLOV_TOL) / rate)
            last = (m, bound)
            target = m + min(max(grow, 8), m)
        else:  # beta reached rounding, and the bound is about that beta
            if self._bound(len(self.alpha)) > KRYLOV_TOL:
                raise NumericalFailure(f"invariant Lanczos basis misses its bound at m = {self.m}")
        self.on_nodes = None if nodes is None else np.array(recorded[: self.m])

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        nv = self.op.grid.n_vertices
        return float(np.dot(a[nv:] * self.h, b[nv:]))

    def _bound(self, m: int) -> float:
        """The error bound of the first m vectors, with T_m's tables made."""
        self._tables(m)
        bound = self.beta[m - 1] * float(np.abs(self.series(np.eye(1, m, m - 1)[0])).sum())
        if not math.isfinite(bound):
            raise NumericalFailure(f"Lanczos error bound is {bound} at m = {m}")
        return bound

    def _tables(self, m: int) -> None:
        """T_m's table of T^j e_1 (j < B) and the band of T^B, with
        band[i, B + d] = (T^B)[i, i + d]."""
        self.m = m
        self.diag = np.asarray(self.alpha[:m])
        self.off = np.asarray(self.beta[: m - 1])
        offsets = np.zeros((self.rows, m))
        offsets[0, 0] = 1.0
        for j in range(1, self.rows):
            offsets[j] = self._tri(offsets[j - 1])
        self.offsets = offsets
        band = np.zeros((m, 2 * self.rows + 1))
        band[:, self.rows] = 1.0
        off = self.off[:, None]
        for _ in range(self.rows):  # band <- T band
            new = self.diag[:, None] * band
            new[1:, :-1] += off * band[:-1, 1:]
            new[:-1, 1:] += off * band[1:, :-1]
            band = new
        self.band = band

    def _tri(self, x: np.ndarray) -> np.ndarray:
        """T x."""
        out = self.diag * x
        out[:-1] += self.off * x[1:]
        out[1:] += self.off * x[:-1]
        return out

    def _band_step(self):
        """A function x -> T^B x, over one reused padded buffer."""
        width = self.rows
        padded = np.zeros(self.m + 2 * width)
        window = np.lib.stride_tricks.sliding_window_view(padded, 2 * width + 1)

        def apply(x: np.ndarray) -> np.ndarray:
            padded[width: width + self.m] = x
            return np.einsum("ij,ij->i", self.band, window)
        return apply

    def _chunk_powers(self, x: np.ndarray) -> np.ndarray:
        """T^(a*B) x for every chunk a, one row each."""
        apply = self._band_step()
        out = np.empty((self.chunks, self.m))
        out[0] = x
        for a in range(1, self.chunks):
            out[a] = apply(out[a - 1])
        return out

    def series(self, y: np.ndarray) -> np.ndarray:
        """e_1^T T^k y for every k < n_steps."""
        # e_1^T T^(a*B + j) y = (T^j e_1) . (T^(a*B) y), T being symmetric
        return (self._chunk_powers(y) @ self.offsets.T).ravel()[: self.n_steps]

    def power_sums(self, series: np.ndarray) -> np.ndarray:
        """Coefficients c with W c ~ sum_k series[k] K^k x, for
        len(series) <= n_steps: sum over chunks a of T^(a*B) z_a, with
        z_a = sum_j series[a*B + j] T^j e_1, by Horner's rule over a."""
        chunks = max(1, -(-len(series) // self.rows))  # those the series reaches
        by_level = np.zeros(chunks * self.rows)
        by_level[: len(series)] = series
        z = by_level.reshape(chunks, self.rows) @ self.offsets
        apply = self._band_step()
        acc = z[-1]
        for a in range(chunks - 2, -1, -1):
            acc = z[a] + apply(acc)
        return self.norm * acc

    def powers(self, ks) -> np.ndarray:
        """Coefficients with W c ~ K^k x, one column per exponent in ``ks``
        (each < n_steps)."""
        chunk = self._chunk_powers(np.eye(1, self.m)[0])
        out = np.empty((self.m, len(ks)))
        for i, k in enumerate(ks):
            a, j = divmod(k, self.rows)
            v = chunk[a]
            for _ in range(j):
                v = self._tri(v)
            out[:, i] = v
        return self.norm * out

    def _recurrence(self):
        """For each j = 0, 1, ...: w_(j - j mod _BLOCK) to w_j, the vectors
        of j's block so far, as the first rows of one buffer that the next
        vector reuses. The w_j are flat, flux-balanced and H-normalized.
        alpha and beta are extended past the stored ones; replays repeat the
        same arithmetic, so they give the same vectors to the last bit."""
        op = self.op
        scratch = op.scratch()
        # every row holds 0 at the exit, and combinations keep it there;
        # w_j is row j mod _BLOCK, and w_(j+1) overwrites w_(j+1-_BLOCK)
        ring = np.zeros((_BLOCK, op.grid.n_flat))
        ring[0] = self.start / self.norm
        for j in itertools.count():
            i = j % _BLOCK
            prev, cur, nxt = ring[i - 1], ring[i], ring[(i + 1) % _BLOCK]
            yield ring[: i + 1]
            op.interior_step(cur, nxt, scratch)
            if j == len(self.alpha):
                self.alpha.append(self._dot(cur, nxt))
            nxt -= self.alpha[j] * cur
            if j:
                nxt -= self.beta[j - 1] * prev
            # the vertices are solved for only now: carried through the
            # recurrence, their rounding errors would grow from step to step
            op.balance_vertices(nxt, scratch[2])
            if j == len(self.beta):
                self.beta.append(math.sqrt(self._dot(nxt, nxt)))
            if self.beta[j] <= _INVARIANT_BETA:
                return
            nxt /= self.beta[j]

    def blocks(self):
        """(j, rows) for j = 0, _BLOCK, ... < m: the basis vectors w_j to
        w_(j+k-1), k = _BLOCK but in the last block, replayed, as the rows
        of ``_recurrence``'s buffer."""
        vectors = self._recurrence()
        for j in range(0, self.m, _BLOCK):
            for rows in itertools.islice(vectors, min(_BLOCK, self.m - j)):
                pass
            yield j, rows

    def combine(self, coefs: np.ndarray, visit=None) -> np.ndarray:
        """W @ coefs for an (m, L) coefficient array: L flat states, each
        the sum over the blocks of its own product with the block.
        ``visit(j, rows)``, when given, also sees each block."""
        by_row = np.ascontiguousarray(coefs.T)
        out = np.zeros((len(by_row), self.op.grid.n_flat))
        product = np.empty(self.op.grid.n_flat)
        for j, rows in self.blocks():
            for row, c in zip(out, by_row[:, j: j + len(rows)]):
                row += np.matmul(c, rows, out=product)
            if visit is not None:
                visit(j, rows)
        return out


def _reach(op: StepOperator, m0: np.ndarray) -> np.ndarray:
    """The nodes where ``m0`` or one ``op`` step of its indicator is
    nonzero, sorted: every node that a step from ``m0``'s support reaches."""
    on = (m0 != 0).astype(float)
    stepped = np.empty_like(on)
    op.step(on, np.zeros(1), stepped, op.scratch())
    return np.flatnonzero(on + np.abs(stepped))


class LanczosStep(Evaluator):
    """The two sweeps' exit-pinned step, applied many times from Lanczos
    bases: the counterpart of ModalStep for grids too large for its eigh,
    at O(m * n_flat) per map with m about sqrt(n_steps).

    One basis, started at the exit-adjacent node e_adj and built once per
    grid, serves every map. The sweep from a constant state with a constant
    exit value stays constant, so phi at level n is
    g_N + b_adj sum_(j < N-n) (g_(n+1+j) - g_N) K^j e_adj, and the exit
    trace is e_adj^T K^(n-1) u^1 = <K^(n-1) e_adj, u^1>_H / h_adj.

    A map reads phi0 only where the crowd m0 is nonzero, and u^1 only on the
    nodes that one step from there reaches: S. So it reads the basis on S
    alone, twice: phi0 on S is W_S c, and <w_j, u^1>_H sums over S. Where
    ``krylov_reach_pays``, the build keeps the rows W_S; else each read
    replays the basis for them, with the same arithmetic. For
    ``mfg.map_phi``, ``phi_levels`` evaluates phi at chosen levels from the
    same basis; for ``mfg.map_psi``, ``psi_levels`` evaluates psi from a
    basis started at u^1, whose bound is first checked near the maps' m.
    Reads and fields alike take the basis in blocks of _BLOCK vectors, one
    product per block and output row. Past ``KRYLOV_FIELD_RATIO``'s level
    count both fields sweep instead, with ``heat._run_sweep`` and this
    problem's operator.
    """

    def __init__(self, grid: SpatialGrid, time_grid: TimeGrid, m0: GridField):
        super().__init__(grid, time_grid, m0)
        op = self.operator
        adj = grid.exit_adjacent_index
        start = np.zeros(grid.n_flat)
        start[adj] = 1.0
        op.balance_vertices(start, op.scratch()[2])
        self.reach = _reach(op, m0.data)  # S, sorted
        kept = self.reach if krylov_reach_pays(len(self.reach), grid.n_flat) else None
        self.pins = _LanczosBasis(op, start, self.n_steps, kept)
        # a pinned value p adds lambda * p next to the exit, and nowhere else
        self.b_adj = op.lam[adj - grid.n_vertices]

    def _on_reach(self):
        """The maps' basis on S in blocks, as ``_LanczosBasis.blocks``:
        slices of the rows kept by the build, or else gathered from a
        replay. Either way each block is C-ordered, as a product's rounding
        depends on the layout."""
        kept = self.pins.on_nodes
        if kept is not None:
            return ((j, kept[j: j + _BLOCK]) for j in range(0, self.pins.m, _BLOCK))
        return ((j, rows.take(self.reach, axis=1)) for j, rows in self.pins.blocks())

    @staticmethod
    def _add_block(on_reach: np.ndarray, coefs: np.ndarray, j: int, rows: np.ndarray) -> None:
        """One block's term of phi0 on S: the one arithmetic of a map and of
        ``phi_levels``' level 0 there."""
        on_reach += coefs[j: j + len(rows)] @ rows

    def _sweeps(self, n_levels: int) -> bool:
        """Whether fields at ``n_levels`` levels after level 0 are swept:
        m * n_levels > KRYLOV_FIELD_RATIO * n_steps, with m the size of the
        maps' basis."""
        return self.pins.m * n_levels > KRYLOV_FIELD_RATIO * self.n_steps

    def _swept(self, init: np.ndarray, exit_series: np.ndarray, levels,
               backward: bool) -> np.ndarray:
        """The reference sweep from ``init`` at each of ``levels``, one flat
        state per row in the order of ``levels``."""
        snapshots = heat._run_sweep(self.grid, self.time_grid, init, exit_series, levels,
                                    backward=backward, op=self.operator).snapshots
        return np.array([snapshots[n].data for n in levels])

    def phi_levels(self, exit_series: np.ndarray, levels) -> np.ndarray:
        """phi at each of ``levels``, one flat state per row, as
        ``ModalStep.phi_levels``. Level 0 on S is formed as a map forms it,
        so a map's psi0 is m0 over this level 0 to the last bit: a product
        of a block with W's rows on S need not match the same entries of its
        product with the whole rows."""
        if self._sweeps(np.count_nonzero(levels)):
            return self._swept(np.full(self.grid.n_flat, exit_series[-1]), exit_series,
                               levels, backward=True)
        levels = list(levels)
        excess = exit_series[1:] - exit_series[-1]
        coefs = np.stack([self.pins.power_sums(excess[n:]) for n in levels], axis=1) * self.b_adj
        on_reach, visit = None, None
        if 0 in levels:
            level0 = np.ascontiguousarray(coefs[:, levels.index(0)])
            on_reach = np.zeros(len(self.reach))
            if self.pins.on_nodes is None:  # gathered from the replay below
                def visit(j, rows):
                    self._add_block(on_reach, level0, j, rows.take(self.reach, axis=1))
            else:
                for j, rows in self._on_reach():
                    self._add_block(on_reach, level0, j, rows)
        rows = self.pins.combine(coefs, visit)
        rows += exit_series[-1]
        if on_reach is not None:
            on_reach += exit_series[-1]
            rows[levels.index(0), self.reach] = on_reach
        rows[:, self.operator.pinned[0]] = exit_series[levels]
        return rows

    def map(self, exit_series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """As ``ModalStep.map``, reading the basis on S alone: phi0 on S as
        ``phi_levels``' level 0 there, 1 off S, where m0 / phi0 is m0
        itself: 0 (of m0's sign)."""
        reach, nv = self.reach, self.grid.n_vertices
        coefs = self.pins.power_sums(exit_series[1:] - exit_series[-1]) * self.b_adj
        on_reach = np.zeros(len(reach))
        for j, rows in self._on_reach():
            self._add_block(on_reach, coefs, j, rows)
        on_reach += exit_series[-1]
        phi0 = np.ones(self.grid.n_flat)
        phi0[reach] = on_reach
        psi0 = psi_initial(self.m0, GridField(self.grid, phi0))

        # W^T H u^1 over S's interior nodes; S's vertices come first. One dot
        # per vector: a block's product rounds differently and moved F in
        # its last bits on the street lattice
        k = np.searchsorted(reach, nv)
        inner = reach[k:]
        weighted = self.pins.h[inner - nv] * self._level_one(psi0)[inner]
        products = np.array([np.dot(w[k:], weighted)
                             for _, rows in self._on_reach() for w in rows])
        trace = np.empty(self.n_steps + 1)
        trace[0] = psi0[self.grid.exit_adjacent_index]
        # |e_adj|_H = sqrt(h_adj)
        trace[1:] = self.pins.series(products) / self.pins.norm
        return psi0, trace

    def psi_levels(self, psi0: np.ndarray, levels) -> np.ndarray:
        """The forward sweep from psi0 at each of ``levels`` (each >= 1), one
        flat state per row, as ``ModalStep.psi_levels``."""
        if self._sweeps(len(levels)):
            return self._swept(psi0, np.zeros(self.n_steps + 1), levels, backward=False)
        # the density's basis needs about as many vectors as the maps'
        density = _LanczosBasis(self.operator, self._level_one(psi0), self.n_steps,
                                near=self.pins.m)
        return density.combine(density.powers([n - 1 for n in levels]))

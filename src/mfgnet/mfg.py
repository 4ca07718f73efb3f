"""Game layer: arrival cost, quorum rule, cumulative arrival flow, the
fixed-point iteration on the start time, and recovery of the value/density
fields from the two heat sweeps.

The pipeline for one candidate start time T is: build the cost of arriving
at each instant, sweep the value potential backward, sweep the density
potential forward, accumulate the exit flux into the arrival distribution F,
and read off the first time F strictly exceeds the quorum fraction. The
equilibrium is a fixed point of that map, iterated until two successive
candidates agree to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonpositivePhi, NumericalFailure
from .grid import (
    GridField,
    SpatialGrid,
    TimeGrid,
    build_grid,
    build_time_grid,
    integrate,
    normalize_mass,
    sample_density,
)
from .heat import (
    HeatSweep,
    ModalStep,
    modal_pays,
    psi_initial,
    solve_backward_phi,
    solve_forward_psi,
)
from .network import NetworkTopology

__all__ = [
    "CostSpec",
    "ProblemSpec",
    "DiscreteProblem",
    "EquilibriumResult",
    "cost",
    "discretize",
    "cumulative_flow",
    "quorum_time",
    "psi_map",
    "PsiMapResult",
    "fixed_point",
    "recover_um",
    "residual_mass_error",
    "refine_spec",
    "drift_from_matrix",
    "density_drift",
    "DriftSeries",
]


@dataclass(frozen=True)
class CostSpec:
    """Piecewise-linear arrival cost: reputation lateness past the scheduled
    time, lateness past the actual start, and waiting before the start.
    Each term vanishes for nonpositive argument."""

    t0: float
    t_max: float
    c1: float
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        if not 0 <= self.t0 < self.t_max:
            raise ValueError(f"need 0 <= t0 < t_max, got t0={self.t0}, t_max={self.t_max}")
        if min(self.c1, self.c2, self.c3) < 0:
            raise ValueError("cost coefficients must be nonnegative")


def cost(s, t_start: float, spec: CostSpec):
    """Arrival cost at time(s) ``s`` given the meeting starts at ``t_start``."""
    s = np.asarray(s, dtype=float)
    out = (spec.c1 * np.maximum(s - spec.t0, 0.0)
           + spec.c2 * np.maximum(s - t_start, 0.0)
           + spec.c3 * np.maximum(t_start - s, 0.0))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to compute an equilibrium on one network."""

    topology: NetworkTopology
    cost: CostSpec
    theta: float
    m0: object                      # callable of ambient positions, or TabulatedDensity
    h_target: float
    cfl_factor: float = 0.25
    tol: float = 1e-4
    t_init: float | None = None     # default: t_max
    max_iters: int = 50

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 0 < self.cfl_factor <= 0.5:
            raise ValueError(f"cfl_factor must lie in (0, 1/2], got {self.cfl_factor}")
        if self.t_init is not None and not self.cost.t0 <= self.t_init <= self.cost.t_max:
            raise ValueError(f"t_init={self.t_init} outside [{self.cost.t0}, {self.cost.t_max}]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class DiscreteProblem:
    """A ProblemSpec bound to concrete spatial/temporal grids."""

    spec: ProblemSpec
    grid: SpatialGrid
    time_grid: TimeGrid
    m0: GridField  # normalized
    modal: ModalStep | None = field(default=None, repr=False)  # built by psi_map


def discretize(spec: ProblemSpec) -> DiscreteProblem:
    grid = build_grid(spec.topology, spec.h_target)
    time_grid = build_time_grid(spec.cost.t_max, grid.min_h, spec.cfl_factor)
    m0 = normalize_mass(grid, sample_density(grid, spec.m0))
    return DiscreteProblem(spec=spec, grid=grid, time_grid=time_grid, m0=m0)


def cumulative_flow(psi, c_T, grid: SpatialGrid, time_grid: TimeGrid) -> np.ndarray:
    """Discrete cumulative arrival distribution on the time grid.

    F(t_n) = (dt/h0) * sum_{k<=n} exp(c_T(t_k)) * psi_k(exit-adjacent node).
    ``psi`` may be a per-level array of exit-adjacent values or a sequence
    of GridField levels; ``c_T`` a callable of time or a per-level array of
    cost values.
    """
    if isinstance(psi, np.ndarray):
        trace = psi
    else:
        idx = grid.exit_adjacent_index
        trace = np.array([f.data[idx] for f in psi])
    values = c_T(time_grid.times) if callable(c_T) else np.asarray(c_T, dtype=float)
    weights = np.exp(values[: len(trace)])
    return np.cumsum(weights * trace) * (time_grid.dt / grid.exit_h)


def quorum_time(f_series: np.ndarray, theta: float, t0: float, t_max: float,
                time_grid: TimeGrid) -> float:
    """First grid time at which F strictly exceeds theta, clamped to
    [t0, t_max]; t_max when the quorum is never reached."""
    above = f_series > theta
    if not above.any():
        return t_max
    t_cross = int(np.argmax(above)) * time_grid.dt
    if t_cross < t0:
        return t0
    return min(t_cross, t_max)


@dataclass
class PsiMapResult:
    """One evaluation of the candidate-time map, with the sweeps behind it
    (None when the map was evaluated from the modal step)."""

    t_input: float
    t_star: float
    f_series: np.ndarray
    crossing_level: int | None
    phi: HeatSweep | None
    psi: HeatSweep | None


def psi_map(t_candidate: float, problem: DiscreteProblem, snapshot_levels=(),
            record_full: bool = False, track_min: bool = False) -> PsiMapResult:
    """Candidate start time -> cost -> backward sweep -> forward sweep ->
    arrival distribution -> quorum time.

    ``record_full`` keeps every level of phi (the density drift needs it);
    psi's levels are never kept whole. When no field is asked for and
    ``modal_pays`` on the grids, both sweeps are replaced by the problem's
    ModalStep (built on first use), which yields only the exit traces.
    """
    spec = problem.spec
    if not spec.cost.t0 <= t_candidate <= spec.cost.t_max:
        raise ValueError(f"candidate time {t_candidate} outside [{spec.cost.t0}, {spec.cost.t_max}]")
    grid, time_grid = problem.grid, problem.time_grid
    c_T = lambda s: cost(s, t_candidate, spec.cost)  # noqa: E731

    if not (snapshot_levels or record_full or track_min) and modal_pays(grid, time_grid):
        if problem.modal is None:
            problem.modal = ModalStep(grid, time_grid)
        exit_series = np.exp(np.asarray(c_T(time_grid.times), dtype=float))
        phi0 = GridField(grid, problem.modal.phi_initial(exit_series))
        trace = problem.modal.exit_adjacent_trace(psi_initial(problem.m0, phi0))
        phi = psi = None
    else:
        phi = solve_backward_phi(grid, time_grid, c_T, snapshot_levels=snapshot_levels,
                                 record_full=record_full, track_min=track_min)
        psi = solve_forward_psi(grid, time_grid, problem.m0, phi.initial,
                                snapshot_levels=snapshot_levels, track_min=track_min)
        trace = psi.exit_adjacent
    f_series = cumulative_flow(trace, c_T, grid, time_grid)
    if not np.isfinite(f_series[-1]):
        raise NumericalFailure("arrival distribution is not finite; the sweeps diverged")
    above = f_series > spec.theta
    crossing = int(np.argmax(above)) if above.any() else None
    t_star = quorum_time(f_series, spec.theta, spec.cost.t0, spec.cost.t_max, time_grid)
    return PsiMapResult(t_input=t_candidate, t_star=t_star, f_series=f_series,
                        crossing_level=crossing, phi=phi, psi=psi)


def recover_um(phi: GridField, psi: GridField) -> tuple[GridField, GridField]:
    """Map the heat pair back to the value function u = ln(phi) and the
    density m = phi * psi, nodewise."""
    if float(phi.data.min()) <= 0.0:
        raise NonpositivePhi(f"cannot take log of min value {phi.data.min()}")
    u = GridField(phi.grid, np.log(phi.data), phi.time_label)
    m = GridField(phi.grid, phi.data * psi.data, phi.time_label)
    return u, m


def residual_mass_error(m_final: GridField, theta: float, grid: SpatialGrid) -> float:
    """|1 - theta - remaining mass|: how far the exited fraction is from the
    quorum fraction at the equilibrium time."""
    return abs(1.0 - theta - integrate(grid, m_final))


@dataclass
class EquilibriumResult:
    """Converged (or best-effort) equilibrium with diagnostics."""

    t_star: float
    converged: bool
    iterates: list[float]
    t_init: float
    capture_t_input: float      # candidate used by the field-capture solve
    f_series: np.ndarray
    times: np.ndarray
    equilibrium_level: int
    residual_mass: float
    fields: dict[str, dict[int, GridField]]
    min_phi: float
    min_psi: float
    phi_exit_values: np.ndarray
    phi_exit_adjacent: np.ndarray
    psi_exit_adjacent: np.ndarray
    grid: SpatialGrid
    time_grid: TimeGrid
    cycle_detected: bool = False
    notes: list[str] = field(default_factory=list)
    phi_full: np.ndarray | None = None  # every level of the capture's phi, if recorded

    @property
    def iterations(self) -> int:
        return len(self.iterates)


def fixed_point(spec: ProblemSpec | DiscreteProblem, snapshot_levels=(), progress=None,
                record_full: bool = False) -> EquilibriumResult:
    """Iterate the candidate-time map from t_init until two successive
    values agree within ``spec.tol`` (or max_iters / a 2-cycle stops it).

    ``spec`` may already be discretized. Never raises on non-convergence:
    the best iterate is returned with ``converged=False`` and a note. After
    the loop the last solve is replayed once by sweeping, to capture fields
    at the equilibrium level, at ``snapshot_levels`` and, with
    ``record_full``, phi at every level.
    """
    problem = spec if isinstance(spec, DiscreteProblem) else discretize(spec)
    spec = problem.spec
    t_cur = spec.t_init if spec.t_init is not None else spec.cost.t_max
    t_init = t_cur
    iterates: list[float] = []
    notes: list[str] = []
    converged = False
    cycle = False
    t_prev_input: float | None = None

    for _ in range(spec.max_iters):
        res = psi_map(t_cur, problem)
        t_next = res.t_star
        iterates.append(t_next)
        if progress is not None:
            progress(len(iterates), t_next)
        if abs(t_next - t_cur) <= spec.tol:
            converged = True
            t_report, capture_input = t_next, t_cur
            break
        if t_prev_input is not None and t_next == t_prev_input:
            cycle = True
            t_report = 0.5 * (t_cur + t_next)
            capture_input = t_report
            notes.append(
                f"2-cycle between {t_cur:.6g} and {t_next:.6g}; reporting the midpoint")
            break
        t_prev_input = t_cur
        t_cur = t_next
    else:
        t_report, capture_input = iterates[-1], t_cur
        notes.append(f"no convergence within {spec.max_iters} iterations")

    level = problem.time_grid.level_of(t_report)
    wanted = {0, level} | set(snapshot_levels)
    cap = psi_map(capture_input, problem, snapshot_levels=wanted, track_min=True,
                  record_full=record_full)

    fields: dict[str, dict[int, GridField]] = {"phi": {}, "psi": {}, "u": {}, "m": {}}
    for n in sorted(wanted):
        phi_n, psi_n = cap.phi.level(n), cap.psi.level(n)
        u_n, m_n = recover_um(phi_n, psi_n)
        fields["phi"][n], fields["psi"][n] = phi_n, psi_n
        fields["u"][n], fields["m"][n] = u_n, m_n

    e_h = residual_mass_error(fields["m"][level], spec.theta, problem.grid)
    if not (np.isfinite(e_h) and np.isfinite(cap.f_series).all()):
        raise NumericalFailure("non-finite values in the converged solution")

    return EquilibriumResult(
        t_star=t_report, converged=converged, iterates=iterates, t_init=t_init,
        capture_t_input=capture_input,
        f_series=cap.f_series, times=problem.time_grid.times,
        equilibrium_level=level, residual_mass=e_h, fields=fields,
        min_phi=cap.phi.min_value, min_psi=cap.psi.min_value,
        phi_exit_values=cap.phi.exit_values,
        phi_exit_adjacent=cap.phi.exit_adjacent,
        psi_exit_adjacent=cap.psi.exit_adjacent,
        grid=problem.grid, time_grid=problem.time_grid,
        cycle_detected=cycle, notes=notes, phi_full=cap.phi.full)


def refine_spec(spec: ProblemSpec, h_target: float) -> ProblemSpec:
    """Same problem, different spatial resolution."""
    return replace(spec, h_target=h_target)


class DriftSeries:
    """Optimal drift -du/dx per edge node per time level: centered
    differences inside each edge, one-sided at its endpoints. Node values
    are direction-aware (per edge), unlike vertex-shared GridField storage.
    """

    def __init__(self, grid: SpatialGrid, values: np.ndarray, dt: float | None = None):
        self.grid = grid
        self.values = values  # (n_levels, n_edge_nodes)
        self.dt = dt
        counts = grid.n_cells + 1
        self.node_offsets = np.concatenate([[0], np.cumsum(counts)])
        self.edge_h = grid.h
        self.edge_cells = grid.n_cells

    @property
    def n_levels(self) -> int:
        return self.values.shape[0]

    def level_at(self, t: float) -> int:
        if self.dt is None:
            raise ValueError("this drift series was built without a time step")
        return min(max(int(t / self.dt), 0), self.n_levels - 1)

    def edge_nodes(self, level: int, edge_id: int) -> np.ndarray:
        sl = slice(self.node_offsets[edge_id], self.node_offsets[edge_id + 1])
        return self.values[level, sl]

    def eval(self, edge_ids: np.ndarray, ys: np.ndarray, level: int) -> np.ndarray:
        """Linear interpolation along each agent's edge at one time level."""
        h = self.edge_h[edge_ids]
        k = np.clip((ys / h).astype(int), 0, self.edge_cells[edge_ids] - 1)
        frac = ys / h - k
        base = self.node_offsets[edge_ids] + k
        row = self.values[level]
        return (1.0 - frac) * row[base] + frac * row[base + 1]


def _derivative_plan(grid: SpatialGrid):
    """Flat-index plan mapping grid nodes to per-edge-node difference
    quotients (left source, right source, 1/denominator)."""
    left, right, inv_den = [], [], []
    for e in grid.topology.edges:
        sl = grid.islice(e.id)
        ns = [e.tail, *range(sl.start, sl.stop), e.head]
        h = grid.h[e.id]
        left.extend([ns[0], *ns[:-2], ns[-2]])
        right.extend([ns[1], *ns[2:], ns[-1]])
        inv_den.extend([1.0 / h, *([1.0 / (2 * h)] * (len(ns) - 2)), 1.0 / h])
    return np.asarray(left), np.asarray(right), np.asarray(inv_den)


def drift_from_matrix(grid: SpatialGrid, u_matrix: np.ndarray, dt: float | None = None) -> DriftSeries:
    """Differentiate value fields, one level per row of ``u_matrix``, into
    the feedback drift -du/dx."""
    left, right, inv_den = _derivative_plan(grid)
    values = -(u_matrix[:, right] - u_matrix[:, left]) * inv_den
    return DriftSeries(grid, values, dt)


def density_drift(grid: SpatialGrid, phi_matrix: np.ndarray, dt: float | None = None) -> DriftSeries:
    """Drift of the population density implied by the heat pair.

    Substituting m = phi*psi into the two heat equations shows the density
    is transported with velocity +2 d/dx ln(phi) (the factor 2 is the unit
    diffusivity times the pair's exponent). This, not the raw feedback form
    -d/dx ln(phi), is the drift a particle simulation must use to reproduce
    the arrival flow of the computed density; the two differ once the
    arrival cost is nonzero.
    """
    return drift_from_matrix(grid, -2.0 * np.log(phi_matrix), dt)

"""Game layer: arrival cost, quorum rule, cumulative arrival flow, the
fixed-point iteration on the start time, and recovery of the value/density
fields from the two heat sweeps.

The pipeline for one candidate start time T is: build the cost of arriving
at each instant, sweep the value potential backward, sweep the density
potential forward, accumulate the exit flux into the arrival distribution F,
and read off the first time F strictly exceeds the quorum fraction. The
equilibrium is a fixed point of that map, iterated until two successive
candidates agree to tolerance. Each problem evaluates its maps and fields
with one evaluator, chosen from its grids: ``heat.ModalStep`` where
``heat.modal_pays``, else ``lanczos.LanczosStep``. On a LanczosStep with a
spare CPU, the fields phase runs on two: a forked worker evaluates psi's
fields, whose basis is their own, while the caller evaluates phi's, forms
u and runs ``fixed_point``'s ``on_value``; m follows once psi arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import NonpositivePhi, NumericalFailure, ValidationError
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
from .heat import KRYLOV_TOL, Evaluator, ModalStep, modal_pays
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
    "map_fields",
    "map_phi",
    "fixed_point",
    "recover_um",
    "residual_mass_error",
    "drift_from_matrix",
    "density_drift",
    "DriftSeries",
]

# Bound on phi's exit series exp(c - C): it stays within exp(+-650), about
# 1e+-282, which leaves 25 decades of the float range for psi0 = m0 / phi0
# and the flow's sums, which scale it by the crowd's density and the levels.
# So a solve accepts costs that span up to twice this.
MAX_HALF_COST_RANGE = 650.0


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
        if not (math.isfinite(self.t0) and math.isfinite(self.t_max)
                and 0 <= self.t0 < self.t_max):
            raise ValueError(f"need finite 0 <= t0 < t_max, got t0={self.t0}, t_max={self.t_max}")
        if not all(c >= 0 for c in (self.c1, self.c2, self.c3)):
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
    evaluator: Evaluator | None = field(default=None, repr=False)  # built by _evaluator


def _max_cost_range(spec: CostSpec) -> float:
    """The largest range of the arrival cost over [0, t_max] for any start
    time in [t0, t_max]: the cost is nonnegative and convex in the arrival
    time, so it peaks at time 0 (c3 T) or t_max (c1 (t_max - t0) + c2 (t_max - T))."""
    return max(spec.c3 * spec.t_max, (spec.c1 + spec.c2) * (spec.t_max - spec.t0))


def discretize(spec: ProblemSpec) -> DiscreteProblem:
    """Bind ``spec`` to its grids. Raises ValidationError naming problem.cost
    when the cost's range exceeds 2 * MAX_HALF_COST_RANGE, before allocating."""
    span = _max_cost_range(spec.cost)
    if span > 2 * MAX_HALF_COST_RANGE:
        raise ValidationError(
            "problem.cost", f"the arrival cost spans up to {span:.6g} over [0, t_max], more "
            f"than the {2 * MAX_HALF_COST_RANGE:g} over which exp(cost) stays inside the "
            "float range once shifted; lower the cost slopes or t_max")
    grid = build_grid(spec.topology, spec.h_target)
    time_grid = build_time_grid(spec.cost.t_max, grid.min_h, spec.cfl_factor)
    m0 = normalize_mass(sample_density(grid, spec.m0))
    return DiscreteProblem(spec=spec, grid=grid, time_grid=time_grid, m0=m0)


def cumulative_flow(trace: np.ndarray, weights: np.ndarray, grid: SpatialGrid,
                    time_grid: TimeGrid) -> np.ndarray:
    """Discrete cumulative arrival distribution on the time grid.

    F(t_n) = (dt/h0) * sum_{k<=n} exp(c_T(t_k)) * psi_k(exit-adjacent node),
    from psi's exit-adjacent ``trace`` and the per-level ``weights``
    exp(c_T(t_n)), phi's exit series; a constant factor moved from the
    weights to the trace leaves F as it is.
    """
    return np.cumsum(weights[: len(trace)] * trace) * (time_grid.dt / grid.exit_h)


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
    """One evaluation of the candidate-time map, with what fixes its fields
    at every level: phi's exit series exp(c_T(t_n) - C), which fixes phi
    alone, psi at level 0 (a flat state), and psi next to the exit on every
    level. ``map_phi`` and ``map_fields`` evaluate the fields.

    C (``cost_shift``, from ``_cost_shift``) keeps the exponentials inside
    the float range: phi is exp(-C) times the value potential and psi exp(C)
    times the density potential, F and m = phi * psi do not depend on C, and
    the value function is u = ln(phi) + C."""

    t_input: float
    t_star: float
    f_series: np.ndarray
    crossing_level: int | None
    exit_series: np.ndarray
    cost_shift: float
    psi0: np.ndarray
    psi_exit_adjacent: np.ndarray


def _evaluator(problem: DiscreteProblem) -> Evaluator:
    """The problem's evaluator of the sweeps, built on first use: a
    ModalStep where ``modal_pays`` on its grids, else a LanczosStep."""
    if problem.evaluator is None:
        grid, time_grid, m0 = problem.grid, problem.time_grid, problem.m0
        if modal_pays(grid, time_grid):
            problem.evaluator = ModalStep(grid, time_grid, m0)
        else:
            # imported here: every process compiles what it imports when no
            # bytecode is cached, and only these grids need this module
            from .lanczos import LanczosStep

            problem.evaluator = LanczosStep(grid, time_grid, m0)
    return problem.evaluator


def map_phi(res: PsiMapResult, problem: DiscreteProblem, levels) -> np.ndarray:
    """phi of the map ``res`` at ``levels`` (increasing, distinct), one flat
    state per row, from the exit series alone, level 0 included."""
    levels = np.asarray(levels, dtype=int)
    if not len(levels):
        return np.empty((0, problem.grid.n_flat))
    return _evaluator(problem).phi_levels(res.exit_series, levels.tolist())


def _forks_psi(step: Evaluator, later: list[int]) -> bool:
    """Whether ``map_fields`` evaluates psi at the levels ``later`` in a
    forked worker: on a LanczosStep, whose psi fields build a basis of their
    own, when ``workers.spare_cpus`` finds a CPU for it."""
    if not later or isinstance(step, ModalStep):
        return False  # a modal run loads neither module
    from . import workers
    from .lanczos import LanczosStep

    return isinstance(step, LanczosStep) and workers.spare_cpus() > 0


def map_fields(res: PsiMapResult, problem: DiscreteProblem, levels,
               on_phi=None) -> tuple[dict[int, GridField], dict[int, GridField]]:
    """phi and psi of the map ``res`` at each of ``levels``, keyed by level
    in increasing order, as GridFields: ``map_phi``, and psi forward from
    the map's psi0. psi's level 0 is the map's own psi0 array, not a copy
    stacked with the later levels: on the street lattice that copy set a
    run's peak RSS.

    ``on_phi(phi, forked)``, when given, runs on phi's fields before psi's
    later levels are evaluated. Where ``_forks_psi``, a worker forked by
    ``workers.run_forked`` evaluates them meanwhile, holding what the caller
    would have (a ring of four basis vectors and the rows), and returns the
    rows' bytes, read into one buffer and viewed here without a copy;
    ``on_phi`` then runs beside it, with ``forked`` true, and should fork
    nothing."""
    grid, levels = problem.grid, sorted(set(levels))
    later = [n for n in levels if n > 0]
    step = _evaluator(problem)

    def phi_fields(forked: bool):
        phi = {n: GridField(grid, row) for n, row in zip(levels, map_phi(res, problem, levels))}
        if on_phi is not None:
            on_phi(phi, forked)
        return phi

    if _forks_psi(step, later):
        from . import workers

        phi, (body,) = workers.run_forked(
            partial(phi_fields, True), [lambda: step.psi_levels(res.psi0, later).data])
        rows = np.frombuffer(body).reshape(len(later), grid.n_flat)
    else:
        phi = phi_fields(False)
        rows = step.psi_levels(res.psi0, later) if later else []
    psi = [res.psi0] * (len(levels) - len(later)) + list(rows)
    return phi, {n: GridField(grid, row) for n, row in zip(levels, psi)}


def _clip_rounding(trace: np.ndarray, psi0: np.ndarray) -> None:
    """Zero, in place, the negatives of an exit trace that lie within the
    evaluators' accuracy target of 0, relative to max(psi0), which bounds
    every level of the forward sweep. The exact trace is >= 0 by the minimum
    principle, so a larger negative is a failure."""
    floor = -KRYLOV_TOL * float(np.abs(psi0).max())
    if trace.min() < floor:
        raise NumericalFailure(f"exit trace reaches {trace.min():.3g}, below {floor:.3g}")
    trace[trace < 0] = 0.0


def _cost_shift(c: np.ndarray) -> float:
    """C of the exit series exp(c - C): 0 while exp(c) stays within
    exp(MAX_HALF_COST_RANGE), so phi and psi are the pair itself, else the
    middle of c's range, which ``discretize`` bounds by twice that."""
    top = float(c.max())
    return 0.0 if top <= MAX_HALF_COST_RANGE else 0.5 * (top + float(c.min()))


def psi_map(t_candidate: float, problem: DiscreteProblem) -> PsiMapResult:
    """Candidate start time -> cost -> backward sweep -> forward sweep ->
    arrival distribution -> quorum time.

    The problem's ``_evaluator`` evaluates only what a map needs: psi at
    level 0 = m0 / phi0 (on a LanczosStep, phi0 only where m0 is nonzero)
    and psi's exit trace. ``map_phi`` and ``map_fields`` evaluate the
    result's fields.
    """
    spec = problem.spec
    if not spec.cost.t0 <= t_candidate <= spec.cost.t_max:
        raise ValueError(f"candidate time {t_candidate} outside [{spec.cost.t0}, {spec.cost.t_max}]")
    grid, time_grid = problem.grid, problem.time_grid
    c = np.asarray(cost(time_grid.times, t_candidate, spec.cost), dtype=float)
    shift = _cost_shift(c)
    exit_series = np.exp(np.subtract(c, shift, out=c), out=c)

    psi0, trace = _evaluator(problem).map(exit_series)
    _clip_rounding(trace, psi0)
    f_series = cumulative_flow(trace, exit_series, grid, time_grid)
    if not np.isfinite(f_series[-1]):
        raise NumericalFailure("arrival distribution is not finite; the sweeps diverged")
    above = f_series > spec.theta
    crossing = int(np.argmax(above)) if above.any() else None
    t_star = quorum_time(f_series, spec.theta, spec.cost.t0, spec.cost.t_max, time_grid)
    return PsiMapResult(t_input=t_candidate, t_star=t_star, f_series=f_series,
                        crossing_level=crossing, exit_series=exit_series,
                        cost_shift=shift, psi0=psi0, psi_exit_adjacent=trace)


def _value(phi: GridField) -> GridField:
    """The value function u = ln(phi), nodewise."""
    if float(phi.data.min()) <= 0.0:
        raise NonpositivePhi(f"cannot take log of min value {phi.data.min()}")
    return GridField(phi.grid, np.log(phi.data))


def recover_um(phi: GridField, psi: GridField) -> tuple[GridField, GridField]:
    """Map the heat pair back to the value function u = ln(phi) and the
    density m = phi * psi, nodewise."""
    return _value(phi), GridField(phi.grid, phi.data * psi.data)


def residual_mass_error(m_final: GridField, theta: float) -> float:
    """|1 - theta - remaining mass|: how far the exited fraction is from the
    quorum fraction at the equilibrium time."""
    return abs(1.0 - theta - integrate(m_final))


@dataclass
class EquilibriumResult:
    """Converged (or best-effort) equilibrium with diagnostics."""

    t_star: float
    converged: bool
    iterates: list[float]
    t_init: float
    map: PsiMapResult           # the capture candidate's map: F and every field
    times: np.ndarray
    equilibrium_level: int
    residual_mass: float
    fields: dict[str, dict[int, GridField]]
    grid: SpatialGrid
    time_grid: TimeGrid
    cycle_detected: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.iterates)


def fixed_point(spec: ProblemSpec | DiscreteProblem, snapshot_levels=(),
                progress=None, on_value=None) -> EquilibriumResult:
    """Iterate the candidate-time map from t_init until two successive
    values agree within ``spec.tol`` (or max_iters / a 2-cycle stops it).

    ``spec`` may already be discretized. Never raises on non-convergence:
    the best iterate is returned with ``converged=False`` and a note. The
    result keeps the capture candidate's map (``map``): the last iteration's
    when the loop converged; a candidate it never mapped (a 2-cycle's
    midpoint, or the last iterate after ``max_iters``) is mapped once more.
    ``fields`` holds phi, psi, u and m from one ``map_fields`` at level 0,
    the equilibrium level and ``snapshot_levels``; ``map_phi`` and
    ``map_fields`` evaluate the map at other levels.

    ``progress(k, t)`` runs after each iteration k, whose map gave t.
    ``on_value(result, forked)`` runs once the result's fields hold phi and
    u at every level, as ``map_fields``' ``on_phi``: before psi and m are
    formed, and with ``forked`` true beside psi's worker, when it should
    fork nothing. Until ``fixed_point`` returns, ``residual_mass`` is NaN.
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

    if res.t_input != capture_input:
        res = psi_map(capture_input, problem)
    if not np.isfinite(res.f_series).all():
        raise NumericalFailure("non-finite values in the converged solution")
    level = problem.time_grid.level_of(t_report)
    fields: dict[str, dict[int, GridField]] = {"phi": {}, "psi": {}, "u": {}, "m": {}}
    result = EquilibriumResult(
        t_star=t_report, converged=converged, iterates=iterates, t_init=t_init, map=res,
        times=problem.time_grid.times, equilibrium_level=level, residual_mass=math.nan,
        fields=fields, grid=problem.grid, time_grid=problem.time_grid,
        cycle_detected=cycle, notes=notes)

    def value(phi: dict[int, GridField], forked: bool) -> None:
        fields["phi"] = phi
        for n in phi:
            fields["u"][n] = _value(phi[n])
            fields["u"][n].data += res.cost_shift  # phi is exp(-C) times the value potential
        if on_value is not None:
            on_value(result, forked)

    phi, fields["psi"] = map_fields(res, problem, {0, level} | set(snapshot_levels), value)
    for n in phi:
        fields["m"][n] = GridField(problem.grid, phi[n].data * fields["psi"][n].data)
    result.residual_mass = residual_mass_error(fields["m"][level], spec.theta)
    if not np.isfinite(result.residual_mass):
        raise NumericalFailure("non-finite values in the converged solution")
    return result


class DriftSeries:
    """Optimal drift -du/dx per edge node at chosen time levels: centered
    differences inside each edge, one-sided at its endpoints. Node values
    are direction-aware (per edge), unlike vertex-shared GridField storage.
    Row i holds PDE level ``levels[i]`` (increasing; by default level i).
    """

    def __init__(self, grid: SpatialGrid, values: np.ndarray, dt: float | None = None,
                 levels=None):
        self.grid = grid
        self.values = values  # (n_rows, len(grid.edge_nodes)), in that layout
        self.dt = dt
        levels = np.arange(len(values)) if levels is None else np.asarray(levels)
        self.row_of = np.full(levels[-1] + 1, -1)
        self.row_of[levels] = np.arange(len(levels))
        # per edge, as floats: its step, last cell index and first node offset
        self.edge_table = np.array([grid.h, grid.n_cells - 1, grid.edge_starts[:-1]], dtype=float)

    def level_at(self, t: float) -> int:
        """The row of level int(t / dt), clamped to [0, last level]."""
        if self.dt is None:
            raise ValueError("this drift series was built without a time step")
        row = self.row_of[min(max(int(t / self.dt), 0), len(self.row_of) - 1)]
        if row < 0:
            raise KeyError(f"the drift series holds no row for time {t}")
        return row

    def eval(self, level: int, ys: np.ndarray, h: np.ndarray, last_cell: np.ndarray,
             offset: np.ndarray) -> np.ndarray:
        """Linear interpolation along each agent's edge at one time level;
        ``ys`` are arclengths in [0, edge length], the other arrays are the
        rows of ``edge_table`` at each agent's edge. The cell index stays a
        float until it indexes the row, where it is whole: float operands
        are cheaper than mixed ones, and the values are the same."""
        frac = ys / h
        k = np.trunc(frac)
        np.minimum(k, last_cell, out=k)
        frac -= k
        k += offset  # the node at the start of each agent's cell
        k = k.astype(int)
        row = self.values[level]
        # (1 - frac) * left + frac * right, in place in the gathered arrays
        left, right = row.take(k), row[1:].take(k)
        right *= frac
        np.subtract(1.0, frac, out=frac)
        left *= frac
        left += right
        return left


def _derivative_plan(grid: SpatialGrid):
    """Flat-index plan mapping grid nodes to per-edge-node difference
    quotients (left source, right source, 1/denominator), in the grid's
    ``edge_nodes`` layout: centred inside each edge, one-sided at its ends."""
    first, last = grid.edge_starts[:-1], grid.edge_starts[1:] - 1
    slot = np.arange(grid.edge_starts[-1])
    left, right = slot - 1, slot + 1
    left[first], right[last] = first, last
    inv_den = np.repeat(1.0 / (2 * grid.h), grid.n_cells + 1)
    inv_den[first] = inv_den[last] = 1.0 / grid.h
    return grid.edge_nodes[left], grid.edge_nodes[right], inv_den


def drift_from_matrix(grid: SpatialGrid, u_matrix: np.ndarray, dt: float | None = None,
                      levels=None) -> DriftSeries:
    """Differentiate value fields, one level per row of ``u_matrix`` (the
    rows of ``levels``, as ``DriftSeries`` takes them), into the feedback
    drift -du/dx."""
    left, right, inv_den = _derivative_plan(grid)
    values = -(u_matrix[:, right] - u_matrix[:, left]) * inv_den
    return DriftSeries(grid, values, dt, levels)


def density_drift(grid: SpatialGrid, phi_matrix: np.ndarray, dt: float | None = None,
                  levels=None) -> DriftSeries:
    """Drift of the population density implied by the heat pair.

    Substituting m = phi*psi into the two heat equations shows the density
    is transported with velocity +2 d/dx ln(phi) (the factor 2 is the unit
    diffusivity times the pair's exponent). This, not the raw feedback form
    -d/dx ln(phi), is the drift a particle simulation must use to reproduce
    the arrival flow of the computed density; the two differ once the
    arrival cost is nonzero.
    """
    return drift_from_matrix(grid, -2.0 * np.log(phi_matrix), dt, levels)

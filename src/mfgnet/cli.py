"""Config ingestion, run orchestration and artifact emission.

One JSON document describes a run (schema version 1): the network, the
problem parameters, the numeric parameters and run settings. Three modes:
``solve`` computes the equilibrium and writes a summary plus CSV series;
``oracle`` additionally cross-checks the arrival distribution against the
particle simulator; ``refine-study`` repeats the solve over a ladder of
spatial steps and tabulates the diagnostics.

Exit codes: 0 ok, 2 invalid config, 3 numerical failure, 4 no convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    CflViolation,
    MFGNetError,
    NonpositivePhi,
    NumericalFailure,
    ParseError,
    StepTooCoarse,
    ValidationError,
    ZeroMass,
)
from .grid import TabulatedDensity, field_to_csv
from .mfg import (
    CostSpec,
    DiscreteProblem,
    ProblemSpec,
    density_drift,
    discretize,
    fixed_point,
    refine_spec,
)
from .montecarlo import SimConfig, estimate_arrival_cdf
from .network import build_network

__all__ = ["RunConfig", "parse_config", "emit_config", "run", "main"]

DEFAULT_H_LADDER = (0.1, 0.05, 0.025, 0.0125)
MODES = ("solve", "oracle", "refine-study")
_ORACLE_MEMORY_LIMIT = 2 * 1024**3  # bytes of full-history storage


@dataclass(frozen=True)
class RunConfig:
    """A parsed, validated run description."""

    spec: ProblemSpec
    mode: str = "solve"
    out_dir: str = "out"
    seed: int = 0
    snapshots: int = 0          # emit fields every k-th level; 0 disables
    agents: int = 100_000
    dt_mc: float | None = None  # default: pde dt / 10
    h_ladder: tuple[float, ...] | None = None
    geometry_label: str | None = None
    m0_config: dict | None = None


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValidationError(path, f"unknown key(s): {', '.join(unknown)}")


_MISSING = object()


def _get(section: dict, key: str, path: str, kind=None, default=_MISSING):
    if key not in section:
        if default is not _MISSING:
            return default
        raise ValidationError(f"{path}.{key}", "missing required field")
    value = section[key]
    if kind is not None and not isinstance(value, kind):
        raise ValidationError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    return value


def _build_density(m0: dict):
    _check_keys(m0, {"kind", "centers", "radii", "center", "width", "edges"}, "problem.m0")
    kind = _get(m0, "kind", "problem.m0", str)
    if kind == "abs":
        return lambda pts: np.linalg.norm(pts, axis=1)
    if kind == "bumps":
        centers = np.asarray(_get(m0, "centers", "problem.m0", list), dtype=float)
        radii = np.asarray(_get(m0, "radii", "problem.m0", list), dtype=float)
        if centers.ndim != 2 or centers.shape[1] != 2 or len(radii) != len(centers):
            raise ValidationError("problem.m0", "need n centers of dim 2 and n radii")

        def bumps(pts):
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            return np.maximum(radii**2 - d2, 0.0).sum(axis=1)
        return bumps
    if kind == "hat":
        center = np.asarray(_get(m0, "center", "problem.m0", list), dtype=float)
        width = float(_get(m0, "width", "problem.m0", (int, float)))
        if width <= 0:
            raise ValidationError("problem.m0.width", "must be positive")
        return lambda pts: np.maximum(1.0 - np.linalg.norm(pts - center, axis=1) / width, 0.0)
    if kind == "tabulated":
        tables = {}
        for row in _get(m0, "edges", "problem.m0", list):
            _check_keys(row, {"edge", "arclength", "values"}, "problem.m0.edges[]")
            xs = np.asarray(row["arclength"], dtype=float)
            vs = np.asarray(row["values"], dtype=float)
            if len(xs) != len(vs) or len(xs) < 2 or (np.diff(xs) <= 0).any():
                raise ValidationError("problem.m0.edges[]",
                                      "arclength must be increasing and match values")
            tables[int(row["edge"])] = (xs, vs)
        return TabulatedDensity(tables)
    raise ValidationError("problem.m0.kind", f"unknown density kind {kind!r}")


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {literal} is not allowed")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate one JSON run description."""
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ValidationError("$", "top level must be an object")
    _check_keys(doc, {"version", "network", "problem", "numerics", "run"}, "$")
    if _get(doc, "version", "$", int) != 1:
        raise ValidationError("version", f"unsupported schema version {doc['version']}")

    net = _get(doc, "network", "$", dict)
    _check_keys(net, {"vertices", "edges", "exit_vertex", "geometry"}, "network")
    vertices = []
    for v in _get(net, "vertices", "network", list):
        _check_keys(v, {"id", "position"}, "network.vertices[]")
        pos = v.get("position")
        if not (isinstance(pos, list) and len(pos) == 2):
            raise ValidationError("network.vertices[].position", "expected [x, y]")
        vertices.append((int(v["id"]), (float(pos[0]), float(pos[1]))))
    edges = []
    for e in _get(net, "edges", "network", list):
        _check_keys(e, {"id", "tail", "head", "length"}, "network.edges[]")
        edges.append((int(e["id"]), int(e["tail"]), int(e["head"]),
                      float(e["length"]) if e.get("length") is not None else None))
    try:
        topology = build_network(vertices, edges, int(_get(net, "exit_vertex", "network", int)))
    except MFGNetError as err:
        raise ValidationError("network", str(err)) from err

    prob = _get(doc, "problem", "$", dict)
    _check_keys(prob, {"t0", "t_max", "theta", "cost", "m0"}, "problem")
    theta = float(_get(prob, "theta", "problem", (int, float)))
    if not 0 < theta < 1:
        raise ValidationError("theta", f"must lie strictly between 0 and 1, got {theta}")
    cost_doc = _get(prob, "cost", "problem", dict)
    _check_keys(cost_doc, {"c1", "c2", "c3"}, "problem.cost")
    try:
        cost_spec = CostSpec(
            t0=float(_get(prob, "t0", "problem", (int, float))),
            t_max=float(_get(prob, "t_max", "problem", (int, float))),
            c1=float(cost_doc.get("c1", 0.0)),
            c2=float(cost_doc.get("c2", 0.0)),
            c3=float(cost_doc.get("c3", 0.0)))
    except ValueError as err:
        raise ValidationError("problem", str(err)) from err
    m0_doc = _get(prob, "m0", "problem", dict)
    density = _build_density(m0_doc)

    num = _get(doc, "numerics", "$", dict)
    _check_keys(num, {"h_target", "cfl_factor", "tol", "t_init", "max_iters", "h_ladder"},
                "numerics")
    t_init = num.get("t_init")
    try:
        spec = ProblemSpec(
            topology=topology, cost=cost_spec, theta=theta, m0=density,
            h_target=float(_get(num, "h_target", "numerics", (int, float))),
            cfl_factor=float(num.get("cfl_factor", 0.25)),
            tol=float(num.get("tol", 1e-4)),
            t_init=float(t_init) if t_init is not None else None,
            max_iters=int(num.get("max_iters", 50)))
    except ValueError as err:
        raise ValidationError("numerics", str(err)) from err
    ladder = num.get("h_ladder")
    if ladder is not None:
        ladder = tuple(float(h) for h in ladder)
        if not ladder or min(ladder) <= 0:
            raise ValidationError("numerics.h_ladder", "must be a nonempty list of positive steps")

    rn = doc.get("run", {})
    _check_keys(rn, {"mode", "out_dir", "seed", "snapshots", "agents", "dt_mc"}, "run")
    mode = rn.get("mode", "solve")
    if mode not in MODES:
        raise ValidationError("run.mode", f"expected one of {MODES}, got {mode!r}")
    seed = int(rn.get("seed", 0))
    if not 0 <= seed < 2**64:
        raise ValidationError("run.seed", "must fit in an unsigned 64-bit integer")
    snapshots = int(rn.get("snapshots", 0))
    if snapshots < 0:
        raise ValidationError("run.snapshots", "must be nonnegative")
    agents = int(rn.get("agents", 100_000))
    if agents < 1:
        raise ValidationError("run.agents", "must be at least 1")
    dt_mc = rn.get("dt_mc")
    if dt_mc is not None and not float(dt_mc) > 0:
        raise ValidationError("run.dt_mc", "must be positive")

    return RunConfig(
        spec=spec, mode=mode, out_dir=str(rn.get("out_dir", "out")), seed=seed,
        snapshots=snapshots, agents=agents,
        dt_mc=float(dt_mc) if dt_mc is not None else None,
        h_ladder=ladder, geometry_label=net.get("geometry"), m0_config=m0_doc)


def emit_config(config: RunConfig) -> dict:
    """Normalized document equivalent to the parsed input; feeding it back
    through parse_config yields an equivalent RunConfig."""
    spec = config.spec
    net = {
        "vertices": [{"id": v.id, "position": [v.position[0], v.position[1]]}
                     for v in spec.topology.vertices],
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head, "length": e.length}
                  for e in spec.topology.edges],
        "exit_vertex": spec.topology.exit_vertex,
    }
    if config.geometry_label is not None:
        net["geometry"] = config.geometry_label
    doc = {
        "version": 1,
        "network": net,
        "problem": {
            "t0": spec.cost.t0, "t_max": spec.cost.t_max, "theta": spec.theta,
            "cost": {"c1": spec.cost.c1, "c2": spec.cost.c2, "c3": spec.cost.c3},
            "m0": config.m0_config,
        },
        "numerics": {
            "h_target": spec.h_target, "cfl_factor": spec.cfl_factor, "tol": spec.tol,
            "t_init": spec.t_init, "max_iters": spec.max_iters,
        },
        "run": {
            "mode": config.mode, "out_dir": config.out_dir, "seed": config.seed,
            "snapshots": config.snapshots, "agents": config.agents, "dt_mc": config.dt_mc,
        },
    }
    if config.h_ladder is not None:
        doc["numerics"]["h_ladder"] = list(config.h_ladder)
    return doc


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x)
                              for x in row) + "\n")


def _write_summary(out: Path, summary: dict) -> None:
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _solve_artifacts(config: RunConfig, out: Path, quiet: bool, problem: DiscreteProblem,
                     record_full: bool = False):
    spec = config.spec
    snapshot_levels: set[int] = set()
    if config.snapshots > 0:
        snapshot_levels = set(range(0, problem.time_grid.n_steps + 1, config.snapshots))

    progress = None if quiet else (
        lambda k, t: print(f"[mfgnet] iteration {k}: T = {t:.6g}", flush=True))
    result = fixed_point(problem, snapshot_levels=snapshot_levels, progress=progress,
                         record_full=record_full)

    _write_csv(out / "f_series.csv", "t,F",
               zip(result.times, result.f_series))
    _write_csv(out / "iterates.csv", "iteration,T",
               [(0, result.t_init)] + list(enumerate(result.iterates, start=1)))
    lvl = result.equilibrium_level
    field_to_csv(result.fields["m"][0], out / "m0.csv")
    field_to_csv(result.fields["m"][lvl], out / "m_final.csv")
    field_to_csv(result.fields["u"][lvl], out / "u_final.csv")
    if snapshot_levels:
        snapdir = out / "snapshots"
        snapdir.mkdir(exist_ok=True)
        for n in sorted(snapshot_levels):
            field_to_csv(result.fields["m"][n], snapdir / f"m_{n:08d}.csv")
            field_to_csv(result.fields["u"][n], snapdir / f"u_{n:08d}.csv")

    summary = {
        "mode": config.mode,
        "schema_version": 1,
        "converged": result.converged,
        "cycle_detected": result.cycle_detected,
        "iterations": result.iterations,
        "iterates": result.iterates,
        "t_init": result.t_init,
        "t_star": result.t_star,
        "theta": spec.theta,
        "h_target": spec.h_target,
        "dt": result.time_grid.dt,
        "n_time_steps": result.time_grid.n_steps,
        "equilibrium_level": lvl,
        "residual_mass_error": result.residual_mass,
        "tolerance": spec.tol,
        "seed": config.seed,
        "notes": result.notes,
    }
    if config.geometry_label is not None:
        summary["geometry"] = config.geometry_label
    return result, summary


def _oracle_artifacts(config: RunConfig, out: Path, quiet: bool):
    spec = config.spec
    problem = discretize(spec)
    grid, tg = problem.grid, problem.time_grid

    need = (tg.n_steps + 1) * grid.n_flat * 8
    if need > _ORACLE_MEMORY_LIMIT:
        raise ValidationError(
            "run.mode", f"oracle mode at h={spec.h_target} needs {need / 1e9:.1f} GB of "
            "solution history; coarsen h or use solve mode")

    # the particles follow the drift of the capture solve, whose F is the one
    # written to f_series.csv
    result, summary = _solve_artifacts(config, out, quiet, problem, record_full=True)
    drift = density_drift(grid, result.phi_full, tg.dt)
    dt_mc = config.dt_mc if config.dt_mc is not None else tg.dt / 10.0
    if not quiet:
        print(f"[mfgnet] simulating {config.agents} agents at dt = {dt_mc:.3g}", flush=True)
    mc = estimate_arrival_cdf(
        spec.topology,
        SimConfig(n_agents=config.agents, dt=dt_mc, t_max=spec.cost.t_max,
                  seed=config.seed, drift=drift),
        grid, problem.m0, tg.times)

    f_pde = result.f_series
    sup_distance = float(np.max(np.abs(mc.fraction - f_pde)))
    _write_csv(out / "comparison.csv", "t,f_pde,f_mc,band_lo,band_hi",
               zip(tg.times, f_pde, mc.fraction, mc.band_lo, mc.band_hi))
    summary["oracle"] = {
        "agents": config.agents,
        "dt_mc": dt_mc,
        "dkw_epsilon": mc.epsilon,
        "sup_distance": sup_distance,
        "censored_fraction": float(np.mean(np.isnan(mc.arrival_times))),
    }
    return summary


def _refine_artifacts(config: RunConfig, out: Path, quiet: bool):
    ladder = config.h_ladder if config.h_ladder is not None else DEFAULT_H_LADDER
    rows = []
    all_converged = True
    for h in ladder:
        spec_h = refine_spec(config.spec, h)
        progress = None if quiet else (
            lambda k, t, h=h: print(f"[mfgnet] h={h}: iteration {k}: T = {t:.6g}", flush=True))
        res = fixed_point(spec_h, progress=progress)
        all_converged = all_converged and res.converged
        rows.append({"h": h, "residual_mass_error": res.residual_mass,
                     "t_star": res.t_star, "iterations": res.iterations,
                     "converged": res.converged})
    _write_csv(out / "refine_study.csv", "h,E_h,T,iterations",
               [(r["h"], r["residual_mass_error"], r["t_star"], r["iterations"])
                for r in rows])
    summary = {
        "mode": config.mode,
        "schema_version": 1,
        "converged": all_converged,
        "theta": config.spec.theta,
        "tolerance": config.spec.tol,
        "seed": config.seed,
        "refine_study": rows,
    }
    if config.geometry_label is not None:
        summary["geometry"] = config.geometry_label
    return summary


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute one run, writing artifacts into config.out_dir."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if config.mode == "solve":
            _, summary = _solve_artifacts(config, out, quiet, discretize(config.spec))
        elif config.mode == "oracle":
            summary = _oracle_artifacts(config, out, quiet)
        elif config.mode == "refine-study":
            summary = _refine_artifacts(config, out, quiet)
        else:
            raise ValidationError("run.mode", f"unknown mode {config.mode!r}")
    except MFGNetError as err:
        payload = {"error": {"type": type(err).__name__, "message": str(err)}}
        if isinstance(err, ValidationError):
            payload["error"]["field"] = err.field
        sys.stderr.write(json.dumps(payload) + "\n")
        try:
            (out / "error.json").write_text(json.dumps(payload, indent=2) + "\n")
        except OSError:
            pass
        if isinstance(err, (ParseError, ValidationError, StepTooCoarse)):
            return 2
        if isinstance(err, (CflViolation, NonpositivePhi, ZeroMass, NumericalFailure)):
            return 3
        return 2
    _write_summary(out, summary)
    if not quiet:
        print(f"[mfgnet] wrote {out / 'summary.json'}", flush=True)
    return 0 if summary["converged"] else 4


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    for name in ("h", "tol"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ValidationError(name, f"must be finite, got {value}")
    spec = config.spec
    if args.h is not None:
        spec = replace(spec, h_target=args.h)
    if args.tol is not None:
        try:
            spec = replace(spec, tol=args.tol)
        except ValueError as err:
            raise ValidationError("tol", str(err)) from err
    updates = {"spec": spec}
    if args.mode is not None:
        updates["mode"] = args.mode
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ValidationError("seed", "must fit in an unsigned 64-bit integer")
        updates["seed"] = args.seed
    if args.snapshots is not None:
        if args.snapshots < 0:
            raise ValidationError("snapshots", "must be nonnegative")
        updates["snapshots"] = args.snapshots
    return replace(config, **updates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgnet",
        description="Equilibrium meeting-start times on metric graphs.")
    parser.add_argument("--config", required=True, help="path to a JSON run description")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="override the run mode from the config")
    parser.add_argument("--h", type=float, default=None, help="override the spatial step")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the fixed-point tolerance")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--snapshots", type=int, default=None,
                        help="emit field snapshots every N-th time level")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as err:
        sys.stderr.write(json.dumps(
            {"error": {"type": "ConfigUnreadable", "message": str(err)}}) + "\n")
        return 2
    try:
        config = _apply_overrides(parse_config(text), args)
    except MFGNetError as err:
        payload = {"error": {"type": type(err).__name__, "message": str(err)}}
        if isinstance(err, ValidationError):
            payload["error"]["field"] = err.field
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2
    return run(config, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())

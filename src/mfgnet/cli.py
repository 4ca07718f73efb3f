"""Config ingestion, run orchestration and artifact emission.

One JSON document describes a run (schema version 1): the network, the
problem parameters, the numeric parameters and run settings. Three modes:
``solve`` computes the equilibrium and writes a summary plus CSV series;
``oracle`` additionally cross-checks the arrival distribution against the
particle simulator; ``refine-study`` repeats the solve over a ladder of
spatial steps and tabulates the diagnostics.

Every CSV goes through one writer, ``_write_tables``: each value is its
repr, a block of _CSV_BLOCK_ROWS rows at a time, and the files of a batch
are cut into one group per usable CPU of about equal formatting work, each
file written whole by one process, the later groups by forked workers. A
solve writes its series and u files as one batch once it has formed u
(``fixed_point``'s ``on_value``), in the caller alone where a forked worker
meanwhile evaluates psi's fields, and its m files as a second batch once
the solve returns; in oracle mode with a spare CPU, a forked worker writes
both batches while the caller runs the particles. A field CSV's leading
columns come from the grid's ``_field_layout``, formatted once per run. A
run removes the files it owns by name but did not write: ``error.json``
after a success, ``summary.json`` after a failure, and snapshots of other
levels; a run that fails after writing its u files leaves them, and an
oracle whose particles fail leaves the solve's files whole.

Exit codes: 0 ok, 2 invalid config (or a particle step ``run.dt_mc`` too
large for the network), 3 numerical failure, 4 no convergence.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import shutil
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    CflViolation,
    MFGNetError,
    NonpositivePhi,
    NumericalFailure,
    ParseError,
    ValidationError,
    ZeroMass,
)
from .grid import MEMORY_LIMIT, GridField, SpatialGrid, TabulatedDensity
from .mfg import (
    CostSpec,
    DiscreteProblem,
    ProblemSpec,
    density_drift,
    discretize,
    fixed_point,
    map_phi,
)
from .montecarlo import SimConfig, estimate_arrival_cdf, read_levels
from .network import build_network

__all__ = ["RunConfig", "parse_config", "run", "main"]

DEFAULT_H_LADDER = (0.1, 0.05, 0.025, 0.0125)
MODES = ("solve", "oracle", "refine-study")
# rows per block of _write_tables: at 1024, example1's solve peaked about 0.5 MB
# higher, holding a block's rows as strings, at about the same speed. Against
# 512, lattice_solve's medians were 37.39 against 37.51 MB peak_rss_mb (lower
# in 5 of 5 interleaved perfbench pairs) and 0.60 against 0.57 s wall_s
# (within the runs' spread; 2-CPU Xeon VM, 1 BLAS thread). example1's fields
# fit in one block either way.
_CSV_BLOCK_ROWS = 256
# The fewest values (reprs formed, _Table.work) of a group of files that
# _write_tables forks a worker for. A two-column table's rows written by one
# process and split between two on 2 CPUs (21 alternated runs each, 2-CPU
# Xeon VM) took 20.5 and 26.8 ms at 20 000 values, 44.3 and 44.7 ms at
# 40 000, and 99.8 and 56.8 ms at 80 000: a second process pays from about
# 2 x 20 000 values on.
_SHARE_VALUES = 20_000


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


# the JSON name of each type that json.loads returns
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _json_type(kind: type) -> str:
    return _JSON_TYPES.get(kind, kind.__name__)


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    if not isinstance(section, dict):
        raise ValidationError(path, f"expected an object, got {_json_type(type(section))}")
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
        raise ValidationError(f"{path}.{key}",
                              f"expected {_json_type(kind)}, got {_json_type(type(value))}")
    return value


def _build_density(m0: dict, n_edges: int):
    _check_keys(m0, {"kind", "centers", "radii", "center", "width", "edges"}, "problem.m0")
    kind = _get(m0, "kind", "problem.m0", str)
    if kind == "abs":
        return lambda pts: np.linalg.norm(pts, axis=1)
    if kind == "bumps":
        centers = _floats(m0, "centers", "problem.m0")
        radii = _floats(m0, "radii", "problem.m0")
        if centers.ndim != 2 or centers.shape[1] != 2 or len(radii) != len(centers):
            raise ValidationError("problem.m0", "need n centers of dim 2 and n radii")
        if (radii <= 0).any():
            raise ValidationError("problem.m0.radii", "must be positive")

        def bumps(pts):
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            return np.maximum(radii**2 - d2, 0.0).sum(axis=1)
        return bumps
    if kind == "hat":
        center = _floats(m0, "center", "problem.m0")
        if center.shape != (2,):
            raise ValidationError("problem.m0.center", "expected [x, y]")
        width = _number(_get(m0, "width", "problem.m0"), float, "problem.m0.width")
        if width <= 0:
            raise ValidationError("problem.m0.width", "must be positive")
        return lambda pts: np.maximum(1.0 - np.linalg.norm(pts - center, axis=1) / width, 0.0)
    if kind == "tabulated":
        tables = {}
        path = "problem.m0.edges[]"
        for row in _get(m0, "edges", "problem.m0", list):
            _check_keys(row, {"edge", "arclength", "values"}, path)
            xs = _floats(row, "arclength", path)
            vs = _floats(row, "values", path)
            if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 2 or (np.diff(xs) <= 0).any():
                raise ValidationError(path, "arclength must be increasing and match values")
            if (vs < 0).any():
                raise ValidationError(f"{path}.values", "a density must be nonnegative")
            edge = _integer(_get(row, "edge", path), f"{path}.edge")
            if not 0 <= edge < n_edges:
                raise ValidationError(f"{path}.edge", f"no edge {edge} in the network")
            tables[edge] = (xs, vs)
        return TabulatedDensity(tables)
    raise ValidationError("problem.m0.kind", f"unknown density kind {kind!r}")


def _number(value, kind, path: str):
    """``kind(value)``, or a ValidationError naming ``path``; a JSON true,
    false or string is not a number."""
    if isinstance(value, (bool, str)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        raise ValidationError(path, f"expected a number, got {value!r}") from err


def _floats(section: dict, key: str, path: str) -> np.ndarray:
    """The list ``section[key]``, of numbers or of lists of numbers, as a
    float array, or a ValidationError; as in ``_number``, a JSON true,
    false or string element is not a number."""
    value = _get(section, key, path, list)
    for item in value:
        for x in item if isinstance(item, list) else [item]:
            if isinstance(x, (bool, str)):
                raise ValidationError(f"{path}.{key}", f"expected a number, got {x!r}")
    return _number(value, partial(np.asarray, dtype=float), f"{path}.{key}")


def _integer(value, path: str) -> int:
    """``int(value)``, or a ValidationError naming ``path``; a float must be
    whole, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(path, f"expected an integer, got {value!r}")
    return _number(value, int, path)


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
    if _integer(_get(doc, "version", "$"), "$.version") != 1:
        raise ValidationError("version", f"unsupported schema version {doc['version']}")

    net = _get(doc, "network", "$", dict)
    _check_keys(net, {"vertices", "edges", "exit_vertex", "geometry"}, "network")
    vertices = []
    for v in _get(net, "vertices", "network", list):
        path = "network.vertices[]"
        _check_keys(v, {"id", "position"}, path)
        pos = _get(v, "position", path, list)
        if len(pos) != 2:
            raise ValidationError(f"{path}.position", "expected [x, y]")
        vertices.append((_integer(_get(v, "id", path), f"{path}.id"),
                         tuple(_number(x, float, f"{path}.position") for x in pos)))
    edges = []
    for e in _get(net, "edges", "network", list):
        path = "network.edges[]"
        _check_keys(e, {"id", "tail", "head", "length"}, path)
        length = _get(e, "length", path, default=None)
        edges.append((*(_integer(_get(e, key, path), f"{path}.{key}")
                        for key in ("id", "tail", "head")),
                      None if length is None else _number(length, float, f"{path}.length")))
    exit_vertex = _integer(_get(net, "exit_vertex", "network"), "network.exit_vertex")
    try:
        topology = build_network(vertices, edges, exit_vertex)
    except MFGNetError as err:
        raise ValidationError("network", str(err)) from err

    prob = _get(doc, "problem", "$", dict)
    _check_keys(prob, {"t0", "t_max", "theta", "cost", "m0"}, "problem")
    theta = _number(_get(prob, "theta", "problem"), float, "problem.theta")
    if not 0 < theta < 1:
        raise ValidationError("theta", f"must lie strictly between 0 and 1, got {theta}")
    cost_doc = _get(prob, "cost", "problem", dict)
    _check_keys(cost_doc, {"c1", "c2", "c3"}, "problem.cost")
    try:
        cost_spec = CostSpec(
            t0=_number(_get(prob, "t0", "problem"), float, "problem.t0"),
            t_max=_number(_get(prob, "t_max", "problem"), float, "problem.t_max"),
            **{c: _number(cost_doc.get(c, 0.0), float, f"problem.cost.{c}")
               for c in ("c1", "c2", "c3")})
    except ValueError as err:
        raise ValidationError("problem", str(err)) from err
    density = _build_density(_get(prob, "m0", "problem", dict), topology.n_edges)

    num = _get(doc, "numerics", "$", dict)
    _check_keys(num, {"h_target", "cfl_factor", "tol", "t_init", "max_iters", "h_ladder"},
                "numerics")
    t_init = num.get("t_init")
    try:
        spec = ProblemSpec(
            topology=topology, cost=cost_spec, theta=theta, m0=density,
            h_target=_number(_get(num, "h_target", "numerics"), float, "numerics.h_target"),
            cfl_factor=_number(num.get("cfl_factor", 0.25), float, "numerics.cfl_factor"),
            tol=_number(num.get("tol", 1e-4), float, "numerics.tol"),
            t_init=_number(t_init, float, "numerics.t_init") if t_init is not None else None,
            max_iters=_integer(num.get("max_iters", 50), "numerics.max_iters"))
    except ValueError as err:
        raise ValidationError("numerics", str(err)) from err
    ladder = _get(num, "h_ladder", "numerics", list, default=None)
    if ladder is not None:
        ladder = tuple(_number(h, float, "numerics.h_ladder") for h in ladder)
        if not ladder or min(ladder) <= 0:
            raise ValidationError("numerics.h_ladder", "must be a nonempty list of positive steps")

    rn = doc.get("run", {})
    _check_keys(rn, {"mode", "out_dir", "seed", "snapshots", "agents", "dt_mc"}, "run")
    mode = rn.get("mode", "solve")
    if mode not in MODES:
        raise ValidationError("run.mode", f"expected one of {MODES}, got {mode!r}")
    seed = _integer(rn.get("seed", 0), "run.seed")
    if not 0 <= seed < 2**64:
        raise ValidationError("run.seed", "must fit in an unsigned 64-bit integer")
    snapshots = _integer(rn.get("snapshots", 0), "run.snapshots")
    if snapshots < 0:
        raise ValidationError("run.snapshots", "must be nonnegative")
    agents = _integer(rn.get("agents", 100_000), "run.agents")
    if not 1 <= agents < 2**63:
        raise ValidationError("run.agents", "must lie between 1 and 2**63 - 1")
    dt_mc = rn.get("dt_mc")
    if dt_mc is not None:
        dt_mc = _number(dt_mc, float, "run.dt_mc")
        if not dt_mc > 0:
            raise ValidationError("run.dt_mc", "must be positive")

    return RunConfig(
        spec=spec, mode=mode, out_dir=_get(rn, "out_dir", "run", str, default="out"), seed=seed,
        snapshots=snapshots, agents=agents,
        dt_mc=dt_mc,
        h_ladder=ladder, geometry_label=_get(net, "geometry", "network", str, default=None))


def _run_starts(keys: np.ndarray) -> np.ndarray | None:
    """The first row of each run of equal ``keys``, when the column comes
    in runs (at most one run in two rows); else None."""
    changes = keys[1:] != keys[:-1]
    if 2 * (np.count_nonzero(changes) + 1) > len(keys):
        return None
    return np.concatenate(([0], np.flatnonzero(changes) + 1))


def _text_blocks(column: np.ndarray):
    """The repr of each value of ``column`` (ints or floats), one iterable
    of strings per block of _CSV_BLOCK_ROWS rows, or one string where the
    block lies in one run of equal values; repr of a Python int or float
    is its exact shortest form.

    A column that comes in runs of equal values, such as the particles'
    arrived fractions on a fine time grid, formats each run's value once,
    and each block gathers its rows' strings by the run of each row. Values
    are told apart by bit pattern, so -0.0, 0.0 and NaN each keep their own
    repr. Other columns are formatted lazily, block by block: holding every
    block's strings raised example1's peak RSS.
    """
    column = np.ascontiguousarray(column)
    starts = _run_starts(column.view(f"u{column.itemsize}"))
    blocks = range(0, len(column), _CSV_BLOCK_ROWS)
    if starts is None:
        for start in blocks:
            yield map(repr, column[start: start + _CSV_BLOCK_ROWS].tolist())
        return
    text = np.array(list(map(repr, column[starts].tolist())), dtype=object)
    run = np.repeat(np.arange(len(starts), dtype=np.int32), np.diff(starts, append=len(column)))
    for start in blocks:
        rows = run[start: start + _CSV_BLOCK_ROWS]
        yield text[rows[0]] if rows[0] == rows[-1] else text[rows].tolist()


def _block_text(n_rows: int, lead: str | None, cells: list) -> str:
    """``n_rows`` rows, without the last newline: each line of ``lead``
    (when given) and a comma, then the row's value in each of ``cells``,
    comma-separated. A cell is an iterable of one string per row, or one
    string for every row. Behind a lead, a block of such strings is one
    str.replace; any other block is one join over a list that interleaves
    the values with the lead's lines, each line's newline and comma formed
    by one replace and one split per block."""
    if lead is not None and all(isinstance(cell, str) for cell in cells):
        suffix = "," + ",".join(cells)
        return lead.replace("\n", suffix + "\n") + suffix
    stride = 2 * len(cells)  # a row: its lead piece, then values and commas between them
    parts = [None] * (stride * n_rows)
    parts[::stride] = (["", *["\n"] * (n_rows - 1)] if lead is None
                       else (lead.replace("\n", ",\0\n") + ",").split("\0"))
    for j, cell in enumerate(cells):
        parts[2 * j + 1::stride] = [cell] * n_rows if isinstance(cell, str) else cell
        if j:
            parts[2 * j::stride] = [","] * n_rows
    return "".join(parts)


def _line_blocks(path: Path):
    """A ``lead``: the lines after the header of the CSV file at ``path``,
    without their newline, one string per block, read when the rows are
    written."""
    with open(path) as fh:
        next(fh)
        while block := "".join(itertools.islice(fh, _CSV_BLOCK_ROWS)):
            yield block[:-1]


class _Table(NamedTuple):
    """One CSV file: ``header``, then one row per index of the equal-length
    ``columns`` (ints or floats), or per entry of ``order``, the index of
    each row's values in them. ``lead`` gives one string of lines per block
    that begin the rows, so values already formatted there are not
    formatted again. A NamedTuple rather than a dataclass, whose creation
    took about 1 ms of every run's import."""

    path: Path
    header: str
    columns: tuple
    order: np.ndarray | None = None
    lead: object = None

    def _values(self):
        """Each column's values in the file's row order."""
        rows = slice(None) if self.order is None else self.order
        return (np.asarray(c)[rows] for c in self.columns)

    @property
    def work(self) -> int:
        """The reprs ``write`` forms, as ``_text_blocks`` forms them: one per
        run of a column that comes in runs, else one per value."""
        total = 0
        for column in self._values():
            starts = _run_starts(np.ascontiguousarray(column).view(f"u{column.itemsize}"))
            total += len(column) if starts is None else len(starts)
        return total

    def write(self) -> None:
        """The file, each value its repr, by ``_text_blocks``, a block at a
        time by ``_block_text``."""
        columns = list(self._values())
        n = len(columns[0])
        leads = itertools.repeat(None) if self.lead is None else self.lead
        with open(self.path, "w") as fh:
            fh.write(self.header + "\n")
            for start, lead, *cells in zip(range(0, n, _CSV_BLOCK_ROWS), leads,
                                           *map(_text_blocks, columns)):
                fh.write(_block_text(min(_CSV_BLOCK_ROWS, n - start), lead, cells))
                fh.write("\n")


def _write_group(tables: list[_Table]) -> bytes:
    """Write each of ``tables``; no bytes for ``workers.run_forked``."""
    for table in tables:
        table.write()
    return b""


def _write_tables(tables: list[_Table]) -> None:
    """Write ``tables``, cut in file order into one group of whole files per
    usable CPU, of about equal ``work``: a column that comes in runs, such
    as the zeros of m0, costs one repr per run. Each group of at least
    _SHARE_VALUES reprs but the first is written by a worker forked by
    ``workers.run_forked``; the caller writes the first and the smaller
    groups, so a batch with one large file forks nothing."""
    sizes = [table.work for table in tables]
    n_groups = 1
    if sum(sizes) >= 2 * _SHARE_VALUES:  # only a batch that may fork loads the helper
        from . import workers

        n_groups = min(1 + workers.spare_cpus(), sum(sizes) // _SHARE_VALUES)
    # group g ends at the table boundary nearest to g / n_groups of the values
    ends = np.cumsum([0, *sizes])
    cuts = [0, *(int(np.abs(ends - g * ends[-1] / n_groups).argmin())
                 for g in range(1, n_groups)), len(tables)]
    large, small = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        (large if ends[b] - ends[a] >= _SHARE_VALUES else small).append(tables[a:b])
    local = [table for group in large[:1] + small for table in group]
    if len(large) > 1:
        workers.run_forked(partial(_write_group, local),
                           [partial(_write_group, group) for group in large[1:]])
    else:
        _write_group(local)


def _field_layout(grid: SpatialGrid) -> tuple[np.ndarray, list[str]]:
    """The rows of a field CSV, in the grid's ``edge_nodes`` layout (edge by
    edge from tail to head, k running 0..n_cells, vertex slots included):
    the flat index of each row's value, and the rows' "edge_id,k,x_coord_1,
    x_coord_2" text, one string of newline-separated rows per block of
    _CSV_BLOCK_ROWS rows. Each distinct coordinate is formatted once, told
    apart by bit pattern as in ``_text_blocks``, so -0.0 keeps its own repr:
    the street lattice's 24 340 coordinates hold 927 values. They are found
    by a dict: np.unique's sort raised example1's peak RSS by 0.25 MB. Each
    block is joined on its own and held as one string: the whole layout at
    once, held as one string per row, raised lattice_solve's peak RSS by
    1.5 MB."""
    first = grid.edge_starts
    reprs: dict[int, str] = {}  # bit pattern: repr
    text = []
    for start in range(0, first[-1], _CSV_BLOCK_ROWS):
        row = np.arange(start, min(start + _CSV_BLOCK_ROWS, first[-1]))
        e = np.searchsorted(first, row, side="right") - 1
        k = row - first[e]
        points = grid.edge_points(e, k).ravel()
        coords = [reprs[b] if b in reprs else reprs.setdefault(b, repr(x))
                  for b, x in zip(points.view(np.uint64).tolist(), points.tolist())]
        text.append("\n".join(f"{i},{j},{x},{y}" for i, j, x, y
                              in zip(e.tolist(), k.tolist(), coords[::2], coords[1::2])))
    return grid.edge_nodes, text


def _field_table(field: GridField, path: Path, layout: tuple[np.ndarray, list[str]]) -> _Table:
    """The ``_Table`` of a field's CSV in the rows of ``layout``."""
    order, text = layout
    return _Table(path, "edge_id,k,x_coord_1,x_coord_2,value", (field.data,), order, text)


def _write_summary(config: RunConfig, out: Path, summary: dict) -> None:
    """summary.json: the mode's own entries plus those every mode writes."""
    summary = {**summary, "mode": config.mode, "schema_version": 1, "seed": config.seed,
               "theta": config.spec.theta, "tolerance": config.spec.tol}
    if config.geometry_label is not None:
        summary["geometry"] = config.geometry_label
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _solve_artifacts(config: RunConfig, out: Path, quiet: bool, problem: DiscreteProblem,
                     pending: list | None = None):
    """Solve and write the artifacts: the series and the u files once the
    solve has formed u (``fixed_point``'s ``on_value``), by the caller alone
    where a forked worker meanwhile evaluates psi on the other CPU; the m
    files once it returns. Each field is formatted once: a second name gets
    a copy of the first file. Where ``pending`` is a list, each of the two
    batches is appended to it instead, as a function of ``forked`` that
    writes it, for the oracle to write beside its particles."""
    spec = config.spec
    snapshot_levels: set[int] = set()
    if config.snapshots > 0:
        snapshot_levels = set(range(0, problem.time_grid.n_steps + 1, config.snapshots))
    snapdir = out / "snapshots"
    files: dict[tuple[str, int], list[Path]] = {}  # the first path is written, the others copied
    layout = None

    def tables(result, name: str) -> list[_Table]:
        return [_field_table(result.fields[name][n], paths[0], layout)
                for (field, n), paths in files.items() if field == name]

    def write(batch: list[_Table], name: str, forked: bool) -> None:
        # beside another process on the other CPU, the caller writes alone
        (_write_group if forked else _write_tables)(batch)
        for (field, _), paths in files.items():
            for path in paths[1:] if field == name else ():
                shutil.copyfile(paths[0], path)

    def emit(batch: list[_Table], name: str, forked: bool = False) -> None:
        if pending is None:
            write(batch, name, forked)
        else:
            pending.append(partial(write, batch, name))

    def write_value(result, forked: bool) -> None:
        nonlocal layout
        lvl = result.equilibrium_level
        named = [("m", 0, out / "m0.csv"), ("m", lvl, out / "m_final.csv"),
                 ("u", lvl, out / "u_final.csv")]
        if snapshot_levels:
            snapdir.mkdir(exist_ok=True)
            for n in sorted(snapshot_levels):
                named += [("m", n, snapdir / f"m_{n:08d}.csv"),
                          ("u", n, snapdir / f"u_{n:08d}.csv")]
        if snapdir.is_dir():  # drop the snapshots of other levels, from an earlier run
            written = {path for _, _, path in named}
            for path in (*snapdir.glob("m_*.csv"), *snapdir.glob("u_*.csv")):
                if path not in written:
                    path.unlink()
        for name, n, path in named:
            files.setdefault((name, n), []).append(path)
        layout = _field_layout(problem.grid)
        series = [_Table(out / "f_series.csv", "t,F", (result.times, result.map.f_series)),
                  _Table(out / "iterates.csv", "iteration,T",
                         (range(len(result.iterates) + 1), [result.t_init, *result.iterates]))]
        emit(series + tables(result, "u"), "u", forked)
        result.fields["u"].clear()  # the files hold u: it goes before psi arrives

    progress = None if quiet else (
        lambda k, t: print(f"[mfgnet] iteration {k}: T = {t:.6g}", flush=True))
    result = fixed_point(problem, snapshot_levels=snapshot_levels, progress=progress,
                         on_value=write_value)
    # the m files hold m alone: phi and psi go before their rows are formatted
    del result.fields["phi"], result.fields["psi"]
    emit(tables(result, "m"), "m")

    summary = {
        "converged": result.converged,
        "cycle_detected": result.cycle_detected,
        "iterations": result.iterations,
        "iterates": result.iterates,
        "t_init": result.t_init,
        "t_star": result.t_star,
        "h_target": spec.h_target,
        "dt": result.time_grid.dt,
        "n_time_steps": result.time_grid.n_steps,
        "equilibrium_level": result.equilibrium_level,
        "residual_mass_error": result.residual_mass,
        "notes": result.notes,
    }
    return result, summary


def _oracle_artifacts(config: RunConfig, out: Path, quiet: bool):
    """The solve's artifacts, then the particles' comparison.csv. With a
    spare CPU, a worker of ``workers.run_forked`` writes the solve's series,
    u and m files while the caller evaluates the drift and runs the
    particles; comparison.csv, which reads f_series.csv, follows once the
    worker is reaped. On one CPU the files are written before the particles
    run. Either way a failure of the particles leaves the solve's files."""
    from . import workers  # the particle blocks load it too

    spec = config.spec
    problem = discretize(spec)
    grid, tg = problem.grid, problem.time_grid
    dt_mc = config.dt_mc if config.dt_mc is not None else tg.dt / 10.0
    sim = SimConfig(n_agents=config.agents, dt=dt_mc, t_max=spec.cost.t_max, seed=config.seed)

    # phi at each level the particles read (one per particle step, or every level
    # when the steps are finer), the drift and its temporaries, the step times,
    # and 22 floats per agent (under tracemalloc, desk's run peaked 157 to 174
    # bytes higher per agent between 1e5 and 8e5 agents, and
    # test_montecarlo.py::test_step_memory_per_agent holds a particle block
    # under 20); the particle blocks split those floats between the caller
    # and its forked workers, and the guard counts their total
    # t_max / dt_mc may be inf; a count past MEMORY_LIMIT fails the guard unrounded
    steps = sim.t_max / sim.dt
    n_mc = math.ceil(steps) if steps < MEMORY_LIMIT else steps
    n_read = min(n_mc, tg.n_steps + 1)
    need = 8 * (4 * n_read * grid.n_flat + n_mc + 22 * config.agents)
    if need > MEMORY_LIMIT:
        raise ValidationError(
            "run.mode", f"oracle mode at h={spec.h_target} needs {need / 1e9:.3g} GB for the "
            f"fields at the {n_read} levels its {n_mc:.6g} particle steps read and for "
            f"run.agents = {config.agents} agents; coarsen h, raise run.dt_mc, lower "
            "run.agents or use solve mode")

    # with a spare CPU the batches wait for a writer; a failed solve writes
    # those it formed, as one that writes them at once leaves them
    pending = [] if workers.spare_cpus() > 0 else None
    try:
        result, summary = _solve_artifacts(config, out, quiet, problem, pending)
    except MFGNetError:
        for write in pending or ():
            write(False)
        raise

    def write_pending() -> bytes:
        for write in pending:
            write(True)
        return b""

    def particles():
        """The particles' arrival CDF, or the error that stopped them, raised
        once the writer is reaped, so it finishes its files."""
        # the writer holds its own copy of the fields; the particles follow
        # the drift of the map whose F is written to f_series.csv, with phi
        # evaluated only at the levels they read
        result.fields.clear()
        if pending:
            pending.clear()
        try:
            levels = read_levels(sim, tg.dt, tg.n_steps)
            drift = density_drift(grid, map_phi(result.map, problem, levels), tg.dt, levels)
            if not quiet:
                print(f"[mfgnet] simulating {config.agents} agents at dt = {dt_mc:.3g}",
                      flush=True)
            return estimate_arrival_cdf(replace(sim, drift=drift), problem.m0, tg.times)
        except MFGNetError as err:
            return err

    mc = workers.run_forked(particles, [write_pending])[0] if pending else particles()
    if isinstance(mc, MFGNetError):
        raise mc

    f_pde = result.map.f_series
    sup_distance = float(np.max(np.abs(mc.fraction - f_pde)))
    # t and f_pde are f_series.csv's rows, text and all
    _write_tables([_Table(out / "comparison.csv", "t,f_pde,f_mc,band_lo,band_hi",
                          (mc.fraction, mc.band_lo, mc.band_hi),
                          lead=_line_blocks(out / "f_series.csv"))])
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
        spec_h = replace(config.spec, h_target=h)
        progress = None if quiet else (
            lambda k, t, h=h: print(f"[mfgnet] h={h}: iteration {k}: T = {t:.6g}", flush=True))
        res = fixed_point(spec_h, progress=progress)
        all_converged = all_converged and res.converged
        rows.append({"h": h, "residual_mass_error": res.residual_mass,
                     "t_star": res.t_star, "iterations": res.iterations,
                     "converged": res.converged})
    _write_tables([_Table(out / "refine_study.csv", "h,E_h,T,iterations",
                          tuple([r[key] for r in rows] for key in
                                ("h", "residual_mass_error", "t_star", "iterations")))])
    return {"converged": all_converged, "refine_study": rows}


def _report(err: MFGNetError) -> dict:
    """Write the JSON error payload of ``err`` to stderr, and return it."""
    payload = {"error": {"type": type(err).__name__, "message": str(err)}}
    if isinstance(err, ValidationError):
        payload["error"]["field"] = err.field
    sys.stderr.write(json.dumps(payload) + "\n")
    return payload


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute one run, writing artifacts into config.out_dir."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a file on the path, or no permission
        _report(ValidationError("run.out_dir", f"cannot make the output directory: {err}"))
        return 2
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
        payload = _report(err)
        try:
            (out / "error.json").write_text(json.dumps(payload, indent=2) + "\n")
            (out / "summary.json").unlink(missing_ok=True)  # an earlier run's
        except OSError:
            pass
        if isinstance(err, (CflViolation, NonpositivePhi, ZeroMass, NumericalFailure)):
            return 3
        return 2  # the config, a step too coarse or a particle step too large
    _write_summary(config, out, summary)
    (out / "error.json").unlink(missing_ok=True)  # an earlier run's
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
    except (OSError, UnicodeDecodeError) as err:
        sys.stderr.write(json.dumps(
            {"error": {"type": "ConfigUnreadable", "message": str(err)}}) + "\n")
        return 2
    try:
        config = _apply_overrides(parse_config(text), args)
    except MFGNetError as err:
        _report(err)
        return 2
    return run(config, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())

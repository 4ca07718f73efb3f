"""The benchmark's three workloads: how each is built from a seed, the
command line it hands to ``mfgnet.cli.main``, and the checks its outputs
must pass.

Why each workload exists:

- ``ex1_solve`` (bundled example1 at h = 0.05, ``solve``): the fixed-point
  loop does the work, 10 iterations plus one capture replay, each a pair of
  sweeps on a small grid (n_flat 123, 16 143 steps) where every step costs
  numpy call overhead, not per-node work. A cheaper candidate map shows here.
  The instance has no randomness; the seed is accepted and ignored.
- ``lattice_solve`` (generated 24 x 24 street lattice): sweeps with per-node
  work dominating (n_flat ~10.5k, ~4 480 steps), too large for a dense
  eigen-decomposition, and a quorum that is never reached, so the loop stops
  after one iteration plus the replay. Snapshot CSVs add the artifact-writing
  path. An optimisation of the candidate map for small grids must show no
  change here.
- ``desk_oracle`` (bundled desk in ``oracle`` mode at its own settings,
  h = 0.025, 100 000 agents): the only workload that runs the particle
  oracle and holds the full phi history plus the drift table, so it is also
  the peak-memory workload. Coarser h fails the 0.02 sup-distance gate, so h
  stays at 0.025. The seed goes to the program as ``--seed``.

``refine-study`` and ``example2`` are left out: the first repeats the
``ex1_solve`` path at four step sizes and takes minutes, the second clamps
in one iteration on a small grid and stresses nothing the three above do not.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

EX1_T_STAR = 5.241900514154742
EX1_ITERATIONS = 10
DESK_T_STAR = 0.5
SUP_DISTANCE_GATE = 0.02

LATTICE_SIDE = 24
LATTICE_THETA = 0.5
LATTICE_T_MAX = 10.0
BUMP_RADIUS = 1.5
LATTICE_SNAPSHOT_STRIDE = 640  # ~4 480 steps -> 8 snapshot levels


def lattice_config(seed: int) -> dict:
    """A 24 x 24 street lattice with seeded edge lengths and crowd.

    Edge lengths are uniform on [0.8, 1.2]. Two quadratic bumps of radius 1.5
    sit 1 to 2 length units from the centre vertex, where a leaf of length
    0.7 leads to the exit. Bump centres closer than 1.6 to the exit's
    ambient position are drawn again, so the sampled density is zero there
    and ``normalize_mass`` has nothing to project away.

    theta is 0.5, not the 0.1 a street network might suggest: with theta at
    0.1 or below this lattice falls into a 2-cycle of the candidate map and
    the CLI exits 4, and a benchmark workload must succeed. At 0.5 the quorum
    is never reached by t_max, so the run clamps to t_max.
    """
    rng = random.Random(seed)
    n = LATTICE_SIDE

    def vid(i: int, j: int) -> int:
        return i * n + j

    vertices = [{"id": vid(i, j), "position": [float(j), float(i)]}
                for i in range(n) for j in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < n:
                edges.append((vid(i, j), vid(i + 1, j)))
    edge_docs = [{"id": k, "tail": a, "head": b, "length": rng.uniform(0.8, 1.2)}
                 for k, (a, b) in enumerate(edges)]

    centre = n // 2
    exit_id = n * n
    vertices.append({"id": exit_id, "position": [centre + 0.5, centre + 0.5]})
    edge_docs.append({"id": len(edge_docs), "tail": exit_id, "head": vid(centre, centre),
                      "length": 0.7})

    exit_position = vertices[-1]["position"]
    centers = []
    while len(centers) < 2:
        r, a = rng.uniform(1.0, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        c = [centre + r * math.cos(a), centre + r * math.sin(a)]
        if math.dist(c, exit_position) > BUMP_RADIUS + 0.1:
            centers.append(c)

    return {
        "version": 1,
        "network": {"vertices": vertices, "edges": edge_docs, "exit_vertex": exit_id},
        "problem": {
            "t0": 0.5, "t_max": LATTICE_T_MAX, "theta": LATTICE_THETA,
            "cost": {"c1": 0.1, "c2": 0.0, "c3": 0.1},
            "m0": {"kind": "bumps", "centers": centers, "radii": [BUMP_RADIUS, BUMP_RADIUS]},
        },
        "numerics": {"h_target": 0.1, "cfl_factor": 0.25, "tol": 1e-4, "max_iters": 50},
        "run": {"mode": "solve", "out_dir": "out", "seed": seed},
    }


@dataclass(frozen=True)
class Instance:
    """One workload bound to a seed: the program's argv (without ``--out``)
    and the override the set-up probe applies."""

    name: str
    config: Path
    argv: tuple[str, ...]
    h: float | None = None


def make_instance(name: str, seed: int, root: Path, work: Path) -> Instance:
    """Build the inputs of one workload; only the lattice writes a file."""
    data = root / "src" / "mfgnet" / "data"
    if name == "ex1_solve":
        config = data / "example1.json"
        return Instance(name, config, ("--config", str(config), "--mode", "solve",
                                       "--h", "0.05", "--quiet"), h=0.05)
    if name == "lattice_solve":
        config = work / f"lattice_{seed}.json"
        config.write_text(json.dumps(lattice_config(seed)))
        return Instance(name, config, ("--config", str(config), "--mode", "solve",
                                       "--snapshots", str(LATTICE_SNAPSHOT_STRIDE),
                                       "--quiet"))
    if name == "desk_oracle":
        config = data / "desk.json"
        return Instance(name, config, ("--config", str(config), "--mode", "oracle",
                                       "--seed", str(seed), "--quiet"))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ex1_solve", "lattice_solve", "desk_oracle")


def _f_series(out: Path) -> list[float]:
    with open(out / "f_series.csv") as fh:
        return [float(row["F"]) for row in csv.DictReader(fh)]


def check_outputs(name: str, rc: int, out: Path) -> tuple[list[str], dict]:
    """Problems found in one run's outputs (empty when correct), and the
    summary it wrote."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as err:
        return [f"summary.json unreadable: {err}"], {}
    problems = []
    t_star, dt = summary.get("t_star"), summary.get("dt", 0.0)
    if name == "ex1_solve":
        if summary.get("converged") is not True:
            problems.append("not converged")
        if summary.get("iterations") != EX1_ITERATIONS:
            problems.append(f"iterations {summary.get('iterations')} != {EX1_ITERATIONS}")
        if t_star is None or abs(t_star - EX1_T_STAR) > dt:
            problems.append(f"T* {t_star} not within dt={dt} of {EX1_T_STAR}")
    elif name == "lattice_solve":
        if t_star != LATTICE_T_MAX:
            problems.append(f"T* {t_star} != t_max")
        f = _f_series(out)
        if any(b < a for a, b in zip(f, f[1:])):
            problems.append("F decreases")
        if not f or min(f) < 0.0 or max(f) > 1.0:
            problems.append("F outside [0, 1]")
        elif f[-1] >= LATTICE_THETA:
            problems.append(f"F(t_max) = {f[-1]} reaches theta")
        n_steps = summary.get("n_time_steps", 0)
        levels = len(range(0, n_steps + 1, LATTICE_SNAPSHOT_STRIDE))
        snaps = len(list((out / "snapshots").glob("*.csv"))) if (out / "snapshots").is_dir() else 0
        if snaps != 2 * levels:
            problems.append(f"{snaps} snapshot files, expected {2 * levels}")
    elif name == "desk_oracle":
        if t_star is None or abs(t_star - DESK_T_STAR) > dt:
            problems.append(f"T* {t_star} != {DESK_T_STAR}")
        sup = summary.get("oracle", {}).get("sup_distance")
        if sup is None or not sup <= SUP_DISTANCE_GATE:
            problems.append(f"sup_distance {sup} above {SUP_DISTANCE_GATE}")
    return problems, summary

"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces the public functions named in ``TARGETS`` on
the modules that call them with wrappers that record a span (name, start,
end, parent, attributes). Spans stay in memory; the child process writes
them out after the run. ``layer_metrics`` turns one run's spans into the
per-layer metrics. A target a later version of the program no longer has is
skipped, so its metrics read 0 calls instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time

# (module whose global is replaced, function name, span name). A function is
# wrapped where its caller looks it up, so fixed_point's own calls go through
# mfgnet.mfg and the oracle's extra calls through mfgnet.cli.
TARGETS = (
    ("mfgnet.cli", "parse_config", "cli.parse_config"),
    ("mfgnet.cli", "build_network", "network.build_network"),
    ("mfgnet.cli", "build_grid", "grid.build_grid"),
    ("mfgnet.mfg", "build_grid", "grid.build_grid"),
    ("mfgnet.cli", "discretize", "grid.discretize"),
    ("mfgnet.mfg", "discretize", "grid.discretize"),
    ("mfgnet.cli", "fixed_point", "mfg.fixed_point"),
    ("mfgnet.cli", "psi_map", "mfg.psi_map"),
    ("mfgnet.mfg", "psi_map", "mfg.psi_map"),
    ("mfgnet.mfg", "solve_backward_phi", "heat.sweep"),
    ("mfgnet.mfg", "solve_forward_psi", "heat.sweep"),
    ("mfgnet.mfg", "cumulative_flow", "mfg.cumulative_flow"),
    ("mfgnet.cli", "density_drift", "mfg.density_drift"),
    ("mfgnet.cli", "estimate_arrival_cdf", "mc.estimate_arrival_cdf"),
    ("mfgnet.montecarlo", "simulate_agents", "mc.simulate_agents"),
    ("mfgnet.cli", "field_to_csv", "cli.field_to_csv"),
)


def _sweep_size(args, result) -> dict:
    grid, time_grid = args[0], args[1]
    return {"n_flat": int(grid.n_flat), "n_steps": int(time_grid.n_steps)}


def _grid_size(args, result) -> dict:
    return {"n_flat": int(result.grid.n_flat), "n_steps": int(result.time_grid.n_steps)}


def _agent_steps(args, result) -> dict:
    # an agent absorbed at time t was stepped round(t / dt) times; a censored
    # one (NaN) ran every step to the horizon
    import numpy as np

    config = args[1]
    horizon = math.ceil(config.t_max / config.dt)
    steps = np.where(np.isnan(result), horizon, np.rint(result / config.dt))
    return {"agent_steps": int(steps.sum())}


ATTRIBUTES = {
    "heat.sweep": _sweep_size,
    "grid.discretize": _grid_size,
    "mc.simulate_agents": _agent_steps,
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.overhead_s = 0.0  # time spent in span bookkeeping, outside ``fn``

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        entered = time.perf_counter()
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": None, "end": None}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        extract = ATTRIBUTES.get(name)
        if extract is not None:
            try:
                record.update(extract(args, result))
            except (AttributeError, IndexError, TypeError):
                pass  # the call changed shape; its counts read 0
        self.overhead_s += (record["start"] - entered) + (time.perf_counter() - record["end"])
        return result

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper


LAYER_UNITS = {
    "heat.sweeps": "count",
    "heat.node_steps": "count",
    "heat.us_per_step": "us",
    "heat.ns_per_node_step": "ns",
    "mfg.map_calls": "count",
    "mfg.iterations": "count",
    "mfg.useful_map_frac": "ratio",
    "mfg.map_s": "s",
    "mfg.fixed_point_s": "s",
    "mfg.self_s": "s",
    "mfg.flow_s": "s",
    "mfg.drift_s": "s",
    "mc.simulate_s": "s",
    "mc.agent_steps": "count",
    "mc.agent_steps_per_s": "1/s",
    "mc.sample_s": "s",
    "cli.write_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "network.build_s": "s",
    "grid.discretize_calls": "count",
    "grid.build_calls": "count",
    "grid.discretize_s": "s",
    "grid.n_flat": "count",
    "grid.n_steps": "count",
    "trace.check_failures": "count",
    "trace.overhead_s": "s",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (artifact counts, the tracer's own
    cost and the consistency check are added by the caller)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _duration(s)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def picked(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name):
        return sum(_duration(s) for s in picked(name))

    def self_time(*names):
        return sum(_duration(spans[i]) - child_time[i] for n in names for i in by_name.get(n, []))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    sweeps = picked("heat.sweep")
    steps = sum(s.get("n_steps", 0) for s in sweeps)
    node_steps = sum(s.get("n_steps", 0) * s.get("n_flat", 0) for s in sweeps)
    sweep_s = total("heat.sweep")
    maps = picked("mfg.psi_map")
    iterations = int(summary.get("iterations", 0))
    sim_s = total("mc.simulate_agents")
    agent_steps = sum(s.get("agent_steps", 0) for s in picked("mc.simulate_agents"))
    grids = picked("grid.discretize")
    return {
        "heat.sweeps": len(sweeps),
        "heat.node_steps": node_steps,
        "heat.us_per_step": ratio(sweep_s, steps, 1e6),
        "heat.ns_per_node_step": ratio(sweep_s, node_steps, 1e9),
        "mfg.map_calls": len(maps),
        "mfg.iterations": iterations,
        "mfg.useful_map_frac": ratio(iterations, len(maps)),
        "mfg.map_s": statistics.median(_duration(s) for s in maps) if maps else 0.0,
        "mfg.fixed_point_s": total("mfg.fixed_point"),
        "mfg.self_s": self_time("mfg.fixed_point", "mfg.psi_map"),
        "mfg.flow_s": total("mfg.cumulative_flow"),
        "mfg.drift_s": total("mfg.density_drift"),
        "mc.simulate_s": sim_s,
        "mc.agent_steps": agent_steps,
        "mc.agent_steps_per_s": ratio(agent_steps, sim_s),
        "mc.sample_s": self_time("mc.estimate_arrival_cdf"),
        "cli.write_s": total("cli.field_to_csv"),
        "cli.self_s": self_time("cli.main"),
        "cli.parse_s": total("cli.parse_config"),
        "network.build_s": total("network.build_network"),
        "grid.discretize_calls": len(grids),
        "grid.build_calls": len(picked("grid.build_grid")),
        "grid.discretize_s": total("grid.discretize"),
        "grid.n_flat": grids[0].get("n_flat", 0) if grids else 0,
        "grid.n_steps": grids[0].get("n_steps", 0) if grids else 0,
    }


def consistency_problems(name: str, m: dict) -> list[str]:
    """Relations between the traced counts and the run's results that hold
    while every candidate-map evaluation is one backward and one forward
    sweep over the whole time grid. A change to the candidate map (a
    spectral evaluation, a dropped replay) changes them by design, so they
    are reported, not gated."""
    problems = []
    extra = 2 if name == "desk_oracle" else 1  # capture replay; oracle re-solve
    if m["mfg.map_calls"] != m["mfg.iterations"] + extra:
        problems.append(f"mfg.map_calls {m['mfg.map_calls']} != iterations "
                        f"{m['mfg.iterations']} + {extra}")
    if m["heat.sweeps"] != 2 * m["mfg.map_calls"]:
        problems.append(f"heat.sweeps {m['heat.sweeps']} != 2 x mfg.map_calls")
    expected = m["heat.sweeps"] * m["grid.n_steps"] * m["grid.n_flat"]
    if m["heat.node_steps"] != expected:
        problems.append(f"heat.node_steps {m['heat.node_steps']} != sweeps x n_steps x "
                        f"n_flat = {expected}")
    return problems

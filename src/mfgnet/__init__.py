"""Equilibrium meeting-start times for crowds diffusing on a metric graph.

The model: a continuum of agents moves along the edges of a network by
controlled Brownian motion, pays for moving, for lateness and for waiting,
and exits at a single boundary vertex. The meeting starts once the arrived
fraction first exceeds a quorum. Solving means finding a start time that is
a fixed point of the induced best-response map; the solver runs a pair of
explicit heat sweeps (a change of variables makes the coupled system
linear) with flux-balance conditions at the vertices, and a particle
simulator provides an independent cross-check.
"""

from .errors import MFGNetError
from .network import build_network
from .grid import (
    GridField,
    SpatialGrid,
    TabulatedDensity,
    TimeGrid,
    build_grid,
    build_time_grid,
    integrate,
    normalize_mass,
    sample_density,
    sample_function,
)
from .heat import StepOperator, solve_backward_phi, solve_forward_psi
from .mfg import (
    CostSpec,
    DiscreteProblem,
    ProblemSpec,
    cumulative_flow,
    density_drift,
    discretize,
    fixed_point,
    psi_map,
    quorum_time,
    recover_um,
)
from .montecarlo import SimConfig, estimate_arrival_cdf, simulate_agents
from .cli import parse_config, run

__all__ = [
    "MFGNetError",
    "build_network",
    "GridField", "SpatialGrid", "TabulatedDensity", "TimeGrid", "build_grid",
    "build_time_grid", "integrate", "normalize_mass", "sample_density", "sample_function",
    "StepOperator", "solve_backward_phi", "solve_forward_psi",
    "CostSpec", "DiscreteProblem", "ProblemSpec", "cumulative_flow", "density_drift",
    "discretize", "fixed_point", "psi_map", "quorum_time", "recover_um",
    "SimConfig", "estimate_arrival_cdf", "simulate_agents",
    "parse_config", "run",
]

__version__ = "0.1.0"

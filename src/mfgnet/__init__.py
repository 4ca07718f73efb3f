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

from .errors import (
    CflViolation,
    DanglingEdgeEndpoint,
    DisconnectedGraph,
    ExitNotDegreeOne,
    MFGNetError,
    NonpositiveLength,
    NonpositivePhi,
    NumericalFailure,
    ParseError,
    SelfLoop,
    StepTooCoarse,
    ValidationError,
    ZeroMass,
)
from .network import Edge, NetworkTopology, Vertex, build_network, classify_vertices, incidence_sign
from .grid import (
    GridField,
    SpatialGrid,
    TabulatedDensity,
    TimeGrid,
    build_grid,
    build_time_grid,
    field_to_csv,
    integrate,
    normalize_mass,
    sample_density,
    sample_function,
)
from .heat import HeatSweep, StepOperator, solve_backward_phi, solve_forward_psi, step
from .mfg import (
    CostSpec,
    DiscreteProblem,
    DriftSeries,
    EquilibriumResult,
    ProblemSpec,
    PsiMapResult,
    cost,
    cumulative_flow,
    density_drift,
    discretize,
    drift_from_matrix,
    fixed_point,
    psi_map,
    quorum_time,
    recover_um,
    refine_spec,
    residual_mass_error,
)
from .montecarlo import (
    ArrivalCdf,
    SimConfig,
    dkw_epsilon,
    estimate_arrival_cdf,
    simulate_agents,
)
from .cli import RunConfig, emit_config, parse_config, run

__version__ = "0.1.0"

"""Simulation and passivity analysis of diffusively coupled nonlinear networks.

The package models networks of nonlinear integrators coupled through static
scalar edge functions, classifies edges by passivity (signed nonlinear
networks), computes equivalent edge functions of two-terminal resistive
subnetworks by cocontent minimization, and predicts agreement, clustering,
or divergence of the closed loop.
"""

from .analysis import (
    CycleClusterCount,
    PassivityConditionReport,
    Prediction,
    Verdict,
    classify_edges,
    cluster_count_prediction,
    distance_bounds,
    equivalent_passivity_condition,
    predict,
    signed_laplacian_min_eigenvalue,
)
from .circuit import (
    EquivalentEdgeTable,
    OperatingPoint,
    effective_resistance,
    equivalent_edge_function,
    solve_operating_point,
    tellegen_residual,
)
from .config import NetworkConfig, load_config, parse_config
from .edgefn import (
    DeadZone,
    EdgeFunction,
    EquilibriaInterval,
    GridSpec,
    Linear,
    MonotonicityReport,
    Negated,
    PowerSign,
    SampledTable,
    SignClass,
    SignLabel,
    Sinusoid,
    Sum,
    classify_sign,
    is_monotone_increasing,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    Disconnected,
    Inapplicable,
    InvalidGrid,
    NoConvergence,
    NonFiniteState,
    NotAnInterval,
    ParseError,
    SignetError,
    ValidationError,
)
from .graph import (
    Edge,
    Graph,
    Path,
    PathStep,
    all_simple_paths,
    connected_components,
    cycles_through_edge,
    edge_blocks,
    edge_subgraph,
    incidence,
    is_connected,
    least_path_cost,
    unique_cycle_through_edge,
)
from .network import NetworkSystem
from .nodes import Identity, NodeDynamics, Saturating, SignPower, sector_check
from .sim import (
    Cluster,
    Outcome,
    OutcomeKind,
    SimConfig,
    Trajectory,
    classify_outcome,
    simulate,
    write_trajectory_csv,
)

__version__ = "0.1.0"

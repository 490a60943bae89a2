"""Convergence predictors: decide, before simulating, what a network will do.

``predict`` returns the verdict of the first rung of one ladder of
sufficient conditions that holds, tagged ``applied_result``, with the
certificates that back it:

* strictly positive edges that do not span the network give
  ``positive-network`` (convergence, possibly into clusters) when every
  edge is positive, else ``none``;
* a spanning strictly positive subnetwork gives agreement:
  ``strictly-positive-network`` when it is the whole network,
  ``spanning-strictly-positive-subnetwork`` when the rest is positive;
* otherwise no two of the other edges may share a cycle, the strictly
  positive rest must be monotone, and each edge function plus the rest's
  equivalent edge function must be passive (else ``none``).  Several edges
  give ``cycle-separated-equivalent-passivity`` (convergence).  One edge
  gives ``strict-equivalent-passivity`` (agreement) when the sum is
  strictly passive, ``single-cycle-cluster-count`` (counts {1, cycle
  length}) when one cycle passes through it, else ``equivalent-passivity``
  (convergence).

The graph queries behind these verdicts and behind ``distance_bounds`` run
in polynomial time (biconnected blocks and shortest paths, see
``signet.graph``); path and cycle enumeration serves only as a test oracle.

All passivity tests are grid tests on the one recorded grid that ``predict``
is given, equivalent-edge sweeps included; verdicts are certificates over
the grid, not symbolic proofs.  Failure of every
hypothesis yields NoGuarantee, never a divergence claim: the sufficient
conditions say nothing about what happens when they fail (the linear
eigenvalue oracle is the exception, and is exposed separately).  The
paper's min-max property at a settled state, and the weights of an
all-linear network, are checked by the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import edgefn as ef
from .circuit import (
    EquivalentEdgeTable,
    edge_monotonicity,
    equivalent_edge_function,
)
from .errors import Inapplicable, NotAnInterval
from .graph import (
    Graph,
    Path,
    connected_components,
    edge_blocks,
    edge_subgraph,
    laplacian,
    least_path_cost,
    unique_cycle_through_edge,
)
from .network import NetworkSystem

_STRICTNESS_TOL = 1e-9


class Verdict(enum.Enum):
    AGREEMENT_GUARANTEED = "agreement_guaranteed"
    CONVERGENCE_GUARANTEED = "convergence_guaranteed"
    CLUSTER_COUNT_PREDICTION = "cluster_count_prediction"
    NO_GUARANTEE = "no_guarantee"


# The verdict each applied_result tag stands for.
_VERDICTS = {
    "strictly-positive-network": Verdict.AGREEMENT_GUARANTEED,
    "spanning-strictly-positive-subnetwork": Verdict.AGREEMENT_GUARANTEED,
    "strict-equivalent-passivity": Verdict.AGREEMENT_GUARANTEED,
    "single-cycle-cluster-count": Verdict.CLUSTER_COUNT_PREDICTION,
    "equivalent-passivity": Verdict.CONVERGENCE_GUARANTEED,
    "cycle-separated-equivalent-passivity": Verdict.CONVERGENCE_GUARANTEED,
    "positive-network": Verdict.CONVERGENCE_GUARANTEED,
    "none": Verdict.NO_GUARANTEE,
}


@dataclass(frozen=True)
class PassivityConditionReport:
    """Grid evaluation of s(z) = (psi_hat(z) + equivalent(z)) * z.

    ``holds`` means s >= -1e-9 at every sample; ``strict`` additionally
    requires s > 0 away from a 1e-9 neighborhood of the origin, where
    ``margin_min`` is the least margin (inf when no sample lies there).
    """

    holds: bool
    strict: bool
    zetas: np.ndarray
    margin: np.ndarray
    margin_min: float
    table: EquivalentEdgeTable


@dataclass(frozen=True)
class CycleClusterCount:
    """Possible steady cluster counts for a single-cycle negative edge."""

    counts: frozenset[int]
    cycle: Path


@dataclass(frozen=True)
class Prediction:
    verdict: Verdict
    applied_result: str
    cluster_counts: Optional[frozenset[int]] = None
    certificates: dict = field(default_factory=dict)


def classify_edges(
    system: NetworkSystem, grid: ef.GridSpec
) -> tuple[ef.SignClass, ...]:
    """Sign class of every edge function on the given grid.

    The network is classified one kind group at a time, in chunks of edges
    whose block of grid values stays under a fixed cell budget
    (``NetworkSystem.edge_chunks``); every edge gets exactly the class that
    ``edgefn.classify_sign`` gives it alone.
    """
    return ef.classify_signs(
        system.edge_chunks(grid.samples), system.edge_count, grid
    )


def equivalent_passivity_condition(
    positive_part: NetworkSystem,
    psi_hat: ef.EdgeFunction,
    p: int,
    q: int,
    grid: ef.GridSpec,
) -> PassivityConditionReport:
    """Test passivity of psi_hat plus the two-terminal equivalent function.

    The equivalent edge function of the remaining network between p and q is
    sampled on the grid; the report carries the margin curve
    s(z) = (psi_hat(z) + equivalent(z)) * z there.
    """
    table = equivalent_edge_function(positive_part, p, q, grid)
    zetas = table.zetas
    margin = (psi_hat(zetas) + table.mus) * zetas
    # Scale-aware tolerance: solver residue in the sampled flows enters the
    # margin multiplied by zeta, so exact-zero margins (boundary cases) show
    # up as noise of order 1e-12 * zeta**2.
    tol = _STRICTNESS_TOL * (1.0 + zetas * zetas)
    holds = bool(np.all(margin >= -tol))
    off_origin = np.abs(zetas) > _STRICTNESS_TOL
    strict = holds and bool(np.all(margin[off_origin] > tol[off_origin]))
    # A boundary's zero run holds both signed zeros; + 0.0 makes min's +0.
    margin_min = float(margin[off_origin].min()) + 0.0 if off_origin.any() else np.inf
    return PassivityConditionReport(holds, strict, zetas, margin, margin_min, table)


def _cycle_counts(g: Graph, edge_id: int) -> Optional[CycleClusterCount]:
    """{1, cycle length} when exactly one cycle passes through the edge."""
    cycle = unique_cycle_through_edge(g, edge_id)
    if cycle is None:
        return None
    return CycleClusterCount(frozenset({1, cycle.node_count()}), cycle)


def cluster_count_prediction(
    system: NetworkSystem,
    edge_id: int,
    grid: ef.GridSpec,
) -> CycleClusterCount:
    """Cluster counts {1, cycle length} for a unique-cycle non-strict edge.

    Applicable only when the given edge is the single non-strictly-positive
    edge of the network and exactly one cycle passes through it; the steady
    outputs then form either one cluster or as many clusters as the cycle
    has nodes, and simulation decides which.
    """
    classes = classify_edges(system, grid)
    non_strict = [
        e.id for e, c in zip(system.graph.edges, classes)
        if not c.is_strictly_positive
    ]
    if non_strict != [edge_id]:
        raise Inapplicable(
            f"edge {edge_id} must be the only non-strictly-positive edge, "
            f"found {non_strict}"
        )
    counts = _cycle_counts(system.graph, edge_id)
    if counts is None:
        raise Inapplicable(f"edge {edge_id} does not lie on exactly one cycle")
    return counts


def predict(system: NetworkSystem, grid: ef.GridSpec) -> Prediction:
    """Verdict of the first rung of the module's ladder that holds, with
    certificates; classes and sweeps share the grid."""
    classes = classify_edges(system, grid)
    sp_ids = tuple(
        e.id for e, c in zip(system.graph.edges, classes) if c.is_strictly_positive
    )
    certificates: dict = {
        "sign_classes": classes, "grid": grid, "strictly_positive_edges": sp_ids,
    }
    sp_set = set(sp_ids)
    all_positive = all(c.is_positive for c in classes)
    counts = None
    if len(connected_components(system.graph, lambda e: e.id in sp_set)) != 1:
        tag = "positive-network" if all_positive else "none"
    elif len(sp_ids) == system.edge_count:
        tag = "strictly-positive-network"
    elif all_positive:
        tag = "spanning-strictly-positive-subnetwork"
    else:
        tag, counts = _predict_non_strict(system, certificates)
    return Prediction(_VERDICTS[tag], tag, counts, certificates)


def _predict_non_strict(system, certificates):
    """The last rung of the ladder, under a spanning strictly positive rest.

    Returns the ``applied_result`` tag and the cluster counts.  A single
    non-strict edge is the k = 1 case, the only one that can certify
    agreement or predict cluster counts.
    """
    g, grid = system.graph, certificates["grid"]
    positive_ids = certificates["strictly_positive_edges"]
    non_strict = sorted(set(range(1, system.edge_count + 1)) - set(positive_ids))
    labels = edge_blocks(g)
    if len({labels[k - 1] for k in non_strict}) < len(non_strict):
        return "none", None
    positive_part = NetworkSystem(
        edge_subgraph(g, positive_ids)[0],
        system.node_dynamics,
        [system.edge_functions[k - 1] for k in positive_ids],
    )
    monotone = edge_monotonicity(positive_part, grid)
    if not all(r.nondecreasing for r in monotone):
        return "none", None
    reports = {}
    for hat_id in non_strict:
        hat_edge = g.edge(hat_id)
        report = equivalent_passivity_condition(
            positive_part, system.edge_functions[hat_id - 1],
            hat_edge.tail, hat_edge.head, grid,
        )
        reports[hat_id] = report
        if not report.holds:
            break
    certificates["conditions"] = reports
    if len(non_strict) == 1:
        certificates["condition"] = report
        certificates["terminal_edge"] = hat_id
    if not report.holds:
        return "none", None
    if len(non_strict) > 1:
        return "cycle-separated-equivalent-passivity", None
    if report.strict:
        return "strict-equivalent-passivity", None
    counts = _cycle_counts(g, hat_id)
    if counts is None:
        return "equivalent-passivity", None
    certificates["cycle"] = counts.cycle
    certificates["cycle_length"] = counts.cycle.node_count()
    return "single-cycle-cluster-count", counts.counts


def distance_bounds(system: NetworkSystem, i: int, j: int) -> tuple[float, float]:
    """Bracket for the limit of y_i - y_j in a positive network.

    Every path from i to j bounds the difference by the sum of the edges'
    equilibria intervals, orientation-corrected (an edge walked against its
    orientation contributes its negated, swapped interval); the bracket is
    the tightest combination over all simple paths.  Each step adds a
    non-positive amount to the lower sum and a non-negative one to the
    upper sum, so each end is a least path cost (two Dijkstra runs).

    Propagates NotAnInterval from edges without an interval-shaped zero
    set, and raises ValidationError when no path joins i and j.
    """
    intervals = [f.equilibria() for f in system.edge_functions]
    drops = [-iv.lower for iv in intervals]
    rises = [iv.upper for iv in intervals]
    # 0.0 - cost: a zero lower end stays +0.0, as the path sums start at +0.0.
    z_min = 0.0 - least_path_cost(system.graph, i, j, drops, rises)
    z_max = least_path_cost(system.graph, i, j, rises, drops)
    return z_min, z_max


def signed_laplacian_min_eigenvalue(g: Graph, weights) -> float:
    """Smallest eigenvalue of the weighted Laplacian on the agreement
    complement.

    For all-linear networks its sign separates agreement (positive) from
    divergence (negative); zero is the clustering boundary.
    """
    L = laplacian(g, weights)
    n = g.node_count
    if n == 1:
        return 0.0
    basis = np.linalg.qr(np.eye(n) - np.ones((n, n)) / n)[0][:, : n - 1]
    return float(np.linalg.eigvalsh(basis.T @ L @ basis).min())


def equilibria_membership(
    system: NetworkSystem, zeta: np.ndarray, tol: float
) -> tuple[Optional[bool], ...]:
    """Per-edge test that the tension sits in the edge's zero interval.

    Entries are None for edges whose zero set is not an interval.
    """
    out: list[Optional[bool]] = []
    for f, z in zip(system.edge_functions, zeta):
        try:
            interval = f.equilibria()
        except NotAnInterval:
            out.append(None)
            continue
        out.append(interval.contains(float(z), tol=tol))
    return tuple(out)


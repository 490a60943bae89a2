"""Checks of the paper's statements that only the tests call.

None of these is on a path that a command runs: they restate what the
paper proves about a network (the min-max property at a settled state, the
two Lyapunov profiles, the cycle vectors in the kernel of the incidence
matrix, the weights of an all-linear network), so that tests can hold the
library's results against them.
"""

from typing import Sequence

import numpy as np

from signet import edgefn as ef
from signet.errors import SignetError
from signet.graph import Graph, Path
from signet.network import NetworkSystem
from signet.sim import Trajectory


class NonLinearEdges(SignetError):
    """Operation requires every edge function to be linear."""


def network_linear_weights(system: NetworkSystem) -> np.ndarray:
    """Per-edge weights of an all-linear network; NonLinearEdges otherwise."""
    ws = []
    for e, f in zip(system.graph.edges, system.edge_functions):
        w = ef.linear_coefficient(f)
        if w is None:
            raise NonLinearEdges(f"edge {e.id} is not a linear function")
        ws.append(w)
    return np.array(ws, dtype=float)


def strict_extremum_violations(
    system: NetworkSystem,
    y_final: np.ndarray,
    strictly_positive_ids: Sequence[int],
    tol: float,
) -> list[int]:
    """Nodes incident only to strictly positive edges that stick out.

    At a settled state such a node must lie between the minimum and maximum
    of its neighbors' outputs (within tol); the returned list of violators
    is empty when the min-max property holds.
    """
    sp = set(strictly_positive_ids)
    neighbors: dict[int, list[int]] = {v: [] for v in range(1, system.node_count + 1)}
    only_sp = {v: True for v in range(1, system.node_count + 1)}
    for e in system.graph.edges:
        neighbors[e.tail].append(e.head)
        neighbors[e.head].append(e.tail)
        if e.id not in sp:
            only_sp[e.tail] = False
            only_sp[e.head] = False
    bad = []
    for v in range(1, system.node_count + 1):
        if not only_sp[v] or not neighbors[v]:
            continue
        vals = [y_final[w - 1] for w in neighbors[v]]
        if y_final[v - 1] > max(vals) + tol or y_final[v - 1] < min(vals) - tol:
            bad.append(v)
    return bad


def cycle_indicator(g: Graph, edge_id: int, closing_path: Path) -> np.ndarray:
    """Signed edge-indicator vector of the cycle (edge + closing path).

    The cycle is traversed tail -> head along the edge, then back along the
    path; entries are +1/-1 for edges traversed with/against their stored
    orientation.  The result lies in the null space of the incidence matrix.
    """
    vec = np.zeros(g.edge_count)
    vec[edge_id - 1] = 1.0
    for s in closing_path.steps:
        vec[s.edge_id - 1] = 1.0 if s.flip == 0 else -1.0
    return vec


def quadratic_storage_profile(tr: Trajectory) -> np.ndarray:
    """Sum of single-integrator storages against the final state, per sample.

    For positive networks of integrators this is a Lyapunov function, so the
    profile should be non-increasing along the recorded samples.
    """
    delta = tr.states - tr.states[-1]
    return 0.5 * np.sum(delta * delta, axis=1)


def cocontent_profile(system: NetworkSystem, tr: Trajectory) -> np.ndarray:
    """Total cocontent along the trajectory, per recorded sample.

    Under the equivalent-passivity convergence conditions this is a Lyapunov
    function for integrator networks.
    """
    zeta = tr.states[:, system.tail] - tr.states[:, system.head]
    return system.cocontent(zeta).sum(axis=1)

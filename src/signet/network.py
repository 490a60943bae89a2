"""Closed-loop network system: graph + node dynamics + edge functions.

The coupling is diffusive: tension zeta = E^T y is fed through the static
edge functions to give the flow mu, and the node inputs are u = -E mu.  The
power identity u^T y = -mu^T zeta holds by construction and the composed
field is independent of the chosen edge orientations.

E has exactly two nonzeros per column, so it is never formed: the system
keeps the 0-based tail and head of every edge, the tension is the gather
y[tail] - y[head] and the node input is a scatter-add of the flows, both
O(node_count + edge_count).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import edgefn as ef
from .errors import DimensionMismatch, ValidationError
from .graph import Graph, is_connected
from .nodes import Identity, NodeDynamics


class _FlowEvaluator:
    """Vectorized flow evaluation, grouping edges by function kind.

    Built once per network; the hot path of the simulator calls this every
    integrator stage, so linear / power / dead-zone groups are evaluated with
    single numpy expressions and only exotic kinds fall back to scalar calls.
    """

    def __init__(self, fns: Sequence[ef.EdgeFunction]):
        self.count = len(fns)
        idx_lin, w_lin = [], []
        idx_pow, w_pow, a_pow = [], [], []
        idx_dz, w_dz, b_dz = [], [], []
        fallback = []
        for i, f in enumerate(fns):
            w = ef.linear_coefficient(f)
            if w is not None:
                idx_lin.append(i)
                w_lin.append(w)
            elif isinstance(f, ef.PowerSign):
                idx_pow.append(i)
                w_pow.append(f.w)
                a_pow.append(f.alpha)
            elif isinstance(f, ef.DeadZone):
                idx_dz.append(i)
                w_dz.append(f.w)
                b_dz.append(f.band)
            else:
                fallback.append((i, f))
        self.idx_lin = np.array(idx_lin, dtype=int)
        self.w_lin = np.array(w_lin)
        self.idx_pow = np.array(idx_pow, dtype=int)
        self.w_pow = np.array(w_pow)
        self.a_pow = np.array(a_pow)
        self.idx_dz = np.array(idx_dz, dtype=int)
        self.w_dz = np.array(w_dz)
        self.b_dz = np.array(b_dz)
        self.fallback = fallback

    def __call__(self, zeta: np.ndarray) -> np.ndarray:
        mu = np.empty(self.count)
        if self.idx_lin.size:
            mu[self.idx_lin] = self.w_lin * zeta[self.idx_lin]
        if self.idx_pow.size:
            z = zeta[self.idx_pow]
            mu[self.idx_pow] = self.w_pow * np.sign(z) * np.abs(z) ** self.a_pow
        if self.idx_dz.size:
            z = zeta[self.idx_dz]
            mu[self.idx_dz] = (
                self.w_dz * np.sign(z) * np.maximum(np.abs(z) - self.b_dz, 0.0)
            )
        for i, f in self.fallback:
            mu[i] = f(zeta[i])
        return mu


class ReducedLaplacian:
    """Scatter plan for the weighted Laplacian E diag(d) E^T with the rows
    and columns of the two terminal nodes p and q removed.

    Every edge adds d_k to the diagonal entry of each free endpoint and -d_k
    to the two off-diagonal entries when both endpoints are free, so the
    block is one ``np.bincount`` over flat indices fixed at construction.
    ``free`` holds the 0-based free nodes in order; ``pinned`` holds, for
    each edge joining a free node to p, that node's position in ``free``.
    """

    def __init__(self, tail: np.ndarray, head: np.ndarray, n: int, p: int, q: int):
        free = np.array([i for i in range(n) if i not in (p - 1, q - 1)], dtype=np.intp)
        pos = np.full(n, -1, dtype=np.intp)
        pos[free] = np.arange(free.size)
        pt, ph = pos[tail], pos[head]
        size = free.size
        t_free, h_free = pt >= 0, ph >= 0
        both = t_free & h_free
        self.free = free
        self.size = size
        self.flat = np.concatenate([
            pt[t_free] * (size + 1),
            ph[h_free] * (size + 1),
            pt[both] * size + ph[both],
            ph[both] * size + pt[both],
        ])
        self.edge = np.concatenate([
            np.flatnonzero(t_free),
            np.flatnonzero(h_free),
            np.flatnonzero(both),
            np.flatnonzero(both),
        ])
        self.sign = np.concatenate([
            np.ones(int(t_free.sum()) + int(h_free.sum())),
            -np.ones(2 * int(both.sum())),
        ])
        self.pinned = np.concatenate([
            pt[(head == p - 1) & t_free],
            ph[(tail == p - 1) & h_free],
        ])

    def matrix(self, d: np.ndarray) -> np.ndarray:
        """(E_free * d) @ E_free.T without forming E."""
        return np.bincount(
            self.flat, d[self.edge] * self.sign, self.size * self.size
        ).reshape(self.size, self.size)


class NetworkSystem:
    """The triple (graph, node dynamics, edge functions).

    Connectivity is enforced at construction; all convergence results assume
    a connected graph.  For the integrator family used here the agreement
    space is automatically feasible (every node admits output anywhere at
    zero input), so no further equilibrium check is needed.  Instances are
    immutable in use; evaluation is pure and reentrant.
    """

    def __init__(
        self,
        graph: Graph,
        node_dynamics: Sequence[NodeDynamics],
        edge_functions: Sequence[ef.EdgeFunction],
    ):
        if len(node_dynamics) != graph.node_count:
            raise DimensionMismatch(
                f"{len(node_dynamics)} node dynamics for {graph.node_count} nodes"
            )
        if len(edge_functions) != graph.edge_count:
            raise DimensionMismatch(
                f"{len(edge_functions)} edge functions for {graph.edge_count} edges"
            )
        if not is_connected(graph):
            raise ValidationError("network graph must be connected")
        for i, f in enumerate(edge_functions):
            if abs(f(0.0)) > 1e-12:
                raise ValidationError(f"edge function {i + 1} must vanish at 0")
        self.graph = graph
        self.node_dynamics = tuple(node_dynamics)
        self.edge_functions = tuple(edge_functions)
        # 0-based endpoints of every edge, in id order: the sparse form of E.
        self.tail = np.array([e.tail - 1 for e in graph.edges], dtype=np.intp)
        self.head = np.array([e.head - 1 for e in graph.edges], dtype=np.intp)
        self.tail.flags.writeable = False
        self.head.flags.writeable = False
        self._reduced: dict[tuple[int, int], ReducedLaplacian] = {}
        self._flow = _FlowEvaluator(self.edge_functions)
        self.all_identity = all(isinstance(d, Identity) for d in self.node_dynamics)

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    def tension(self, y: np.ndarray) -> np.ndarray:
        """zeta = E^T y = y[tail] - y[head]: relative outputs along edges."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.node_count,):
            raise DimensionMismatch(
                f"potential vector has shape {y.shape}, expected ({self.node_count},)"
            )
        return y[self.tail] - y[self.head]

    def flow(self, zeta: np.ndarray) -> np.ndarray:
        """mu_k = psi_k(zeta_k), componentwise."""
        zeta = np.asarray(zeta, dtype=float)
        if zeta.shape != (self.edge_count,):
            raise DimensionMismatch(
                f"tension vector has shape {zeta.shape}, expected ({self.edge_count},)"
            )
        return self._flow(zeta)

    def input(self, mu: np.ndarray) -> np.ndarray:
        """u = -E mu: net flow into each node (in at heads, out at tails)."""
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.edge_count,):
            raise DimensionMismatch(
                f"flow vector has shape {mu.shape}, expected ({self.edge_count},)"
            )
        return np.bincount(self.head, mu, self.node_count) - np.bincount(
            self.tail, mu, self.node_count
        )

    def node_input(self, x: np.ndarray) -> np.ndarray:
        """u as a function of the state, u = -E Psi(E^T x)."""
        return self.input(self.flow(self.tension(x)))

    def vector_field(self, x: np.ndarray) -> np.ndarray:
        """x'_i = gamma_i(u_i) with y = x."""
        u = self.node_input(x)
        if self.all_identity:
            return u
        return np.array(
            [d.gamma(float(v)) for d, v in zip(self.node_dynamics, u)]
        )

    def reduced_laplacian(self, p: int, q: int) -> ReducedLaplacian:
        """Scatter plan of the Laplacian without terminals p and q (1-based).

        Built on first use and kept, so a sweep over one terminal pair
        builds it once; rebuilding it is idempotent.
        """
        plan = self._reduced.get((p, q))
        if plan is None:
            plan = ReducedLaplacian(self.tail, self.head, self.node_count, p, q)
            self._reduced[(p, q)] = plan
        return plan

    def linear_weights(self) -> Optional[np.ndarray]:
        """Per-edge scalar weights when every edge function is linear."""
        ws = [ef.linear_coefficient(f) for f in self.edge_functions]
        if any(w is None for w in ws):
            return None
        return np.array(ws, dtype=float)

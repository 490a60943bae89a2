"""Closed-loop network system: graph + node dynamics + edge functions.

The coupling is diffusive: tension zeta = E^T y is fed through the static
edge functions to give the flow mu, and the node inputs are u = -E mu.  The
power identity u^T y = -mu^T zeta holds by construction and the composed
field is independent of the chosen edge orientations.

E has exactly two nonzeros per column, so it is never formed: the system
keeps the 0-based tail and head of every edge, the tension is the gather
y[tail] - y[head] and the node input is a scatter-add of the flows, both
O(node_count + edge_count).  One unchecked function, built once, does this
for one state or a block of B states, gathering rows row-major so that each
is one state's bit for bit; it serves ``sim.simulate``'s RK4 stages,
``node_input``, ``vector_field`` and ``circuit``'s solves and block rows.

Edge functions and node dynamics are grouped by kind once, at construction:
the members of a group are stacked into one object of that kind whose
float parameters are arrays, so flow, cocontent, slope and the node drifts
each cost one numpy call per group on arrays of shape (..., m) or (..., n).
A single group covering every edge is called directly, without a gather
and scatter.  Otherwise a group whose positions are evenly spaced (a
contiguous run, or every other edge) reads and writes them through a
strided view; only irregular positions are gathered and scattered by an
index array.  Linear edges join the dead-zone group when a network has
both, bare or under a negation, and the group stacks as a plain DeadZone:
a linear edge is a dead zone of band 0, whose flow, cocontent and slope
formulas give the linear ones bit for bit (the slope by its band-0 rule; a
cocontent at -NaN reads +NaN), so the two kinds cost one call.  Grouping
reads only the type of each object unless some kind nests or has other
than float parameters; a sampled table is keyed by the bytes of its knots,
so equal tables share one group, and a negated one stacks as a table with
negated knots, checked no more.
Connectivity is checked by the union-find of ``graph.connected_components``.

Grid certificates (sign classes, monotonicity) evaluate every edge on one
shared row of tensions.  ``NetworkSystem.edge_chunks`` serves the groups
for that in chunks of edges whose block of values stays under a fixed cell
budget, with the group's parameters as column views, one row per edge:
transposed (samples, k) blocks made classification about three times slower.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Hashable
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import edgefn as ef
from .errors import DimensionMismatch, ValidationError
from .graph import Graph, is_connected
from .nodes import Identity, NodeDynamics

# Edges times tensions evaluated at once by the chunks of
# NetworkSystem.edge_chunks, whatever the network: about 128 KiB per float
# array, the size up to which glibc's default allocator serves memory from
# its heap rather than from fresh pages.
_CHUNK_CELLS = 1 << 14

NOT_CONNECTED = "network graph must be connected"


@functools.cache
def _float_fields(kind: type) -> Optional[tuple[str, ...]]:
    """Field names of a dataclass kind whose fields are all declared float,
    else None.  Objects of such a kind stack into one with array fields."""
    if not dataclasses.is_dataclass(kind):
        return None
    fields = dataclasses.fields(kind)
    if all(f.type in ("float", float) for f in fields):
        return tuple(f.name for f in fields)
    return None


def _kind_key(obj) -> Hashable:
    """Objects with equal keys stack into one group.

    The key is the kind, nested through Negated and Sum.  A sampled table
    groups with the tables of the same knots, signed zeros included; an
    object of another kind with other than float parameters, only with
    itself.
    """
    kind = type(obj)
    if kind is ef.Negated:
        return (kind, _kind_key(obj.inner))
    if kind is ef.Sum:
        return (kind,) + tuple(_kind_key(t) for t in obj.terms)
    if _float_fields(kind) is not None:
        return kind
    if kind is ef.SampledTable:
        return (kind, obj._knots[0].tobytes(), obj._knots[1].tobytes())
    return id(obj)


def _stack(objs: Sequence) -> object:
    """One object of the common kind of objs whose float parameters are
    arrays over objs, so its methods evaluate all of them at once."""
    first = objs[0]
    if type(first) is ef.Negated and type(first.inner) is ef.SampledTable:
        # Negating the knots is exact and saves a negation per call.
        return first.inner.negated()
    if type(first) is ef.Negated:
        return ef.Negated(_stack([o.inner for o in objs]))
    if type(first) is ef.Sum:
        return ef.Sum(tuple(_stack(ts) for ts in zip(*(o.terms for o in objs))))
    kind = type(first)
    if len(set(map(type, objs))) > 1:  # linear edges in a dead-zone group
        kind = ef.DeadZone
    names = _float_fields(kind)
    if not names:
        return first
    # Every object was validated when it was built; the stack skips
    # __post_init__, whose scalar checks do not apply to arrays.  A linear
    # member of a dead-zone group has band 0.
    stacked = object.__new__(kind)
    for name in names:
        values = np.fromiter((getattr(o, name, 0.0) for o in objs), float, len(objs))
        object.__setattr__(stacked, name, values)
    return stacked


def _columns(stacked, part: slice) -> object:
    """The members ``part`` of a stacked object with their parameters as
    (k, 1) column views: called on a row of tensions it gives one row per
    member.  An object without array parameters is returned as it is."""
    kind = type(stacked)
    if kind is ef.Negated:
        return ef.Negated(_columns(stacked.inner, part))
    if kind is ef.Sum:
        return ef.Sum(tuple(_columns(t, part) for t in stacked.terms))
    names = _float_fields(kind)
    if not names:
        return stacked
    columns = object.__new__(kind)
    for name in names:
        object.__setattr__(columns, name, getattr(stacked, name)[part, None])
    return columns


# Keys of a kind that joins another's group when both are present: a linear
# edge is a dead zone with band 0, so the two kinds cost one call.
_JOINS = (
    (ef.Linear, ef.DeadZone),
    ((ef.Negated, ef.Linear), (ef.Negated, ef.DeadZone)),
)


def _group_by_kind(objs: Sequence) -> list[tuple[Union[slice, np.ndarray], object]]:
    """(positions, stacked object) per kind, positions as a slice when they
    are evenly spaced (a lone member is a step-1 slice) so that gathering
    them is a strided view, else as an index array.  When every kind has
    float parameters only, the types are the keys and ``_kind_key`` is not
    called."""
    keys = list(map(type, objs))
    if any(_float_fields(kind) is None for kind in set(keys)):
        keys = list(map(_kind_key, objs))
    present = set(keys)
    joins = {a: b for a, b in _JOINS if a in present and b in present}
    if joins:
        keys = [joins.get(key, key) for key in keys]
    positions: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        positions.setdefault(key, []).append(i)
    groups = []
    for idx in positions.values():
        step = idx[1] - idx[0] if len(idx) > 1 else 1
        at = (
            slice(idx[0], idx[-1] + 1, step)
            if idx == list(range(idx[0], idx[-1] + 1, step))
            else np.array(idx, dtype=np.intp)
        )
        groups.append((at, _stack([objs[i] for i in idx])))
    return groups


def _apply_by_kind(groups, method: str) -> Callable[[np.ndarray], np.ndarray]:
    """The named method of every grouped object as one function mapping
    x[..., k] to out[..., k], where k runs over the objects in order."""
    if len(groups) == 1:
        return getattr(groups[0][1], method)
    calls = [(at, getattr(obj, method)) for at, obj in groups]

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape)
        for at, call in calls:
            # A leading Ellipsis makes an index array gather about 3x slower.
            at = at if x.ndim == 1 else (..., at)
            out[at] = call(x[at])
        return out

    return apply


def _checked(a, name: str, size: int, batched: bool = False) -> np.ndarray:
    """a as a float array of shape (size,), or (..., size) when batched."""
    a = np.asarray(a, dtype=float)
    if (a.shape[-1:] if batched else a.shape) != (size,):
        expected = f"(..., {size})" if batched else f"({size},)"
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected {expected}")
    return a


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
        self.free = free
        self.size = size
        # The four entries of each edge: +d_k at (tail, tail) and (head,
        # head), -d_k at (tail, head) and (head, tail).
        rows, cols = np.stack([pt, ph, pt, ph]), np.stack([pt, ph, ph, pt])
        keep = (rows >= 0) & (cols >= 0)
        self.flat = (rows * size + cols)[keep]
        self.edge = np.broadcast_to(np.arange(tail.size), keep.shape)[keep]
        self.sign = np.broadcast_to([[1.0], [1.0], [-1.0], [-1.0]], keep.shape)[keep]
        # The free end of each edge to p: the row of an entry in column p.
        self.pinned = rows[2:][(np.stack([head, tail]) == p - 1) & (rows[2:] >= 0)]

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
            raise ValidationError(NOT_CONNECTED)
        self.graph = graph
        self.node_dynamics = tuple(node_dynamics)
        self.edge_functions = tuple(edge_functions)
        # 0-based endpoints of every edge, in id order: the sparse form of E.
        m = graph.edge_count
        self.tail = np.fromiter(map(itemgetter(1), graph.edges), np.intp, m) - 1
        self.head = np.fromiter(map(itemgetter(2), graph.edges), np.intp, m) - 1
        self.tail.flags.writeable = False
        self.head.flags.writeable = False
        self._reduced: dict[tuple[int, int], ReducedLaplacian] = {}
        self._edge_groups = edges = _group_by_kind(self.edge_functions)
        self._flow = _apply_by_kind(edges, "__call__")
        self._cocontent = _apply_by_kind(edges, "cocontent")
        self._slope = _apply_by_kind(edges, "derivative")
        self._gamma = _apply_by_kind(_group_by_kind(self.node_dynamics), "gamma")
        n, tail, head = graph.node_count, self.tail, self.head
        flow, gamma = self._flow, self._gamma

        # E Psi(E^T y) of an unchecked state (n,) or (B, n): u, or with parts the
        # tension, flow and each node's flows sent (as tail) and received (as
        # head).  take() gathers rows row-major (y[:, tail] would change the bits
        # of row sums); no comprehension, whose free names would be slow cells.
        def coupling(y: np.ndarray, parts: bool = False):
            if y.ndim == 1:
                zeta = y[tail] - y[head]
                mu = flow(zeta)
                sent, received = np.bincount(tail, mu, n), np.bincount(head, mu, n)
            else:
                zeta = y.take(tail, axis=1) - y.take(head, axis=1)
                mu, at = flow(zeta), np.arange(0, y.size, n)[:, None]
                sent = np.bincount((tail + at).ravel(), mu.ravel(), y.size)
                received = np.bincount((head + at).ravel(), mu.ravel(), y.size)
                sent, received = sent.reshape(y.shape), received.reshape(y.shape)
            return (zeta, mu, sent, received) if parts else received - sent

        self._coupling = self._field = coupling
        if any(type(d) is not Identity for d in self.node_dynamics):
            self._field = lambda y: gamma(coupling(y))
        at_zero = np.abs(flow(np.zeros(m)))
        for i in np.flatnonzero(at_zero > 1e-12)[:1]:
            raise ValidationError(f"edge function {i + 1} must vanish at 0")

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    def tension(self, y: np.ndarray) -> np.ndarray:
        """zeta = E^T y = y[tail] - y[head]: relative outputs along edges."""
        y = _checked(y, "potential vector", self.node_count)
        return y[self.tail] - y[self.head]

    def flow(self, zeta: np.ndarray) -> np.ndarray:
        """mu_k = psi_k(zeta_k) along the last axis of a (..., m) array."""
        return self._flow(_checked(zeta, "tension array", self.edge_count, True))

    def cocontent(self, zeta: np.ndarray) -> np.ndarray:
        """Per-edge cocontent, the integral of psi_k from 0 to zeta_k."""
        return self._cocontent(_checked(zeta, "tension array", self.edge_count, True))

    def slope(self, zeta: np.ndarray) -> np.ndarray:
        """Per-edge derivative psi_k'(zeta_k); infinite at power-law kinks."""
        return self._slope(_checked(zeta, "tension array", self.edge_count, True))

    def edge_chunks(
        self, samples: int
    ) -> Iterator[tuple[np.ndarray, ef.EdgeFunction]]:
        """(positions, function) chunks covering every edge once, for
        evaluating the network on one shared row of ``samples`` tensions.

        Called on a (1, samples) array, a chunk's function gives one row of
        values per position, or one row standing for all of them when the
        group's members are equal (sampled tables).  A chunk holds edges of
        one kind, at most ``_CHUNK_CELLS // samples`` of them and at least
        one, so no block grows with the edge count.
        """
        size = max(1, _CHUNK_CELLS // max(samples, 1))
        ids = np.arange(self.edge_count)
        for at, stacked in self._edge_groups:
            positions = ids[at]
            if np.ndim(stacked(0.0)) == 0:  # no array parameters
                yield positions, stacked
                continue
            for start in range(0, positions.size, size):
                part = slice(start, start + size)
                yield positions[part], _columns(stacked, part)

    def node_input(self, x: np.ndarray) -> np.ndarray:
        """u as a function of the state, u = -E Psi(E^T x)."""
        return self._coupling(_checked(x, "potential vector", self.node_count))

    def vector_field(self, x: np.ndarray) -> np.ndarray:
        """x'_i = gamma_i(u_i) with y = x."""
        return self._field(_checked(x, "potential vector", self.node_count))

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

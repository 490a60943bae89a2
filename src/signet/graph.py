"""Undirected graphs with fixed edge orientations and incidence-matrix algebra.

Nodes are numbered 1..node_count and every edge carries an arbitrary but
fixed orientation (tail -> head).  The orientation is an input, never chosen
internally, so that tension signs are reproducible across runs.  Graphs are
stored as edge lists.  The dense incidence matrix is formed only on request,
as a reference for small graphs; the simulation and solver paths work on
edge index arrays instead (see ``NetworkSystem``).

A graph checks its edges in one pass when it is built (dense ids, no
self-loops, endpoints in range), and keeps an edge tuple that is already
in id order as it is.

The predictors' graph queries run in linear or near-linear time: a
disjoint-set forest (Tarjan 1975) gives connected components, biconnected
blocks (Tarjan 1972) decide which edges share a cycle and read off the only
cycle through an edge, and Dijkstra's algorithm (1959) gives least path
costs.  Only the queries whose answer depends on the order of the edges at
a node build sorted adjacency lists.  Simple-path and cycle enumeration is
exponential, guarded by an explicit node-count cap, and kept as the test
oracle for those queries; the tests (``tests/oracles.py``) turn its cycles
into signed indicator vectors, which lie in the kernel of the incidence
matrix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapExceeded, DimensionMismatch, ValidationError

# Simple-path / cycle enumeration is exponential in the worst case; refuse
# graphs beyond this many nodes unless the caller raises the cap explicitly.
DEFAULT_ENUMERATION_CAP = 20


class Edge(NamedTuple):
    """Oriented edge: dense 1-based id, tail node, head node."""

    id: int
    tail: int
    head: int


class PathStep(NamedTuple):
    """One edge of a path.

    ``flip`` is 0 when the stored tail->head orientation agrees with the
    traversal direction and 1 when the edge is walked against it.
    """

    edge_id: int
    flip: int


@dataclass(frozen=True)
class Path:
    """Simple path between two nodes, as an ordered list of oriented steps."""

    steps: tuple[PathStep, ...]
    start: int
    end: int

    def __len__(self) -> int:
        return len(self.steps)

    def reversed(self) -> "Path":
        """The same path walked end -> start, with every flip toggled."""
        steps = tuple(PathStep(s.edge_id, 1 - s.flip) for s in self.steps[::-1])
        return Path(steps, self.end, self.start)

    def node_count(self) -> int:
        return len(self.steps) + 1


@dataclass(frozen=True)
class Graph:
    """Undirected graph with oriented edges.

    Invariants enforced at construction: no self-loops, node indices in
    [1, node_count], edge ids unique and dense (1..edge_count).  Instances
    are immutable and safe to share between threads.
    """

    node_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValidationError("graph needs at least one node")
        edges = self.edges
        if type(edges) is not tuple or not set(map(type, edges)) <= {Edge}:
            edges = tuple(map(Edge._make, edges))
        dense = list(range(1, len(edges) + 1))
        if list(map(itemgetter(0), edges)) != dense:
            edges = tuple(sorted(edges, key=itemgetter(0)))
            if [e.id for e in edges] != dense:
                raise ValidationError("edge ids must be unique and dense (1..|E|)")
        n = self.node_count
        for k, tail, head in edges:
            if tail == head:
                raise ValidationError(f"edge {k} is a self-loop")
            if not (1 <= tail <= n and 1 <= head <= n):
                for v in (tail, head):
                    self.node(v, f"edge {k} endpoint")
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def node(self, v: int, name: str = "node") -> int:
        """``v`` when it numbers a node, else ValidationError naming it ``name``."""
        if not (1 <= v <= self.node_count):
            raise ValidationError(f"{name} {v} out of range 1..{self.node_count}")
        return v

    def edge(self, edge_id: int) -> Edge:
        if not (1 <= edge_id <= len(self.edges)):
            raise ValidationError(f"no edge with id {edge_id}")
        return self.edges[edge_id - 1]


def incidence(g: Graph) -> np.ndarray:
    """Dense node-by-edge incidence matrix.

    Column k has +1 at the tail of edge k and -1 at its head; all other
    entries are zero.  Columns therefore sum to zero, and for a connected
    graph the matrix has rank node_count - 1.  It takes O(node_count *
    edge_count) memory, so it serves small dense computations (``laplacian``)
    and tests; products with it are computed from edge endpoints in
    ``NetworkSystem``.
    """
    mat = np.zeros((g.node_count, g.edge_count))
    for e in g.edges:
        mat[e.tail - 1, e.id - 1] = 1.0
        mat[e.head - 1, e.id - 1] = -1.0
    return mat


def laplacian(g: Graph, weights) -> np.ndarray:
    """Dense weighted Laplacian E diag(w) E^T of one weight per edge, in id
    order; DimensionMismatch for any other number of weights."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (g.edge_count,):
        raise DimensionMismatch(
            f"weight vector has shape {w.shape}, expected ({g.edge_count},)"
        )
    E = incidence(g)
    return (E * w) @ E.T


def _adjacency(g: Graph):
    """Node -> list of (neighbor, edge) in edge id order, as ``g.edges`` is."""
    adj: dict[int, list[tuple[int, Edge]]] = {v: [] for v in range(1, g.node_count + 1)}
    for e in g.edges:
        adj[e.tail].append((e.head, e))
        adj[e.head].append((e.tail, e))
    return adj


def connected_components(
    g: Graph, edge_filter: Optional[Callable[[Edge], bool]] = None
) -> list[list[int]]:
    """Partition of the nodes under the edges passing ``edge_filter``.

    Two nodes share a block iff they are joined by a path of kept edges.
    Blocks are sorted internally and listed by their smallest node.  A
    disjoint-set forest (Tarjan 1975) with path halving, in which the root
    of every set is its smallest node: a union hangs the larger root below
    the smaller one, so every other node has a parent below it, and one
    ascending pass resolves every node to its root.
    """
    parent = list(range(g.node_count + 1))
    for _, a, b in g.edges if edge_filter is None else filter(edge_filter, g.edges):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    blocks: dict[int, list[int]] = {}
    for v in range(1, g.node_count + 1):
        parent[v] = root = parent[parent[v]]
        blocks.setdefault(root, []).append(v)
    return list(blocks.values())


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def edge_blocks(g: Graph) -> tuple[int, ...]:
    """Biconnected-block label of every edge, indexed by edge id - 1.

    Two edges carry the same label exactly when some simple cycle contains
    both; a bridge is a block of its own.  Tarjan's depth-first search,
    run with an explicit stack so that long rings do not exhaust Python's
    recursion limit; the edge to the parent is skipped by id, so a parallel
    edge counts as a back edge.  O(node_count + edge_count) after sorting
    the adjacency lists.
    """
    adj = _adjacency(g)
    disc = [0] * (g.node_count + 1)  # discovery time, 0 = unvisited
    low = [0] * (g.node_count + 1)
    labels = [-1] * g.edge_count
    pending: list[int] = []  # edges of the blocks still open
    clock = blocks = 0
    for root in range(1, g.node_count + 1):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        frames = [(root, 0, iter(adj[root]))]  # node, edge from parent, cursor
        while frames:
            v, via, cursor = frames[-1]
            for w, e in cursor:
                if e.id == via:
                    continue
                if not disc[w]:
                    pending.append(e.id)
                    clock += 1
                    disc[w] = low[w] = clock
                    frames.append((w, e.id, iter(adj[w])))
                    break
                if disc[w] < disc[v]:  # back edge to an ancestor
                    pending.append(e.id)
                    low[v] = min(low[v], disc[w])
            else:
                frames.pop()
                if not frames:
                    continue
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:  # u separates v's subtree: close a block
                    while True:
                        k = pending.pop()
                        labels[k - 1] = blocks
                        if k == via:
                            break
                    blocks += 1
    return tuple(labels)


def unique_cycle_through_edge(g: Graph, edge_id: int) -> Optional[Path]:
    """Closing path of the only simple cycle through the edge, else None.

    An edge lies on exactly one cycle when its biconnected block has as many
    edges as nodes: the block is then that cycle.  The path runs from the
    edge's head back to its tail, as the paths of ``cycles_through_edge``
    do.  O(node_count + edge_count).
    """
    e = g.edge(edge_id)
    labels = edge_blocks(g)
    block = [x for x in g.edges if labels[x.id - 1] == labels[edge_id - 1]]
    ends: dict[int, list[Edge]] = {}
    for x in block:
        ends.setdefault(x.tail, []).append(x)
        ends.setdefault(x.head, []).append(x)
    if len(block) != len(ends):
        return None
    steps = []
    v, prev = e.head, edge_id
    while v != e.tail:
        x = next(x for x in ends[v] if x.id != prev)
        steps.append(PathStep(x.id, 0 if x.tail == v else 1))
        v, prev = (x.head if x.tail == v else x.tail), x.id
    return Path(tuple(steps), e.head, e.tail)


def least_path_cost(
    g: Graph,
    i: int,
    j: int,
    forward: Sequence[float],
    backward: Sequence[float],
) -> float:
    """Least total cost of a path from node i to node j (Dijkstra).

    Walking edge k tail -> head costs ``forward[k - 1]``, head -> tail
    ``backward[k - 1]``; costs must be non-negative and may be +inf.  Costs
    are summed from i outward, and rounded addition is monotone, so the
    result equals the least such sum over all simple paths exactly.  Raises
    ValidationError when no path joins i and j.
    """
    for v in (i, j):
        g.node(v)
    adj = _adjacency(g)
    best = {i: 0.0}
    done: set[int] = set()
    heap = [(0.0, i)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        if v == j:
            return d
        done.add(v)
        for w, e in adj[v]:
            cost = forward[e.id - 1] if e.tail == v else backward[e.id - 1]
            nd = d + cost
            if w not in best or nd < best[w]:
                best[w] = nd
                heapq.heappush(heap, (nd, w))
    raise ValidationError(f"no path between nodes {i} and {j}")


def all_simple_paths(
    g: Graph, i: int, j: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Path]:
    """Every simple path from node i to node j.

    Each step records whether the stored edge orientation agrees with the
    traversal direction (flip = 0) or not (flip = 1).  Deterministic order:
    depth-first, neighbors visited in increasing edge-id order.

    Raises CapExceeded when node_count exceeds ``cap``.
    """
    for v in (i, j):
        g.node(v)
    if g.node_count > cap:
        raise CapExceeded(
            f"graph has {g.node_count} nodes, enumeration cap is {cap}"
        )
    if i == j:
        return [Path((), i, j)]
    adj = _adjacency(g)
    out: list[Path] = []
    steps: list[PathStep] = []
    visited = {i}

    def dfs(v: int):
        for w, e in adj[v]:
            if w in visited:
                continue
            steps.append(PathStep(e.id, 0 if e.tail == v else 1))
            if w == j:
                out.append(Path(tuple(steps), i, j))
            else:
                visited.add(w)
                dfs(w)
                visited.remove(w)
            steps.pop()

    dfs(i)
    return out


def cycles_through_edge(
    g: Graph, edge_id: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Path]:
    """All simple cycles containing the given edge.

    Each cycle is returned as the simple path from the edge's head back to
    its tail that avoids the edge itself; closing it with the edge yields
    the cycle.  A tree edge yields an empty list.
    """
    e = g.edge(edge_id)
    if g.node_count > cap:
        raise CapExceeded(
            f"graph has {g.node_count} nodes, enumeration cap is {cap}"
        )
    if g.edge_count == 1:
        return []
    others = [x for x in g.edges if x.id != edge_id]
    sub, id_map = edge_subgraph(g, [x.id for x in others])
    back = {new: old for old, new in id_map.items()}
    paths = all_simple_paths(sub, e.head, e.tail, cap=cap)
    return [
        Path(tuple(PathStep(back[s.edge_id], s.flip) for s in p.steps), e.head, e.tail)
        for p in paths
    ]


def edge_subgraph(g: Graph, edge_ids) -> tuple[Graph, dict[int, int]]:
    """Subgraph on the same nodes keeping only ``edge_ids``.

    Kept edges are renumbered densely in increasing original-id order.
    Returns the subgraph and the mapping old id -> new id.
    """
    keep = sorted(set(edge_ids))
    for k in keep:
        g.edge(k)
    id_map = {old: new + 1 for new, old in enumerate(keep)}
    edges = tuple(
        Edge(id_map[e.id], e.tail, e.head) for e in g.edges if e.id in id_map
    )
    return Graph(g.node_count, edges), id_map

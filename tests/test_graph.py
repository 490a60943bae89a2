"""Graph construction, incidence algebra, and path/cycle enumeration."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.analysis import distance_bounds
from signet.edgefn import Linear, SampledTable
from signet.errors import CapExceeded, ValidationError
from signet.graph import (
    Edge,
    Graph,
    _adjacency,
    all_simple_paths,
    connected_components,
    cycles_through_edge,
    edge_blocks,
    edge_subgraph,
    incidence,
    is_connected,
    unique_cycle_through_edge,
)

from oracles import cycle_indicator


def test_single_edge_incidence_column():
    g = Graph(2, (Edge(1, 1, 2),))
    assert incidence(g).tolist() == [[1.0], [-1.0]]


def test_triangle_incidence_matrix():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
    expected = [[1, 0, 1], [-1, 1, 0], [0, -1, -1]]
    assert incidence(g).tolist() == expected


def test_path_graph_tension_from_potentials():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    zeta = incidence(g).T @ np.array([3.0, 1.0, 0.0])
    assert zeta.tolist() == [2.0, 1.0]


def test_construction_rejects_self_loops():
    with pytest.raises(ValidationError):
        Graph(3, (Edge(1, 2, 2),))


def test_construction_rejects_sparse_ids():
    with pytest.raises(ValidationError):
        Graph(3, (Edge(1, 1, 2), Edge(3, 2, 3)))


def test_construction_rejects_out_of_range_nodes():
    with pytest.raises(ValidationError):
        Graph(11, tuple(Edge(i, i, i + 1) for i in range(1, 11)) + (Edge(11, 1, 12),))


def test_components_of_six_node_strictly_positive_part():
    # Keeping only the linear tree edges e2..e5 splits the six-node network
    # into the two blocks that show up as steady clusters.
    edges = [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5), (5, 1, 6),
             (6, 1, 3), (7, 2, 4), (8, 3, 5), (9, 2, 6)]
    g = Graph(6, tuple(Edge(*e) for e in edges))
    blocks = connected_components(g, lambda e: e.id in {2, 3, 4, 5})
    assert blocks == [[1, 6], [2, 3, 4, 5]]
    assert connected_components(g) == [[1, 2, 3, 4, 5, 6]]
    assert connected_components(g, lambda e: False) == [[v] for v in range(1, 7)]


def test_all_simple_paths_triangle():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
    paths = all_simple_paths(g, 1, 3)
    as_sets = {tuple((s.edge_id, s.flip) for s in p.steps) for p in paths}
    assert as_sets == {((1, 0), (2, 0)), ((3, 0),)}


def test_all_simple_paths_path_graph():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    paths = all_simple_paths(g, 1, 3)
    assert len(paths) == 1 and len(paths[0]) == 2


def brute_force_path_count(g: Graph, i: int, j: int) -> int:
    """Independent oracle: enumerate node orderings and keep adjacent ones."""
    adjacency = {(e.tail, e.head) for e in g.edges}
    adjacency |= {(b, a) for a, b in adjacency}
    inner = [v for v in range(1, g.node_count + 1) if v not in (i, j)]
    count = 0
    for r in range(len(inner) + 1):
        for mid in itertools.permutations(inner, r):
            seq = (i, *mid, j)
            if all(pair in adjacency for pair in zip(seq, seq[1:])):
                count += 1
    return count


def test_four_cycle_paths_match_brute_force():
    g = Graph(4, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 4), Edge(4, 4, 1)))
    paths = all_simple_paths(g, 1, 3)
    assert len(paths) == brute_force_path_count(g, 1, 3) == 2
    assert sorted(len(p) for p in paths) == [2, 2]


def test_path_reversal_flips_orientation_marks():
    g = Graph(4, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 4), Edge(4, 4, 1)))
    for p in all_simple_paths(g, 1, 3):
        r = p.reversed()
        assert r.start == p.end and r.end == p.start
        assert [s.edge_id for s in r.steps] == [s.edge_id for s in p.steps][::-1]
        assert [s.flip for s in r.steps] == [1 - s.flip for s in p.steps][::-1]


def test_reversed_path_set_matches_forward_set():
    g = Graph(4, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 4), Edge(4, 4, 1)))
    fwd = {tuple((s.edge_id, s.flip) for s in p.steps)
           for p in all_simple_paths(g, 1, 3)}
    rev = {tuple((s.edge_id, s.flip) for s in p.reversed().steps)
           for p in all_simple_paths(g, 3, 1)}
    assert fwd == rev


def test_cycles_through_triangle_edge():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
    assert len(cycles_through_edge(g, 3)) == 1


def test_tree_edge_has_no_cycle():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    assert cycles_through_edge(g, 1) == []


def test_eleven_node_negative_edge_single_cycle():
    from conftest import ELEVEN_EDGES

    g = Graph(11, tuple(Edge(*e) for e in ELEVEN_EDGES) + (Edge(14, 1, 4),))
    cycles = cycles_through_edge(g, 14)
    assert len(cycles) == 1
    nodes = {cycles[0].start, cycles[0].end}
    for s in cycles[0].steps:
        e = g.edge(s.edge_id)
        nodes |= {e.tail, e.head}
    assert nodes == {1, 2, 3, 4}
    assert cycles[0].node_count() == 4


def test_enumeration_cap():
    edges = tuple(Edge(i, i, i + 1) for i in range(1, 21))
    g = Graph(21, edges)
    with pytest.raises(CapExceeded):
        all_simple_paths(g, 1, 21)
    with pytest.raises(CapExceeded):
        cycles_through_edge(g, 1)
    assert len(all_simple_paths(g, 1, 21, cap=21)) == 1


def random_connected_graph(rng, n):
    edges = []
    for v in range(2, n + 1):
        edges.append((int(rng.integers(1, v)), v))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
             if (a, b) not in edges]
    rng.shuffle(pairs)
    edges += pairs[: int(rng.integers(0, 4))]
    return Graph(n, tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(edges)))


def test_incidence_invariants_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        E = incidence(g)
        assert np.all(E.sum(axis=0) == 0.0)
        assert is_connected(g)
        assert np.linalg.matrix_rank(E, tol=1e-9) == g.node_count - 1


def test_cycle_indicators_lie_in_incidence_null_space():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        E = incidence(g)
        for e in g.edges:
            for cyc in cycles_through_edge(g, e.id):
                vec = cycle_indicator(g, e.id, cyc)
                assert np.max(np.abs(E @ vec)) == 0.0


def test_edge_subgraph_remaps_ids_densely():
    g = Graph(4, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 4), Edge(4, 4, 1)))
    sub, id_map = edge_subgraph(g, [2, 4])
    assert id_map == {2: 1, 4: 2}
    assert [(e.id, e.tail, e.head) for e in sub.edges] == [(1, 2, 3), (2, 4, 1)]
    assert not is_connected(sub)


def zero_band(lower, upper):
    """Edge function vanishing exactly on [lower, upper] (or everywhere)."""
    if lower == -math.inf:
        return SampledTable((-1.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    if lower == upper == 0.0:
        return Linear(1.0)
    knots = sorted({lower - 1.0, lower, 0.0, upper, upper + 1.0})
    return SampledTable(
        tuple(knots), tuple(-1.0 if z < lower else 1.0 if z > upper else 0.0
                            for z in knots)
    )


def enumerated_bracket(g, intervals, i, j):
    """Tightest bracket over all simple paths, summed step by step."""
    paths = all_simple_paths(g, i, j)
    if not paths:
        raise ValidationError(f"no path between nodes {i} and {j}")
    z_min, z_max = -math.inf, math.inf
    for path in paths:
        lo = hi = 0.0
        for step in path.steps:
            iv = intervals[step.edge_id - 1]
            if step.flip == 0:
                lo += iv.lower
                hi += iv.upper
            else:
                lo -= iv.upper
                hi -= iv.lower
        z_min, z_max = max(z_min, lo), min(z_max, hi)
    return z_min, z_max


@st.composite
def multigraphs(draw):
    """Up to 8 nodes, possibly disconnected, with parallel edges and random
    orientations, each edge carrying a zero band that is a point, an
    asymmetric or symmetric finite interval, or the whole line."""
    n = draw(st.integers(1, 8))
    ends = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    pairs = draw(st.lists(ends, max_size=12)) if n > 1 else []
    g = Graph(n, tuple(Edge(k + 1, a, b) for k, (a, b) in enumerate(pairs)))
    width = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5]) | st.floats(0.0, 10.0)
    band = st.just((-math.inf, math.inf)) | st.tuples(width.map(lambda w: -w), width)
    fns = [zero_band(*draw(band)) for _ in pairs]
    return g, fns


@given(case=multigraphs())
@settings(max_examples=300, deadline=None)
def test_polynomial_queries_match_enumeration(case):
    g, fns = case
    # Built in Graph's edge id order, the adjacency lists need no sort.
    for items in _adjacency(g).values():
        assert items == sorted(items, key=lambda item: (item[1].id, item[0]))
    labels = edge_blocks(g)
    cycles = {e.id: cycles_through_edge(g, e.id) for e in g.edges}
    for a, b in itertools.combinations(range(1, g.edge_count + 1), 2):
        share = any(s.edge_id == b for c in cycles[a] for s in c.steps)
        assert (labels[a - 1] == labels[b - 1]) == share
    for k, found in cycles.items():
        assert unique_cycle_through_edge(g, k) == (found[0] if len(found) == 1 else None)
    # distance_bounds reads only the graph and the edge functions; a namespace
    # lets disconnected graphs in.
    system = SimpleNamespace(graph=g, edge_functions=fns)
    intervals = [f.equilibria() for f in fns]
    for i, j in itertools.product(range(1, g.node_count + 1), repeat=2):
        try:
            want = enumerated_bracket(g, intervals, i, j)
        except ValidationError:
            with pytest.raises(ValidationError):
                distance_bounds(system, i, j)
            continue
        assert distance_bounds(system, i, j) == want


def test_edge_blocks_on_long_ring_without_recursion():
    n = 5000
    g = Graph(n, tuple(Edge(k, k, k % n + 1) for k in range(1, n + 1)))
    assert set(edge_blocks(g)) == {0}
    cycle = unique_cycle_through_edge(g, 1)
    assert cycle.node_count() == n
    assert [s.edge_id for s in cycle.steps] == list(range(2, n + 1))


def test_edge_blocks_separate_bridges_and_parallel_pairs():
    # triangle 1-2-3, bridge 3-4, parallel pair 4-5
    g = Graph(5, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 1), Edge(4, 3, 4),
                  Edge(5, 4, 5), Edge(6, 5, 4)))
    labels = edge_blocks(g)
    assert labels[0] == labels[1] == labels[2]
    assert labels[4] == labels[5]
    assert len({labels[0], labels[3], labels[4]}) == 3
    assert unique_cycle_through_edge(g, 4) is None
    assert unique_cycle_through_edge(g, 5).steps == ((6, 0),)


def bfs_components(n, pairs):
    """Oracle: blocks of nodes 1..n under the undirected edges ``pairs``,
    found by breadth-first search, each sorted, listed by smallest node."""
    near = {v: set() for v in range(1, n + 1)}
    for a, b in pairs:
        near[a].add(b)
        near[b].add(a)
    seen, blocks = set(), []
    for root in range(1, n + 1):
        if root in seen:
            continue
        block, frontier = {root}, [root]
        while frontier:
            frontier = [w for v in frontier for w in near[v] if w not in block]
            block.update(frontier)
        seen |= block
        blocks.append(sorted(block))
    return blocks


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_union_find_components_match_bfs(data):
    # Up to 30 nodes, many of them isolated when the edges are few, with
    # parallel edges, either orientation and a random subset of edges kept.
    n = data.draw(st.integers(1, 30))
    ends = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    pairs = data.draw(st.lists(ends, max_size=40)) if n > 1 else []
    g = Graph(n, tuple(Edge(k + 1, a, b) for k, (a, b) in enumerate(pairs)))
    kept = data.draw(st.sets(st.integers(1, max(1, len(pairs)))))
    every = bfs_components(n, pairs)
    assert connected_components(g) == every
    assert is_connected(g) == (len(every) == 1)
    want = bfs_components(n, [p for k, p in enumerate(pairs, 1) if k in kept])
    assert connected_components(g, lambda e: e.id in kept) == want


def test_graph_keeps_an_edge_tuple_in_id_order_and_sorts_others():
    edges = (Edge(1, 1, 2), Edge(2, 2, 3))
    assert Graph(3, edges).edges is edges
    for listed in ([(2, 2, 3), (1, 1, 2)], ((2, 2, 3), Edge(1, 1, 2))):
        g = Graph(3, listed)
        assert g.edges == edges and all(type(e) is Edge for e in g.edges)
    with pytest.raises(ValidationError, match="unique and dense"):
        Graph(3, (Edge(1, 1, 2), Edge(1, 2, 3)))
    # The first bad edge by id, and its first failed check, is reported.
    with pytest.raises(ValidationError, match="^edge 2 endpoint 9 out of range"):
        Graph(3, (Edge(3, 3, 3), Edge(2, 9, 1), Edge(1, 1, 2)))

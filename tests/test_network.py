"""Closed-loop assembly: tension / flow / input composition and invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.edgefn import (
    DeadZone,
    GridSpec,
    Linear,
    Negated,
    PowerSign,
    SampledTable,
    Sinusoid,
    Sum,
    classify_sign,
    flip_conjugate,
    is_monotone_increasing,
)
from signet.analysis import classify_edges
from signet.circuit import edge_monotonicity
from signet.config import parse_config
from signet.errors import DimensionMismatch, ValidationError
from signet.graph import Edge, Graph, incidence
from signet.network import NetworkSystem
from signet.nodes import Identity, Saturating, SignPower

from conftest import SIX_EDGES
from oracles import NonLinearEdges, network_linear_weights


def triangle_net(fn3=Linear(1 / 3)):
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
    return NetworkSystem(g, [Identity()] * 3, [Linear(0.5), Linear(1.0), fn3])


def test_tension_includes_every_edge():
    net = triangle_net()
    np.testing.assert_allclose(net.tension([3.0, 1.0, 0.0]), [2.0, 1.0, 3.0])
    np.testing.assert_allclose(net.tension(np.ones(3)), np.zeros(3))
    zeta = net.tension([0.0, 1.0, 0.0])
    assert set(np.abs(zeta)) <= {0.0, 1.0} and np.any(zeta != 0)


def test_flow_examples(series_network):
    np.testing.assert_allclose(series_network.flow([2.0, 1.0]), [1.0, 1.0])
    np.testing.assert_allclose(series_network.flow([0.0, 0.0]), [0.0, 0.0])
    g = Graph(2, (Edge(1, 1, 2),))
    dz = NetworkSystem(g, [Identity()] * 2, [DeadZone(1.0, 1.0)])
    assert dz.flow([0.7])[0] == 0.0


def test_input_balances_circulating_flow():
    # At this state the flows 1, 1, -1 circulate around the triangle.
    net = triangle_net(Linear(-1 / 3))
    x = np.array([3.0, 1.0, 0.0])
    np.testing.assert_array_equal(net.flow(net.tension(x)), [1.0, 1.0, -1.0])
    np.testing.assert_allclose(net.node_input(x), np.zeros(3))
    np.testing.assert_allclose(net.node_input(np.zeros(3)), np.zeros(3))
    g = Graph(2, (Edge(1, 1, 2),))
    single = NetworkSystem(g, [Identity()] * 2, [Linear(1.0)])
    np.testing.assert_allclose(single.node_input([1.0, 0.0]), [-1.0, 1.0])


def test_vector_field_two_node_pair():
    g = Graph(2, (Edge(1, 1, 2),))
    net = NetworkSystem(g, [Identity()] * 2, [Linear(1.0)])
    np.testing.assert_allclose(net.vector_field(np.array([1.0, -1.0])), [-2.0, 2.0])
    np.testing.assert_allclose(net.vector_field(np.array([2.0, 2.0])), [0.0, 0.0])


def brute_force_field(system, x):
    """Independent re-composition of the closed loop, edge by edge."""
    u = [0.0] * system.node_count
    for e, f in zip(system.graph.edges, system.edge_functions):
        mu = f(x[e.tail - 1] - x[e.head - 1])
        u[e.tail - 1] -= mu
        u[e.head - 1] += mu
    return np.array([d.gamma(v) for d, v in zip(system.node_dynamics, u)])


def test_six_node_vector_field_matches_brute_force(six_agreement_network):
    x = np.array([3.0, 1.0, -3.0, -1.0, 0.0, -2.0])
    np.testing.assert_allclose(
        six_agreement_network.vector_field(x),
        brute_force_field(six_agreement_network, x),
        atol=1e-12,
    )


def test_vector_field_with_nonlinear_dynamics():
    g = Graph(2, (Edge(1, 1, 2),))
    net = NetworkSystem(g, [SignPower(1.0, 0.5), Identity()], [Linear(2.0)])
    x = np.array([2.0, 0.0])
    np.testing.assert_allclose(net.vector_field(x), [-2.0, 4.0])


def test_power_identity(six_clustering_network):
    rng = np.random.default_rng(17)
    net = six_clustering_network
    for _ in range(50):
        y = rng.uniform(-10, 10, size=net.node_count)
        zeta = net.tension(y)
        mu = net.flow(zeta)
        u = net.node_input(y)
        scale = 1.0 + abs(float(u @ y))
        assert abs(float(u @ y) + float(mu @ zeta)) <= 1e-12 * scale


def test_orientation_covariance():
    # Reversing any edge while conjugating its function (-psi(-z)) must leave
    # the closed loop untouched, including for a lopsided sampled table.
    table = SampledTable((-2.0, 0.0, 1.0, 4.0), (-1.0, 0.0, 2.0, 2.5))
    fns = [Linear(1.0), DeadZone(1.0, 1.0), PowerSign(2.0, 0.5), table,
           Linear(0.3), DeadZone(0.5, 2.0), table, Linear(2.0), PowerSign(1.0, 0.3)]
    g = Graph(6, tuple(Edge(*e) for e in SIX_EDGES))
    base = NetworkSystem(g, [Identity()] * 6, fns)
    rng = np.random.default_rng(23)
    states = rng.uniform(-5, 5, size=(10, 6))
    for k in range(len(SIX_EDGES)):
        flipped_edges = [
            Edge(i, h, t) if i == k + 1 else Edge(i, t, h)
            for (i, t, h) in SIX_EDGES
        ]
        flipped_fns = [
            flip_conjugate(f) if i == k else f for i, f in enumerate(fns)
        ]
        other = NetworkSystem(
            Graph(6, tuple(flipped_edges)), [Identity()] * 6, flipped_fns
        )
        for x in states:
            np.testing.assert_allclose(
                base.vector_field(x), other.vector_field(x), atol=1e-12
            )


def test_state_sum_conserved_for_integrators(six_agreement_network):
    # Integer-valued flows cancel exactly in the column sums.
    x = np.array([3.0, 1.0, -3.0, -1.0, 0.0, -2.0])
    u = six_agreement_network.node_input(x)
    assert float(np.sum(u)) == 0.0
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = six_agreement_network.node_input(rng.uniform(-10, 10, size=6))
        assert abs(float(np.sum(u))) <= 1e-12 * (1 + np.max(np.abs(u)))


def test_dimension_mismatches():
    net = triangle_net()
    with pytest.raises(DimensionMismatch):
        net.tension([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        net.flow([1.0])
    with pytest.raises(DimensionMismatch):
        net.vector_field(np.zeros(5))
    # Each function of the state checks it once, with the same message.
    for x in (np.zeros(5), np.zeros((1, 3)), 1.0):
        for call in (net.tension, net.node_input, net.vector_field):
            with pytest.raises(DimensionMismatch) as raised:
                call(x)
            assert str(raised.value) == (
                f"potential vector has shape {np.shape(x)}, expected (3,)")


def test_construction_validation():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    with pytest.raises(DimensionMismatch):
        NetworkSystem(g, [Identity()] * 2, [Linear(1.0)] * 2)
    with pytest.raises(DimensionMismatch):
        NetworkSystem(g, [Identity()] * 3, [Linear(1.0)])
    disconnected = Graph(4, (Edge(1, 1, 2), Edge(2, 3, 4)))
    with pytest.raises(ValidationError):
        NetworkSystem(disconnected, [Identity()] * 4, [Linear(1.0)] * 2)


def test_linear_weights_detection(series_network, six_agreement_network):
    np.testing.assert_allclose(network_linear_weights(series_network), [0.5, 1.0])
    with pytest.raises(NonLinearEdges):
        network_linear_weights(six_agreement_network)


@st.composite
def graphs_with_parallel_edges(draw):
    """Connected graphs: a random spanning tree, some of its edges doubled,
    extra chords (which may repeat), every edge randomly oriented."""
    n = draw(st.integers(2, 9))
    tree = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    doubled = draw(st.lists(st.sampled_from(tree), max_size=3))
    chords = draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda t: t[0] != t[1]),
        max_size=2 * n,
    ))
    pairs = tree + doubled + chords
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(
        Edge(k + 1, b, a) if flip else Edge(k + 1, a, b)
        for k, ((a, b), flip) in enumerate(zip(pairs, flips))
    )
    return Graph(n, edges)


# Two distinct increasing tables; drawn tensions reach well past their knots.
TABLE_KNOTS = (
    ((-2.0, 0.0, 1.0, 4.0), (-1.0, 0.0, 2.0, 2.5)),
    ((-1.0, -0.5, 0.0, 3.0), (-3.0, -0.5, 0.0, 1.0)),
)
TABLES = tuple(SampledTable(*knots) for knots in TABLE_KNOTS)
_weights = st.floats(0.1, 5.0)
# Sign-preserving kinds only inside sums: a sum of terms with one sign has
# no cancellation, so a one-ulp difference in a term stays one ulp.
_increasing = st.one_of(
    st.builds(Linear, _weights),
    st.builds(DeadZone, _weights, st.floats(0.1, 3.0)),
    st.builds(PowerSign, _weights, st.floats(0.1, 0.9)),
    st.sampled_from(TABLES),
)
_sums = st.lists(_increasing, min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts)))
_nested_sums = st.tuples(_increasing, _sums).map(Sum)
_sinusoids = st.builds(Sinusoid, st.floats(-3.0, 3.0))
_negated = st.builds(
    Negated, st.one_of(_increasing, _sums, _sinusoids, _increasing.map(Negated))
)
EDGE_KINDS = (
    st.builds(Linear, st.floats(-5.0, 5.0)),
    st.builds(DeadZone, _weights, st.floats(0.1, 3.0)),
    st.builds(PowerSign, _weights, st.floats(0.1, 0.9)),
    _sinusoids,
    # Fresh copies: equal tables built apart must still group together.
    *(st.builds(SampledTable, st.just(z), st.just(m)) for z, m in TABLE_KNOTS),
    _negated,
    _sums,
    _nested_sums,
)
NODE_KINDS = st.one_of(
    st.just(Identity()),
    st.builds(SignPower, st.floats(0.1, 5.0), st.floats(0.1, 1.0)),
    st.builds(Saturating, st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
)


@st.composite
def mixed_networks(draw):
    """Connected networks carrying every edge kind (nested negations and
    sums, two tables) and at least two node kinds, in random positions."""
    n = draw(st.integers(2, 8))
    tree = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    extra = len(EDGE_KINDS) + draw(st.integers(0, 6)) - len(tree)
    chords = [
        (a, b if b < a else b + 1)
        for a, b in draw(st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n - 1)),
            min_size=max(extra, 0), max_size=max(extra, 0),
        ))
    ]
    pairs = tree + chords
    fns = [draw(kind) for kind in EDGE_KINDS]
    fns += [draw(st.one_of(*EDGE_KINDS)) for _ in range(len(pairs) - len(fns))]
    fns = draw(st.permutations(fns))
    dynamics = [draw(NODE_KINDS) for _ in range(n - 2)]
    dynamics = draw(st.permutations(
        dynamics + [SignPower(1.5, 0.5), Saturating(2.0, 0.5)]
    ))
    edges = tuple(Edge(k + 1, a, b) for k, (a, b) in enumerate(pairs))
    return NetworkSystem(Graph(n, edges), dynamics, fns)


@st.composite
def block_networks(draw):
    """A network carrying every edge kind, in random positions or dealt
    round-robin by edge id, on nodes of one kind or of mixed kinds, whose
    last two nodes grow apart from a start of (a, -a)."""
    n = draw(st.integers(2, 8))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if draw(st.booleans()):
        fns = draw(st.permutations([draw(kind) for kind in EDGE_KINDS]))
    else:
        # Kinds dealt round-robin by edge id, so that a group's positions
        # are evenly spaced: three or four members at a step of one round.
        kinds = draw(st.permutations(EDGE_KINDS))
        fns = [draw(kind) for _ in range(draw(st.integers(3, 4))) for kind in kinds]
    while len(pairs) < len(fns):
        a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        pairs.append((a, b))
    # Nodes n + 1 and n + 2, joined by a negated linear edge, grow apart
    # from a start of (a, -a); a zero-weight edge ties them to the rest.
    w = draw(st.floats(0.5, 5.0))
    fns += [Negated(Linear(w)), Linear(0.0)]
    pairs += [(n + 1, n + 2), (1, n + 1)]
    dynamics = draw(st.sampled_from(["identity", "one", "mixed"]))
    if dynamics == "identity":
        nodes = [Identity()] * (n + 2)
    elif dynamics == "one":
        nodes = [draw(NODE_KINDS)] * (n + 2)
    else:
        nodes = draw(st.lists(NODE_KINDS, min_size=n + 2, max_size=n + 2))
    edges = tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(pairs))
    return NetworkSystem(Graph(n + 2, edges), nodes, fns)


@given(net=block_networks(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_coupling_of_a_block_matches_each_state(net, data):
    # Each row of a (B, n) call is the one-state call bit for bit: tension,
    # flow, the flows sent and received, u, and the row's cocontent sum and
    # flow . tension as the sweep's block rows reduce them, at signed zeros
    # and overflowing states too.
    B = data.draw(st.sampled_from([1, 2, 7, 64]))
    pool = data.draw(st.lists(st.floats(-1e3, 1e3), max_size=8))
    pool += [0.0, -0.0, 1.0, -1.0, 1e300, -1e300]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    Y = rng.choice(pool, size=(B, net.node_count))
    with np.errstate(over="ignore", invalid="ignore"):
        block = net._coupling(Y, True)
        zeta, mu, sent, received = block
        m = net.edge_count
        assert [part.shape for part in block] == [(B, m), (B, m), Y.shape, Y.shape]
        sums = np.add.reduce(net._cocontent(zeta), axis=1)
        u = net._coupling(Y)
        for r, y in enumerate(Y):
            one = net._coupling(y, True)
            for got, want in zip(block, one):
                assert got[r].tobytes() == want.tobytes()
            assert u[r].tobytes() == net._coupling(y).tobytes()
            assert u[r].tobytes() == (received[r] - sent[r]).tobytes()
            assert sums[r].tobytes() == np.add.reduce(net._cocontent(one[0])).tobytes()
            assert mu[r].dot(zeta[r]).tobytes() == one[1].dot(one[0]).tobytes()


def _loop(objs, method, values):
    """Reference: one scalar call per edge or node."""
    return np.array([getattr(o, method)(float(v)) for o, v in zip(objs, values)])


@given(net=mixed_networks(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_grouped_evaluation_matches_scalar_loop(net, data):
    # numpy's vectorized power, sin and tanh may differ from its scalar
    # path by up to two ulps.
    values = st.floats(-10.0, 10.0, allow_nan=False)
    ys = np.array(data.draw(st.lists(
        st.lists(values, min_size=net.node_count, max_size=net.node_count),
        min_size=1, max_size=3,
    )))
    zetas = np.array([net.tension(y) for y in ys])
    fns = net.edge_functions
    with np.errstate(divide="ignore"):  # power-law slopes at zero tension
        for name, method in (("flow", "__call__"), ("cocontent", "cocontent"),
                             ("slope", "derivative")):
            batched = getattr(net, name)(zetas)
            assert batched.shape == zetas.shape
            for row, zeta in zip(batched, zetas):
                ref = _loop(fns, method, zeta)
                np.testing.assert_array_max_ulp(row, ref, maxulp=2)
                np.testing.assert_array_max_ulp(getattr(net, name)(zeta), ref, maxulp=2)
    for y in ys:
        u = net.node_input(y)
        np.testing.assert_array_max_ulp(
            net.vector_field(y), _loop(net.node_dynamics, "gamma", u), maxulp=2
        )


@given(g=graphs_with_parallel_edges(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_edge_index_arithmetic_matches_dense_incidence(g, data):
    n, m = g.node_count, g.edge_count
    E = incidence(g)
    net = NetworkSystem(g, [Identity()] * n, [Linear(1.0)] * m)
    values = st.floats(-1e3, 1e3, allow_nan=False)
    y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    mu = np.array(data.draw(st.lists(values, min_size=m, max_size=m)))
    d = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=m, max_size=m)))
    p, q = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))

    assert np.array_equal(net.tension(y), E.T @ y)
    # The drawn flows as linear weights: u = -E diag(mu) E^T y.  Relative to
    # the magnitude of what is summed: summation order differs.
    weighted = NetworkSystem(g, [Identity()] * n, [Linear(float(w)) for w in mu])
    flows = mu * (E.T @ y)
    np.testing.assert_allclose(
        weighted.node_input(y), -(E @ flows), rtol=1e-12,
        atol=1e-12 * np.abs(flows).sum(),
    )
    block = net.reduced_laplacian(p, q)
    E_free = E[block.free]
    np.testing.assert_allclose(
        block.matrix(d), (E_free * d) @ E_free.T, rtol=1e-12, atol=1e-12 * d.sum()
    )


_signed_weights = st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0])
_linear_or_dead_zone = st.one_of(
    st.builds(Linear, _signed_weights),
    st.builds(DeadZone, _signed_weights, st.floats(0.1, 3.0)),
)
# Tensions where a linear edge in a dead-zone group could part from its own
# formula: signed zeros, infinities, NaNs of both signs, a dead zone's band
# edges and one ulp either side of them.
_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan)


@st.composite
def linear_dead_zone_networks(draw):
    """Networks mixing linear and dead-zone edges, bare and negated (both
    kinds of each, so both pairs of groups join), with a power-law edge
    as another group."""
    fns = [Linear(draw(_signed_weights)), DeadZone(draw(_signed_weights), draw(st.floats(0.1, 3.0))),
           Negated(Linear(draw(_signed_weights))), Negated(DeadZone(1.0, draw(st.floats(0.1, 3.0))))]
    fns += draw(st.lists(_linear_or_dead_zone | _linear_or_dead_zone.map(Negated), max_size=10))
    fns += draw(st.lists(st.just(PowerSign(1.0, 0.5)), max_size=1))
    fns = draw(st.permutations(fns))
    n = draw(st.integers(2, min(6, len(fns) + 1)))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    while len(pairs) < len(fns):
        pairs.append(tuple(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))))
    edges = tuple(Edge(k + 1, a, b) for k, (a, b) in enumerate(pairs))
    return NetworkSystem(Graph(n, edges), [Identity()] * n, fns)


def _tension_for(fn, draw):
    inner = fn.inner if isinstance(fn, Negated) else fn
    band = getattr(inner, "band", draw(st.floats(0.1, 3.0)))
    edges = [band, math.nextafter(band, 0.0), math.nextafter(band, math.inf)]
    return draw(st.sampled_from(_SPECIAL + tuple(edges) + tuple(-e for e in edges))
                | st.floats(-10.0, 10.0))


@given(net=linear_dead_zone_networks(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_joined_linear_dead_zone_group_evaluates_exactly(net, data):
    fns = net.edge_functions
    # Every linear edge sits in a dead-zone group, bare or negated alike.
    kinds = {type(f.inner) if isinstance(f, Negated) else type(f) for f in fns}
    assert len(net._edge_groups) == 2 + (PowerSign in kinds)
    zeta = np.array([[_tension_for(f, data.draw) for f in fns] for _ in range(3)])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for name, method in (("flow", "__call__"), ("cocontent", "cocontent"),
                             ("slope", "derivative")):
            grouped = getattr(net, name)(zeta)
            alone = np.column_stack(
                [getattr(f, method)(zeta[:, k]) for k, f in enumerate(fns)])
            if name == "cocontent":
                # The dead-zone formula squares |zeta|, so in the group a
                # linear edge's cocontent at -NaN is +NaN (alone, -NaN).
                nan = np.isnan(alone)
                assert np.array_equal(np.isnan(grouped), nan)
                grouped, alone = grouped[~nan], alone[~nan]
            assert grouped.view(np.uint64).tolist() == alone.view(np.uint64).tolist()
    # The grid certificates are those of each edge alone.
    grid = GridSpec(5.0, 101)
    assert classify_edges(net, grid) == tuple(classify_sign(f, grid) for f in fns)
    assert edge_monotonicity(net, grid) == tuple(is_monotone_increasing(f, grid) for f in fns)


# The benchmark's micro-network table: one inline spec repeated on every edge.
_INLINE_TABLE = {"kind": "sampled_table", "zeta": [-10.0, -1.0, 0.0, 1.0, 10.0],
                 "mu": [-4.0, -1.0, 0.0, 2.0, 9.0]}


@pytest.mark.parametrize("negate", [False, True])
def test_equal_tables_from_separate_specs_form_one_group(negate):
    spec = {"kind": "negated", "fn": _INLINE_TABLE} if negate else _INLINE_TABLE
    pairs = [(v, v % 20 + 1) for v in range(1, 21)] + [(v, (v + 6) % 20 + 1) for v in range(1, 21)]
    doc = {"nodes": {"count": 20},
           "edges": [{"id": k + 1, "tail": a, "head": b, "fn": spec}
                     for k, (a, b) in enumerate(pairs)]}
    net = parse_config(json.dumps(doc)).build_system()
    fns = net.edge_functions
    # The reader builds a table per spec; the 40 equal tables make one group.
    assert len({id(f) for f in fns}) == 40
    assert len(net._edge_groups) == 1
    rng = np.random.default_rng(5)
    knots = _INLINE_TABLE["zeta"]
    zeta = np.concatenate([rng.uniform(-15.0, 15.0, (3, 40)),
                           rng.choice(knots + [-0.0, 11.0, -11.0], (2, 40))])
    # An edge alone evaluates a negated table as the table of negated knots,
    # which equals Negated(table) up to the sign of a zero.
    alone_fns = [f.inner.negated() for f in fns] if negate else fns
    for name, method in (("flow", "__call__"), ("cocontent", "cocontent"),
                         ("slope", "derivative")):
        grouped = getattr(net, name)(zeta)
        alone = np.column_stack(
            [getattr(f, method)(zeta[:, k]) for k, f in enumerate(alone_fns)])
        assert grouped.view(np.uint64).tolist() == alone.view(np.uint64).tolist()
        ref = np.column_stack([getattr(f, method)(zeta[:, k]) for k, f in enumerate(fns)])
        assert np.array_equal(grouped, ref)


_LAYOUT_KINDS = {
    "L": lambda k: Linear(0.5 + k),
    "P": lambda k: PowerSign(0.5 + k, 0.05 + 0.1 * k),
    "S": lambda k: Sinusoid(0.5 + k),
}


# Edge kinds by id (linear, power law, sinusoid) and the positions of each
# group in order of first member: a slice where they are evenly spaced.
@pytest.mark.parametrize("layout, groups", [
    ("LPLPLPLP", [slice(0, 8, 2), slice(1, 8, 2)]),  # the benchmark's large networks
    ("LPSLPSLPS", [slice(0, 9, 3), slice(1, 9, 3), slice(2, 9, 3)]),
    ("LLLPPPP", [slice(0, 3, 1), slice(3, 7, 1)]),
    ("LLLLP", [slice(0, 4, 1), slice(4, 5, 1)]),
    ("LLPL", [[0, 1, 3], slice(2, 3, 1)]),
], ids=["alternating", "stride-3", "contiguous", "single", "irregular"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_evenly_spaced_groups_are_strided_views(layout, groups, data):
    m = len(layout)
    fns = [_LAYOUT_KINDS[c](k) for k, c in enumerate(layout)]
    g = Graph(m + 1, tuple(Edge(k + 1, k + 1, k + 2) for k in range(m)))
    net = NetworkSystem(g, [Identity()] * (m + 1), fns)
    ats = [at for at, _ in net._edge_groups]
    assert len(ats) == len(groups)
    for at, want in zip(ats, groups):
        if isinstance(want, slice):
            assert type(at) is slice and at.step == want.step
            assert range(m)[at] == range(m)[want]
        else:
            assert at.dtype == np.intp and at.tolist() == want
    covered = np.concatenate([np.arange(m)[at] for at in ats])
    assert sorted(covered.tolist()) == list(range(m))
    # Grouped evaluation on a row and on a (3, m) block is each edge's alone.
    values = st.sampled_from(_SPECIAL) | st.floats(-10.0, 10.0)
    zeta = np.array(data.draw(st.lists(
        st.lists(values, min_size=m, max_size=m), min_size=3, max_size=3)))
    with np.errstate(invalid="ignore", divide="ignore"):
        for name, method in (("flow", "__call__"), ("cocontent", "cocontent"),
                             ("slope", "derivative")):
            alone = np.column_stack(
                [getattr(f, method)(zeta[:, k]) for k, f in enumerate(fns)])
            for z, want in ((zeta[0], alone[0]), (zeta, alone)):
                got = getattr(net, name)(z)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_tables_differing_in_a_signed_zero_stay_apart():
    tables = [SampledTable((-1.0, 0.0, 1.0), (-1.0, mu0, 1.0)) for mu0 in (0.0, -0.0)]
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
    net = NetworkSystem(g, [Identity()] * 3, [tables[0], tables[1], tables[0]])
    assert len(net._edge_groups) == 2
    flow = net.flow(np.full(3, -0.0))
    assert np.signbit(flow).tolist() == [False, True, False]

"""Convergence predictors, distance bounds, and the linear eigen oracle."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.analysis import (
    Verdict,
    classify_edges,
    cluster_count_prediction,
    distance_bounds,
    equilibria_membership,
    equivalent_passivity_condition,
    predict,
    signed_laplacian_min_eigenvalue,
)
from signet.circuit import edge_monotonicity, effective_resistance
from signet.config import load_config
from signet.edgefn import (
    DeadZone,
    GridSpec,
    Linear,
    Negated,
    PowerSign,
    SampledTable,
    SignLabel,
    Sinusoid,
    Sum,
    classify_sign,
    is_monotone_increasing,
)
from signet.errors import Inapplicable, NotAnInterval
from signet.graph import Edge, Graph
from signet.network import NetworkSystem
from signet.nodes import Identity
from signet.sim import OutcomeKind, SimConfig, classify_outcome, simulate

from conftest import reference_edge_monotonicity, reference_classify_edges
from oracles import NonLinearEdges, network_linear_weights, strict_extremum_violations

GRID = GridSpec(100.0, 2001)
COARSE = GridSpec(100.0, 401)


def series_plus_closing(w_neg):
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
    return NetworkSystem(
        g, [Identity()] * 3, [Linear(0.5), Linear(1.0), Linear(w_neg)]
    )


def test_predict_spanning_strictly_positive(six_agreement_network):
    pred = predict(six_agreement_network, GRID)
    assert pred.verdict is Verdict.AGREEMENT_GUARANTEED
    assert pred.applied_result == "spanning-strictly-positive-subnetwork"


def test_predict_all_strictly_positive(eleven_positive_network):
    pred = predict(eleven_positive_network, GRID)
    assert pred.verdict is Verdict.AGREEMENT_GUARANTEED
    assert pred.applied_result == "strictly-positive-network"


def test_predict_positive_network_without_spanning_core(six_clustering_network):
    pred = predict(six_clustering_network, GRID)
    assert pred.verdict is Verdict.CONVERGENCE_GUARANTEED
    assert pred.applied_result == "positive-network"


def test_predict_weak_negative_edge_agreement():
    pred = predict(series_plus_closing(-0.25), COARSE)
    assert pred.verdict is Verdict.AGREEMENT_GUARANTEED
    assert pred.applied_result == "strict-equivalent-passivity"


def test_predict_boundary_weight_gives_cluster_counts():
    pred = predict(series_plus_closing(-1 / 3), COARSE)
    assert pred.verdict is Verdict.CLUSTER_COUNT_PREDICTION
    assert pred.applied_result == "single-cycle-cluster-count"
    assert pred.cluster_counts == frozenset({1, 3})


def test_predict_strong_negative_edge_no_guarantee():
    pred = predict(series_plus_closing(-0.5), COARSE)
    assert pred.verdict is Verdict.NO_GUARANTEE


def test_strong_negative_edge_diverges_in_simulation():
    # past the threshold the linear eigen oracle goes negative and the
    # simulated outputs blow up
    net = series_plus_closing(-0.5)
    cfg = SimConfig(t_end=120.0, dt=1e-2, record_every=100, u_tol=1e-9,
                    window=1.0, cluster_tol=1e-3, blowup_threshold=1e6)
    tr = simulate(net, np.array([3.0, 1.0, 0.0]), cfg)
    assert classify_outcome(net, tr, cfg).kind is OutcomeKind.DIVERGENCE


def test_predict_eleven_node_variants(
    eleven_f1_network, eleven_f3_network, eleven_positive_network
):
    pred1 = predict(eleven_f1_network, COARSE)
    assert pred1.verdict is Verdict.AGREEMENT_GUARANTEED
    assert pred1.applied_result == "strict-equivalent-passivity"

    from conftest import make_eleven_negative

    pred2 = predict(make_eleven_negative(Negated(Linear(1.0))), COARSE)
    assert pred2.verdict is Verdict.NO_GUARANTEE

    pred3 = predict(eleven_f3_network, COARSE)
    assert pred3.verdict is Verdict.CLUSTER_COUNT_PREDICTION
    assert pred3.cluster_counts == frozenset({1, 4})
    assert pred3.certificates["cycle_length"] == 4


def test_boundary_tree_beyond_enumeration_size_gives_cluster_counts():
    # a random positive linear tree on 30 nodes closed by an edge of weight
    # -1/R_eff: the closing edge lies on exactly one cycle, the tree path
    rng = np.random.default_rng(2030)
    n = 30
    parent = {v: int(rng.integers(1, v)) for v in range(2, n + 1)}
    tree = tuple(Edge(v - 1, parent[v], v) for v in range(2, n + 1))
    w = rng.uniform(0.5, 2.0, size=n - 1)
    p, q = 4, 29

    def ancestors(v):
        line = [v]
        while v != 1:
            v = parent[v]
            line.append(v)
        return line

    path_nodes = len(set(ancestors(p)) ^ set(ancestors(q))) + 1
    r = effective_resistance(Graph(n, tree), w, p, q)
    g = Graph(n, tree + (Edge(n, p, q),))
    fns = [Linear(float(v)) for v in w] + [Linear(-1.0 / r)]
    net = NetworkSystem(g, [Identity()] * n, fns)

    pred = predict(net, GridSpec(100.0, 101))
    assert pred.verdict is Verdict.CLUSTER_COUNT_PREDICTION
    assert pred.applied_result == "single-cycle-cluster-count"
    assert pred.cluster_counts == frozenset({1, path_nodes})
    assert cluster_count_prediction(net, n, COARSE).counts == frozenset({1, path_nodes})


def test_predict_cycle_separated_non_strict_edges():
    # two weak negative edges whose cycles share a node but no edge; the
    # per-edge equivalent condition applies to each separately
    edges = [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 3, 4), (5, 4, 5), (6, 5, 3)]
    g = Graph(5, tuple(Edge(*e) for e in edges))
    fns = [Linear(1.0), Linear(1.0), Negated(Linear(0.05)),
           Linear(1.0), Linear(1.0), Negated(Linear(0.05))]
    net = NetworkSystem(g, [Identity()] * 5, fns)
    pred = predict(net, GridSpec(100.0, 201))
    assert pred.verdict is Verdict.CONVERGENCE_GUARANTEED
    assert pred.applied_result == "cycle-separated-equivalent-passivity"
    assert len(pred.certificates["conditions"]) == 2


def _net(n, edges, fns):
    g = Graph(n, tuple(Edge(k, a, b) for k, (a, b) in enumerate(edges, start=1)))
    return NetworkSystem(g, [Identity()] * n, fns)


_TRIANGLE = [(1, 2), (2, 3), (1, 3)]
_K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
_BASE = {"sign_classes", "grid", "strictly_positive_edges"}
_ONE_CONDITION = _BASE | {"conditions", "condition", "terminal_edge"}


def _k4_at_the_passivity_boundary():
    # Edge 1 weighs -1/R, R the resistance of the other five edges between
    # its ends: the margin vanishes, and the edge lies on several cycles.
    rest = Graph(4, tuple(Edge(k, a, b) for k, (a, b) in enumerate(_K4[1:], start=1)))
    r = effective_resistance(rest, np.ones(5), 1, 2)
    return _net(4, _K4, [Linear(-1.0 / r)] + [Linear(1.0)] * 5)


# (network, verdict, applied_result, cluster_counts, certificate keys)
_LADDER = {
    "strictly-positive": (
        lambda: _net(3, _TRIANGLE, [Linear(1.0)] * 3),
        Verdict.AGREEMENT_GUARANTEED, "strictly-positive-network", None, _BASE),
    "spanning-core": (
        lambda: _net(3, _TRIANGLE, [Linear(1.0), Linear(1.0), DeadZone(1.0)]),
        Verdict.AGREEMENT_GUARANTEED, "spanning-strictly-positive-subnetwork",
        None, _BASE),
    "positive-without-core": (
        lambda: _net(3, _TRIANGLE[:2], [Linear(1.0), DeadZone(1.0)]),
        Verdict.CONVERGENCE_GUARANTEED, "positive-network", None, _BASE),
    "negative-without-core": (
        lambda: _net(3, _TRIANGLE[:2], [Linear(1.0), Linear(-1.0)]),
        Verdict.NO_GUARANTEE, "none", None, _BASE),
    "strict-passivity": (
        lambda: series_plus_closing(-0.25),
        Verdict.AGREEMENT_GUARANTEED, "strict-equivalent-passivity", None,
        _ONE_CONDITION),
    "single-cycle": (
        lambda: series_plus_closing(-1 / 3),
        Verdict.CLUSTER_COUNT_PREDICTION, "single-cycle-cluster-count",
        frozenset({1, 3}), _ONE_CONDITION | {"cycle", "cycle_length"}),
    "boundary-on-several-cycles": (
        _k4_at_the_passivity_boundary,
        Verdict.CONVERGENCE_GUARANTEED, "equivalent-passivity", None,
        _ONE_CONDITION),
    "cycle-separated": (
        lambda: _net(5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)],
                     [Linear(1.0), Linear(1.0), Negated(Linear(0.05))] * 2),
        Verdict.CONVERGENCE_GUARANTEED, "cycle-separated-equivalent-passivity",
        None, _BASE | {"conditions"}),
    "two-non-strict-edges-in-one-block": (
        lambda: _net(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)],
                     [Linear(1.0)] * 3 + [Linear(-0.1)] * 2),
        Verdict.NO_GUARANTEE, "none", None, _BASE),
    "rest-not-monotone": (
        lambda: _net(3, _TRIANGLE, [Sum((Linear(0.5), Sinusoid(2.0))),
                                    Linear(1.0), Linear(-0.1)]),
        Verdict.NO_GUARANTEE, "none", None, _BASE),
    "condition-fails": (
        lambda: _net(3, _TRIANGLE, [Linear(1.0), Linear(1.0),
                                    Negated(Linear(1.0))]),
        Verdict.NO_GUARANTEE, "none", None, _ONE_CONDITION),
}


@pytest.mark.parametrize("case", list(_LADDER))
def test_predict_ladder_pins_every_applied_result(case):
    make, verdict, tag, counts, keys = _LADDER[case]
    net = make()
    grid = GridSpec(10.0, 201)
    pred = predict(net, grid)
    assert (pred.verdict, pred.applied_result, pred.cluster_counts) == (
        verdict, tag, counts)
    assert set(pred.certificates) == keys
    classes = classify_edges(net, grid)
    assert pred.certificates["sign_classes"] == classes
    assert pred.certificates["grid"] == grid
    assert pred.certificates["strictly_positive_edges"] == tuple(
        e.id for e, c in zip(net.graph.edges, classes) if c.is_strictly_positive
    )
    if "terminal_edge" in keys:
        (hat,) = set(range(1, net.edge_count + 1)) - set(
            pred.certificates["strictly_positive_edges"])
        assert pred.certificates["terminal_edge"] == hat
        assert list(pred.certificates["conditions"]) == [hat]
        assert pred.certificates["condition"] is pred.certificates["conditions"][hat]
    if counts is not None:
        assert counts == {1, pred.certificates["cycle_length"]}
        assert pred.certificates["cycle"].node_count() == pred.certificates["cycle_length"]


def test_equivalent_passivity_condition_linear_margins(series_network):
    rep = equivalent_passivity_condition(series_network, Linear(-0.25), 1, 3,
                                         COARSE)
    assert rep.holds and rep.strict
    np.testing.assert_allclose(rep.margin, rep.zetas**2 / 12.0, atol=1e-8)
    off_origin = np.abs(rep.zetas) > 1e-9
    assert rep.margin_min == rep.margin[off_origin].min() > 0.0
    # no sample of so narrow a grid lies outside the origin's neighbourhood
    narrow = equivalent_passivity_condition(series_network, Linear(-0.25), 1, 3,
                                            GridSpec(1e-10, 101))
    assert narrow.margin_min == np.inf

    rep0 = equivalent_passivity_condition(series_network, Linear(-1 / 3), 1, 3,
                                          COARSE)
    assert rep0.holds and not rep0.strict
    assert np.max(np.abs(rep0.margin)) <= 1e-9 * (1 + rep0.zetas.max() ** 2)

    rep_bad = equivalent_passivity_condition(series_network, Linear(-0.5), 1, 3,
                                             COARSE)
    assert not rep_bad.holds


def test_zero_margin_min_is_positive_zero(config_dir):
    # At the passivity boundary the margin curve holds both signed zeros;
    # the least margin prints as 0, never as -0, whichever min meets first.
    net = load_config(config_dir / "linear_threshold_boundary.json").build_system()
    condition = predict(net, GridSpec()).certificates["condition"]
    assert condition.margin_min == 0.0
    assert math.copysign(1.0, condition.margin_min) == 1.0


def test_distance_bounds_single_dead_zone_edge():
    g = Graph(2, (Edge(1, 1, 2),))
    net = NetworkSystem(g, [Identity()] * 2, [DeadZone(1.0, 1.0)])
    assert distance_bounds(net, 1, 2) == (-1.0, 1.0)
    assert distance_bounds(net, 2, 1) == (-1.0, 1.0)


def test_distance_bounds_linear_path_forces_equality():
    # two parallel routes; the all-linear one pins the difference to zero
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
    net = NetworkSystem(
        g, [Identity()] * 3, [Linear(1.0), Linear(1.0), DeadZone(1.0, 1.0)]
    )
    assert distance_bounds(net, 1, 3) == (0.0, 0.0)


def test_distance_bounds_series_dead_zones_with_simulation():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    net = NetworkSystem(
        g, [Identity()] * 3, [DeadZone(1.0, 1.0), DeadZone(1.0, 1.0)]
    )
    assert distance_bounds(net, 1, 3) == (-2.0, 2.0)
    cfg = SimConfig(t_end=100.0, dt=1e-3, record_every=100, u_tol=1e-9,
                    window=1.0, cluster_tol=1e-3)
    tr = simulate(net, np.array([4.0, 0.0, -4.0]), cfg)
    diff = tr.final_state[0] - tr.final_state[2]
    assert -2.0 - cfg.cluster_tol <= diff <= 2.0 + cfg.cluster_tol


def test_distance_bounds_respects_orientation():
    # edge stored 2 -> 1 with an asymmetric zero interval
    table = SampledTable((-1.0, -0.5, 0.0, 2.0, 3.0), (-1.0, 0.0, 0.0, 0.0, 1.0))
    g = Graph(2, (Edge(1, 2, 1),))
    net = NetworkSystem(g, [Identity()] * 2, [table])
    lo, hi = distance_bounds(net, 1, 2)
    # y1 - y2 = -zeta, zeta in [-0.5, 2] => difference in [-2, 0.5]
    assert (lo, hi) == (-2.0, 0.5)
    assert distance_bounds(net, 2, 1) == (-0.5, 2.0)


def test_distance_bounds_propagates_not_an_interval():
    g = Graph(2, (Edge(1, 1, 2),))
    # sin z + 0.1 z vanishes near +-3.5 as well as at the origin
    for f in (Sinusoid(1.0), Sum((Sinusoid(1.0), Linear(0.1)))):
        net = NetworkSystem(g, [Identity()] * 2, [f])
        with pytest.raises(NotAnInterval):
            distance_bounds(net, 1, 2)
        assert equilibria_membership(net, np.zeros(1), 1e-3) == (None,)


def test_cluster_count_prediction_eleven(eleven_f3_network):
    info = cluster_count_prediction(eleven_f3_network, 14, COARSE)
    assert info.counts == frozenset({1, 4})


def test_cluster_count_prediction_boundary_triangle_matches_simulation():
    net = series_plus_closing(-1 / 3)
    info = cluster_count_prediction(net, 3, GRID)
    assert info.counts == frozenset({1, 3})
    cfg = SimConfig(t_end=120.0, dt=2e-3, record_every=100, u_tol=1e-9,
                    window=1.0, cluster_tol=1e-3)
    # start away from the boundary equilibrium so the run is a real test
    tr = simulate(net, np.array([4.0, 0.0, -1.0]), cfg)
    out = classify_outcome(net, tr, cfg)
    assert out.kind is OutcomeKind.CLUSTERING
    assert len(out.clusters) == 3


def test_cluster_count_prediction_inapplicable_cases():
    # negative edge on two cycles
    edges = [(1, 1, 2), (2, 2, 3), (3, 1, 3), (4, 1, 4), (5, 4, 3)]
    g = Graph(4, tuple(Edge(*e) for e in edges))
    fns = [Linear(1.0)] * 2 + [Negated(Linear(0.1))] + [Linear(1.0)] * 2
    net = NetworkSystem(g, [Identity()] * 4, fns)
    with pytest.raises(Inapplicable):
        cluster_count_prediction(net, 3, GRID)
    # more than one non-strictly-positive edge
    net2 = NetworkSystem(
        g, [Identity()] * 4,
        [DeadZone(1.0, 1.0), Linear(1.0), Negated(Linear(0.1)),
         Linear(1.0), Linear(1.0)],
    )
    with pytest.raises(Inapplicable):
        cluster_count_prediction(net2, 3, GRID)


def test_eigen_oracle_values(triangle_unit_network):
    tri = triangle_unit_network.graph
    assert signed_laplacian_min_eigenvalue(tri, [1.0, 1.0, 1.0]) == pytest.approx(3.0)
    assert abs(signed_laplacian_min_eigenvalue(tri, [0.5, 1.0, -1 / 3])) <= 1e-9
    assert signed_laplacian_min_eigenvalue(tri, [0.5, 1.0, -0.5]) < -1e-3


def test_network_linear_weights(six_agreement_network):
    net = series_plus_closing(-0.25)
    np.testing.assert_allclose(network_linear_weights(net), [0.5, 1.0, -0.25])
    with pytest.raises(NonLinearEdges):
        network_linear_weights(six_agreement_network)


def test_condition_agrees_with_eigen_oracle_on_random_linear_networks():
    # strict <=> positive restricted eigenvalue, holds <=> nonnegative
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if (a, b) not in edges]
        rng.shuffle(pairs)
        edges += pairs[: int(rng.integers(0, 3))]
        spare = [pq for pq in pairs if pq not in edges]
        if not spare:
            continue
        p, q = spare[0]
        w = rng.uniform(0.1, 5.0, size=len(edges))
        g = Graph(n, tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(edges)))
        net = NetworkSystem(g, [Identity()] * n, [Linear(float(v)) for v in w])
        r = effective_resistance(g, w, p, q)
        factor = float(rng.choice([0.3, 0.7, 1.0, 1.4, 2.5]))
        w_neg = -factor / r
        rep = equivalent_passivity_condition(net, Linear(w_neg), p, q, GridSpec(50.0, 21))
        g_full = Graph(
            n, g.edges + (Edge(len(edges) + 1, p, q),)
        )
        lam = signed_laplacian_min_eigenvalue(g_full, np.append(w, w_neg))
        if lam > 1e-9:
            assert rep.holds and rep.strict
        elif lam < -1e-9:
            assert not rep.holds
        else:
            assert rep.holds and not rep.strict


def test_prediction_soundness_on_agreement_configs(
    six_agreement_network, eleven_f1_network
):
    # every configuration promised agreement must actually agree from
    # arbitrary starts
    rng = np.random.default_rng(99)
    cases = [
        (six_agreement_network,
         SimConfig(t_end=60.0, dt=1e-2, record_every=50, u_tol=1e-6,
                   window=1.0, cluster_tol=1e-3)),
        (series_plus_closing(-0.25),
         SimConfig(t_end=120.0, dt=5e-3, record_every=100, u_tol=1e-7,
                   window=1.0, cluster_tol=1e-3)),
        # no early stop here: with finite-time edges the input norm dips
        # below any high tolerance long before slow stragglers settle, so
        # the run goes to a horizon that covers the worst-case settle time
        (eleven_f1_network,
         SimConfig(t_end=25.0, dt=2e-3, record_every=100, u_tol=1e-9,
                   window=1.0, cluster_tol=0.01)),
    ]
    for net, cfg in cases:
        for _ in range(20):
            x0 = rng.uniform(-10, 10, size=net.node_count)
            tr = simulate(net, x0, cfg)
            out = classify_outcome(net, tr, cfg)
            assert out.kind is OutcomeKind.AGREEMENT
            assert out.spread < cfg.cluster_tol


def test_equilibria_membership_and_minmax_on_clustering_run(
    six_clustering_network, six_clustering_run, six_sim_cfg
):
    net = six_clustering_network
    zeta = net.tension(six_clustering_run.final_state)
    member = equilibria_membership(net, zeta, six_sim_cfg.cluster_tol)
    assert all(m is True for m in member)
    classes = classify_edges(net, GridSpec(10.0, 1001))
    sp = [e.id for e, c in zip(net.graph.edges, classes) if c.is_strictly_positive]
    assert strict_extremum_violations(
        net, six_clustering_run.final_state, sp, six_sim_cfg.cluster_tol
    ) == []


def test_final_differences_within_distance_bounds(
    six_clustering_network, six_clustering_run, six_sim_cfg
):
    final = six_clustering_run.final_state
    tol = six_sim_cfg.cluster_tol
    for i in range(1, 7):
        for j in range(i + 1, 7):
            lo, hi = distance_bounds(six_clustering_network, i, j)
            assert lo - tol <= final[i - 1] - final[j - 1] <= hi + tol


# --- grouped grid certificates against the per-edge reference ---------------

# Increasing; flat on [-1, 1] (positive, not strict); changing sign
# (indefinite).  Equal copies built apart group together.
TABLE_KNOTS = (
    ((-2.0, 0.0, 1.0, 4.0), (-1.0, 0.0, 2.0, 2.5)),
    ((-3.0, -1.0, 1.0, 3.0), (-2.0, 0.0, 0.0, 2.0)),
    ((-2.0, 0.0, 2.0, 5.0), (1.0, 0.0, -1.0, 3.0)),
)
_signed = st.floats(-5.0, 5.0)
_leaf_kinds = (
    st.builds(Linear, _signed),
    # dead zones give non-strict classes with a witness
    st.builds(DeadZone, _signed, st.floats(0.1, 3.0)),
    # numpy's square-root path for 0.5 would round apart from its general loop
    st.builds(PowerSign, _signed, st.just(0.5) | st.floats(0.1, 0.9)),
    # sinusoids are indefinite, with an argmin witness
    st.builds(Sinusoid, st.floats(-3.0, 3.0)),
    st.sampled_from(TABLE_KNOTS).map(lambda knots: SampledTable(*knots)),
)
_leaves = st.one_of(*_leaf_kinds)
_edge_fns = st.recursive(
    _leaves,
    lambda inner: st.builds(Negated, inner)
    | st.lists(inner, min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
    max_leaves=4,
)
# Grids: 101 points is the minimum; half-widths where the square root and
# the power of 0.5 round apart, and one with no point off the origin.
_grids = st.builds(
    GridSpec,
    st.sampled_from([100.0, 7.3, 1e-10]) | st.floats(0.5, 150.0),
    st.sampled_from([101, 2001]) | st.integers(101, 2600),
)


@st.composite
def certificate_networks(draw):
    """Connected multigraphs with every edge kind, nested negations and
    sums, and either one kind repeated often enough to need several chunks,
    in random positions, or the leaf kinds dealt round-robin by edge id."""
    if draw(st.booleans()):
        fns = [draw(kind) for kind in _leaf_kinds]
        fns += [draw(st.builds(Negated, _edge_fns)),
                draw(st.lists(_edge_fns, min_size=1, max_size=3).map(Sum))]
        fns += draw(st.lists(_edge_fns, max_size=8))
        bulk = draw(st.sampled_from(_leaf_kinds))
        fns += draw(st.lists(bulk, max_size=30))
        fns = draw(st.permutations(fns))
    else:
        # Leaf kinds dealt round-robin by edge id, so that a group's
        # positions are evenly spaced: 3 to 10 members at a step of one
        # round; then one negation and one sum.
        kinds = draw(st.permutations(_leaf_kinds))
        fns = [draw(kind) for _ in range(draw(st.integers(3, 10))) for kind in kinds]
        fns += [draw(st.builds(Negated, _edge_fns)),
                draw(st.lists(_edge_fns, min_size=1, max_size=3).map(Sum))]
    n = draw(st.integers(2, 6))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    while len(pairs) < len(fns):
        a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        pairs.append((a, b))
    edges = tuple(Edge(k + 1, a, b) for k, (a, b) in enumerate(pairs))
    return NetworkSystem(Graph(n, edges), [Identity()] * n, fns)


@given(net=certificate_networks(), grid=_grids)
@settings(max_examples=200, deadline=None)
def test_grouped_certificates_equal_per_edge_reference(net, grid):
    classes = classify_edges(net, grid)
    reference = reference_classify_edges(net, grid)
    assert classes == reference
    assert tuple(classify_sign(f, grid) for f in net.edge_functions) == reference
    reports = edge_monotonicity(net, grid)
    reference = reference_edge_monotonicity(net, grid)
    assert reports == reference
    assert tuple(
        is_monotone_increasing(f, grid) for f in net.edge_functions
    ) == reference


def test_power_chunk_certificates_equal_per_edge_reference():
    # A chunk of three power edges with one exponent of 0.5: a (3, 1) column
    # of exponents once took numpy's general power loop while a lone edge
    # took its square-root path, an ulp apart at some grid points.
    fns = [PowerSign(1.0, 0.5), PowerSign(2.0, 0.3), PowerSign(1.5, 0.7)]
    edges = tuple(Edge(k, k, k + 1) for k in (1, 2, 3))
    net = NetworkSystem(Graph(4, edges), [Identity()] * 4, fns)
    grid = GridSpec(1.0, 101)
    assert edge_monotonicity(net, grid) == reference_edge_monotonicity(net, grid)
    grid = GridSpec(8.7, 101)
    assert classify_edges(net, grid) == reference_classify_edges(net, grid)


def _generated_network(edge_count: int, seed: int) -> NetworkSystem:
    """A connected random multigraph on edge_count // 2 nodes whose edges
    cycle through five kinds with random parameters."""
    rng = random.Random(seed)
    n = edge_count // 2
    pairs = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    pairs += [
        tuple(rng.sample(range(1, n + 1), 2)) for _ in range(edge_count - n + 1)
    ]
    kinds = (
        lambda: Linear(rng.uniform(-2.0, 2.0)),
        lambda: PowerSign(
            rng.uniform(0.5, 2.0), rng.choice([0.5, rng.uniform(0.1, 0.9)])
        ),
        lambda: DeadZone(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0)),
        lambda: Sinusoid(rng.uniform(-1.0, 1.0)),
        lambda: Negated(Sum((Linear(rng.uniform(0.1, 1.0)), DeadZone(1.0, 1.0)))),
    )
    fns = [kinds[k % len(kinds)]() for k in range(edge_count)]
    edges = tuple(Edge(k + 1, a, b) for k, (a, b) in enumerate(pairs))
    return NetworkSystem(Graph(n, edges), [Identity()] * n, fns)


def test_grouped_certificates_equal_reference_across_many_chunks():
    # Four kind groups: the 201 linear edges join the 201 dead zones, and
    # three groups of 201.  Several chunks per group even at the 101-point
    # minimum (162 edges), each group's last chunk only partly full: 78
    # edges in the joined group, 39 in the others.
    net = _generated_network(1005, seed=3)
    for grid in (GridSpec(100.0, 101), GridSpec(25.0, 2001)):
        sizes = [len(at) for at, _ in net.edge_chunks(grid.samples)]
        assert len(sizes) >= 9 and len(set(sizes)) == 3
        assert classify_edges(net, grid) == reference_classify_edges(net, grid)
        assert edge_monotonicity(net, grid) == reference_edge_monotonicity(net, grid)


def test_classify_edges_memory_stays_bounded():
    # One grid x edge array would be 2001 * 2000 * 8 bytes, 32 MB.
    net = _generated_network(2000, seed=5)
    tracemalloc.start()
    try:
        classes = classify_edges(net, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == 2000
    assert {c.label for c in classes} >= {SignLabel.POSITIVE, SignLabel.INDEFINITE}
    assert peak < 8 * 2**20

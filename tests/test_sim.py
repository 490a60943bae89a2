"""Fixed-step integration, outcome classification, steady-state queries."""

import io
import math

import numpy as np
import pytest

from signet.analysis import equilibria_membership
from signet.edgefn import Linear
from signet.errors import NonFiniteState, ValidationError
from signet.graph import Edge, Graph
from signet.network import NetworkSystem
from signet.nodes import Identity
from signet.sim import (
    OutcomeKind,
    SimConfig,
    Trajectory,
    classify_outcome,
    cocontent_profile,
    quadratic_storage_profile,
    simulate,
    write_trajectory_csv,
)

from conftest import SIX_X0


def linear_pair(w=1.0):
    g = Graph(2, (Edge(1, 1, 2),))
    return NetworkSystem(g, [Identity()] * 2, [Linear(w)])


def test_two_node_flow_matches_closed_form():
    # x0 = (1, -1) decays along e^{-2t} on each side of zero.
    net = linear_pair()
    cfg = SimConfig(t_end=5.0, dt=1e-3, record_every=1000, u_tol=1e-15, window=1.0)
    tr = simulate(net, np.array([1.0, -1.0]), cfg)
    assert tr.times[-1] == pytest.approx(5.0)
    assert abs(tr.final_state[0] - math.exp(-10.0)) < 1e-6


def test_agreement_start_stays_constant():
    net = linear_pair()
    cfg = SimConfig(t_end=2.0, dt=1e-3, record_every=100, u_tol=1e-9, window=1.0)
    tr = simulate(net, np.array([2.0, 2.0]), cfg)
    assert tr.steady
    assert np.all(tr.states == 2.0)


def test_steadiness_early_stop():
    net = linear_pair()
    cfg = SimConfig(t_end=500.0, dt=1e-3, record_every=100, u_tol=1e-8, window=1.0)
    tr = simulate(net, np.array([1.0, -1.0]), cfg)
    assert tr.steady and not tr.blowup
    assert tr.times[-1] < 25.0
    assert tr.final_u_norm < 1e-8


def test_blowup_detection():
    net = linear_pair(w=-1.0)
    cfg = SimConfig(
        t_end=100.0, dt=1e-2, record_every=10, u_tol=1e-9, window=1.0,
        blowup_threshold=1e6,
    )
    tr = simulate(net, np.array([1.0, -1.0]), cfg)
    assert tr.blowup
    out = classify_outcome(net, tr, cfg)
    assert out.kind is OutcomeKind.DIVERGENCE


def test_sim_config_rejects_non_finite_parameters():
    for bad in ({"t_end": float("inf")}, {"t_end": 1.0, "dt": float("nan")},
                {"t_end": 1.0, "window": float("inf")},
                {"t_end": 1.0, "u_tol": float("nan")},
                {"t_end": 1e300, "dt": 1e-10}):
        with pytest.raises(ValidationError):
            SimConfig(**{"t_end": 1.0, **bad})
    # +inf switches the blowup guard off and stays allowed
    assert SimConfig(t_end=1.0, blowup_threshold=float("inf")).blowup_threshold > 0


def test_sim_config_bounds_steps_and_recorded_rows():
    # Validation only; none of these configs is run.
    with pytest.raises(ValidationError, match="steps"):
        SimConfig(t_end=1e5 + 1.0, dt=1e-3, record_every=1000)
    with pytest.raises(ValidationError, match="rows"):
        SimConfig(t_end=1e3 + 1.0, dt=1e-3, record_every=1)
    # At the limits: 1e8 steps, and 1e6 rows with the initial state.
    assert SimConfig(t_end=1e5, dt=1e-3, record_every=1000).steps == 10**8
    assert SimConfig(t_end=1e3 - 1e-3, dt=1e-3, record_every=1).steps == 10**6 - 1
    # The largest shipped run, 300 000 steps, is far inside both limits.
    assert SimConfig(t_end=600.0, dt=2e-3, record_every=100).steps == 300_000


def test_non_finite_state_raises():
    net = linear_pair(w=-1.0)
    cfg = SimConfig(
        t_end=500.0, dt=5e-2, record_every=100, u_tol=1e-9, window=1.0,
        blowup_threshold=float("inf"),
    )
    with pytest.raises(NonFiniteState):
        simulate(net, np.array([1.0, -1.0]), cfg)


def test_dimension_and_config_validation():
    net = linear_pair()
    cfg = SimConfig(t_end=1.0, dt=1e-3)
    with pytest.raises(ValidationError):
        simulate(net, np.zeros(3), cfg)
    with pytest.raises(ValidationError):
        SimConfig(t_end=1.0, dt=2.0, window=1.0)
    with pytest.raises(ValidationError):
        SimConfig(t_end=1.0, dt=1e-3, record_every=0)


def test_classify_outcome_grouping():
    net = linear_pair()
    cfg = SimConfig(t_end=1.0, dt=1e-3, cluster_tol=0.1, u_tol=1e-6)
    states = np.array([[6.55, 6.55, -2.45, -2.45]])
    g4 = Graph(4, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 4)))
    net4 = NetworkSystem(g4, [Identity()] * 4, [Linear(1.0)] * 3)
    from signet.sim import Trajectory

    tr = Trajectory(times=np.array([0.0]), states=states, final_u_norm=1e-9)
    out = classify_outcome(net4, tr, cfg)
    assert out.kind is OutcomeKind.CLUSTERING
    assert [c.nodes for c in out.clusters] == [(1, 2), (3, 4)]
    assert out.clusters[0].value == pytest.approx(6.55)

    tr2 = Trajectory(
        times=np.array([0.0]),
        states=np.array([[1.0, 1.0 + 1e-9, 1.0, 1.0]]),
        final_u_norm=1e-9,
    )
    out2 = classify_outcome(net4, tr2, cfg)
    assert out2.kind is OutcomeKind.AGREEMENT
    assert out2.beta == pytest.approx(1.0)


def test_six_node_agreement(six_agreement_network, six_agreement_run, six_sim_cfg):
    tr = six_agreement_run
    out = classify_outcome(six_agreement_network, tr, six_sim_cfg)
    assert out.kind is OutcomeKind.AGREEMENT
    assert tr.times[-1] <= 50.0
    assert out.spread < 1e-3
    # integrators preserve the state sum, so agreement lands on the mean
    assert out.beta == pytest.approx(SIX_X0.mean(), abs=1e-6)


def test_six_node_clustering(six_clustering_network, six_clustering_run, six_sim_cfg):
    out = classify_outcome(six_clustering_network, six_clustering_run, six_sim_cfg)
    assert out.kind is OutcomeKind.CLUSTERING
    assert [c.nodes for c in out.clusters] == [(1, 6), (2, 3, 4, 5)]
    gap = out.clusters[0].value - out.clusters[1].value
    assert 0.0 < gap <= 1.0


def _steady_tension(net, tr, cfg):
    """Settled tension and its equilibria membership within cluster_tol."""
    zeta = classify_outcome(net, tr, cfg).steady_tension
    return zeta, equilibria_membership(net, zeta, cfg.cluster_tol)


def test_steady_tension_membership(six_clustering_network, six_clustering_run, six_sim_cfg):
    zeta, member = _steady_tension(six_clustering_network, six_clustering_run, six_sim_cfg)
    assert all(m is True for m in member)
    # the dead-zone bridge carries the inter-cluster gap
    assert abs(zeta[0]) <= 1.0 + six_sim_cfg.cluster_tol


def test_steady_tension_vanishes_at_agreement(
    six_agreement_network, six_agreement_run, six_sim_cfg
):
    zeta, member = _steady_tension(six_agreement_network, six_agreement_run, six_sim_cfg)
    assert np.array_equal(zeta, six_agreement_network.tension(six_agreement_run.final_state))
    assert np.max(np.abs(zeta)) < six_sim_cfg.cluster_tol
    assert all(m is True for m in member)


def test_steady_tension_requires_settled_outcome():
    net = linear_pair()
    cfg = SimConfig(t_end=0.01, dt=1e-3, record_every=1, u_tol=1e-15,
                    window=5e-3, cluster_tol=1e-9)
    tr = simulate(net, np.array([5.0, -5.0]), cfg)
    outcome = classify_outcome(net, tr, cfg)
    assert outcome.kind is OutcomeKind.UNDECIDED
    assert outcome.steady_tension is None


class _BrokenEquilibria(Linear):
    """A linear edge whose zero set cannot be computed."""

    def equilibria(self):
        raise ValueError("zero set unavailable")


def test_steady_tension_propagates_equilibria_errors():
    # Only NotAnInterval means "no interval to test"; any other error is a
    # defect and must not be reported as an unknown membership.
    g = Graph(2, (Edge(1, 1, 2),))
    net = NetworkSystem(g, [Identity()] * 2, [_BrokenEquilibria(1.0)])
    cfg = SimConfig(t_end=2.0, dt=1e-3, record_every=100, u_tol=1e-9, window=1.0)
    tr = simulate(net, np.array([2.0, 2.0]), cfg)
    with pytest.raises(ValueError, match="zero set unavailable"):
        _steady_tension(net, tr, cfg)


def test_quadratic_storage_decreases_on_positive_networks(
    six_agreement_network, six_agreement_run,
    six_clustering_network, six_clustering_run,
):
    for tr in (six_agreement_run, six_clustering_run):
        V = quadratic_storage_profile(tr)
        assert np.all(np.diff(V) <= 1e-9)


def test_storage_rate_matches_injected_power():
    # For identity nodes the stored energy changes exactly by u*(y - y*).
    net = linear_pair()
    cfg = SimConfig(t_end=2.0, dt=1e-3, record_every=1, u_tol=1e-15, window=1.0)
    tr = simulate(net, np.array([1.0, -1.0]), cfg)
    y_star = tr.final_state
    S = quadratic_storage_profile(tr)
    for k in range(0, len(tr.times) - 1, 37):
        dt = tr.times[k + 1] - tr.times[k]
        mid = 0.5 * (tr.states[k] + tr.states[k + 1])
        u_mid = net.node_input(mid)
        rate_fd = (S[k + 1] - S[k]) / dt
        rate_power = float(u_mid @ (mid - y_star))
        assert abs(rate_fd - rate_power) <= 1e-4


def test_record_every_thins_and_keeps_final():
    net = linear_pair()
    cfg = SimConfig(t_end=1.0, dt=1e-3, record_every=300, u_tol=1e-15, window=0.5)
    tr = simulate(net, np.array([1.0, 0.0]), cfg)
    assert tr.times[0] == 0.0 and tr.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(tr.times) > 0)
    assert len(tr.times) == 5  # 0, 0.3, 0.6, 0.9, 1.0


def test_trajectory_csv_format():
    net = linear_pair()
    cfg = SimConfig(t_end=0.01, dt=1e-3, record_every=5, u_tol=1e-15, window=5e-3)
    tr = simulate(net, np.array([1.0, -1.0]), cfg)
    buf = io.StringIO()
    write_trajectory_csv(tr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,y1,y2"
    assert len(lines) == 1 + len(tr.times)
    # full-precision round trip
    t0, y1, y2 = lines[2].split(",")
    idx = 1
    assert float(t0) == tr.times[idx]
    assert float(y1) == tr.states[idx, 0] and float(y2) == tr.states[idx, 1]


def test_cocontent_profile_decreases_for_dead_zone_mix(
    six_clustering_network, six_clustering_run
):
    V = cocontent_profile(six_clustering_network, six_clustering_run)
    assert np.all(np.diff(V) <= 1e-9)
    assert V[-1] < V[0]


def test_trajectory_csv_matches_formatting_each_float():
    # The reference: format(float(v), ".17g") for every numpy value.
    rng = np.random.default_rng(7)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 3.0, -2.0,
               1e16, 0.1, 2.0 ** -1074 * 3, 123456789.0, math.inf, -math.inf, math.nan]
    states = rng.normal(scale=1e3, size=(40, len(special)))
    states[0] = special
    states[1] = special[::-1]
    states[2:6] = np.round(states[2:6])
    times = np.concatenate([[0.0, 5e-324, 1.0], np.cumsum(rng.random(37))])
    tr = Trajectory(times, states, 0.0)
    want = io.StringIO()
    want.write("t," + ",".join(f"y{i}" for i in range(1, len(special) + 1)) + "\n")
    for t, row in zip(tr.times, tr.states):
        want.write(format(float(t), ".17g") + ","
                   + ",".join(format(float(v), ".17g") for v in row) + "\n")
    got = io.StringIO()
    write_trajectory_csv(tr, got)
    assert got.getvalue() == want.getvalue()

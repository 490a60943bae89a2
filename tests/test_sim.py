"""Fixed-step integration, outcome classification, steady-state queries."""

import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signet import sim
from signet.analysis import equilibria_membership
from signet.edgefn import Linear, Negated
from signet.errors import NonFiniteState, ValidationError
from signet.graph import Edge, Graph, laplacian
from signet.network import _CHUNK_CELLS, NetworkSystem
from signet.nodes import Identity
from signet.sim import (
    OutcomeKind,
    SimConfig,
    Trajectory,
    classify_outcome,
    simulate,
    write_trajectory_csv,
)

from conftest import SIX_X0
from oracles import cocontent_profile, quadratic_storage_profile
from test_network import block_networks


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


# --- the block stepper against the per-step loop -------------------------------


def oracle_rhs(system):
    """The closed loop written out from the system's edge ends, grouped
    flow and drift: a state's node input u and the field gamma(u)."""
    n, tail, head = system.node_count, system.tail, system.head
    flow, gamma = system._flow, system._gamma

    def rhs(state):
        mu = flow(state[tail] - state[head])
        u = np.bincount(head, mu, n) - np.bincount(tail, mu, n)
        return u, gamma(u)

    return rhs


def per_step_simulate(system, x0, cfg):
    """The stepper as one loop that checks every step as soon as it is
    taken: the oracle that ``simulate`` must match bit for bit."""
    x = np.array(x0, dtype=float)
    dt = cfg.dt
    rhs = oracle_rhs(system)

    times = [0.0]
    states = [x.copy()]
    blowup = False
    steady = False
    steady_since = None
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            u, k1 = rhs(x)
            u_norm = float(np.abs(u).max())
            if not math.isfinite(u_norm):
                raise NonFiniteState(f"non-finite input at t = {t:.6g}")
            if u_norm < cfg.u_tol:
                if steady_since is None:
                    steady_since = t
            else:
                steady_since = None

            half = 0.5 * dt
            _, k2 = rhs(x + half * k1)
            _, k3 = rhs(x + half * k2)
            _, k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = step * dt

            biggest = float(np.abs(x).max())
            if not math.isfinite(biggest):
                raise NonFiniteState(f"non-finite state at t = {t:.6g}")
            record = step % cfg.record_every == 0
            if biggest > cfg.blowup_threshold:
                blowup = True
                record = True
            elif steady_since is not None and t - steady_since >= cfg.window:
                steady = True
                record = True
            if record:
                times.append(t)
                states.append(x.copy())
            if blowup or steady:
                break
        else:
            if times[-1] != t:
                times.append(t)
                states.append(x.copy())

    final_u, _ = rhs(states[-1])
    return Trajectory(
        times=np.array(times),
        states=np.vstack(states),
        final_u_norm=float(np.max(np.abs(final_u))),
        blowup=blowup,
        steady=steady,
    )


def block_steps(n):
    """Steps per block of ``simulate`` on n nodes."""
    return max(1, min(sim._BLOCK_STEPS, _CHUNK_CELLS // n))


def assert_same_run(got, want):
    """Equal bit for bit, the sign of zeros and the order of rows included."""
    assert got.times.shape == want.times.shape
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.shape == want.states.shape
    assert got.states.tobytes() == want.states.tobytes()
    assert np.float64(got.final_u_norm).tobytes() == np.float64(want.final_u_norm).tobytes()
    assert (got.steady, got.blowup) == (want.steady, want.blowup)


# 0-based steps at which a run is made to stop: the first step of the first
# block, its last step, and the first two steps of the second block.
STOP_OFFSETS = ("first", "last", "next", "next_but_one")


def stop_step(offset, k):
    """The 1-based step of a stop placed at one of STOP_OFFSETS, for blocks
    of k steps."""
    return {"first": 1, "last": k, "next": k + 1, "next_but_one": k + 2}[offset]


@st.composite
def block_runs(draw):
    """A network of ``block_networks``, a start, and a SimConfig whose run
    stops at a chosen block offset (or wherever drawn thresholds make it
    stop)."""
    net = draw(block_networks())
    n = net.node_count - 2

    # A steady stop, or a reset of the steadiness window, comes after a
    # first step that starts the window (which must exceed dt).
    stop = draw(st.sampled_from(["horizon", "steady", "blowup", "reset", "free"]))
    k = block_steps(net.node_count)
    offsets = STOP_OFFSETS[1:] if stop in ("steady", "reset") else STOP_OFFSETS
    s = stop_step(draw(st.sampled_from(offsets)), k)
    dt = draw(st.sampled_from([1e-3, 1e-2]))
    a = 1e3 if stop in ("blowup", "reset") else draw(st.floats(-10.0, 10.0))
    rest = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    x0 = np.array(rest + [a, -a])
    every = draw(st.sampled_from([1, 2, 3, 7, k - 1, k, k + 1, 1000]))
    quiet = dict(u_tol=1e-300, window=1e3, blowup_threshold=1e300)
    if stop == "horizon":
        cfg = SimConfig(t_end=s * dt, dt=dt, record_every=every, **quiet)
    elif stop == "steady":
        cfg = SimConfig(t_end=(s + k) * dt, dt=dt, record_every=every,
                        u_tol=1e300, window=s * dt, blowup_threshold=1e300)
    else:
        # Per-step input norms and state maxima of an unchecked run.
        probe = per_step_simulate(
            net, x0, SimConfig(t_end=(2 * k + 3) * dt, dt=dt, record_every=1, **quiet))
        biggest = np.abs(probe.states[1:]).max(axis=1)
        u_norm = [np.abs(net.node_input(x)).max() for x in probe.states[:-1]]
        if stop == "blowup":
            below = biggest[: s - 1].max() if s > 1 else 0.5 * biggest[0]
            assume(biggest[s - 1] > below)  # the first crossing is step s
            cfg = SimConfig(t_end=(s + k) * dt, dt=dt, record_every=every,
                            u_tol=1e-300, window=1e3, blowup_threshold=below)
        elif stop == "reset":
            # Steady from step 1 until the input of step s reaches u_tol,
            # just before the window would end.
            assume(u_norm[s - 1] > max(u_norm[: s - 1]))
            cfg = SimConfig(t_end=(s + k) * dt, dt=dt, record_every=every,
                            u_tol=u_norm[s - 1], window=(s - 0.5) * dt,
                            blowup_threshold=1e300)
        else:
            u_tol = draw(st.sampled_from(u_norm)) * draw(st.sampled_from([0.5, 1.0, 2.0]))
            cfg = SimConfig(
                t_end=(2 * k + 3) * dt, dt=dt, record_every=every,
                u_tol=max(u_tol, 1e-300),
                window=dt * draw(st.sampled_from([1.5, 2.0, k - 0.5, k + 0.5])),
                blowup_threshold=max(draw(st.sampled_from(biggest.tolist())), 1e-300),
            )
    return net, x0, cfg, stop, s


@given(run=block_runs())
@settings(max_examples=120, deadline=None)
def test_block_stepper_matches_per_step_oracle(run):
    net, x0, cfg, stop, s = run
    want = per_step_simulate(net, x0, cfg)
    assert_same_run(simulate(net, x0, cfg), want)
    if stop == "reset":  # no stop at step s
        assert not want.steady or want.times[-1] > s * cfg.dt
    elif stop != "free":  # the stop is where the run was made to stop
        assert want.times[-1] == s * cfg.dt
        assert (want.steady, want.blowup) == (stop == "steady", stop == "blowup")


@given(net=block_networks(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_closed_loop_rhs_matches_oracle(net, data):
    # The system's node input and field, which simulate steps with, are the
    # oracle's bit for bit, at signed zeros and overflowing states too.
    values = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e300, -1e300])
    rhs = oracle_rhs(net)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            x = np.array(data.draw(st.lists(
                values, min_size=net.node_count, max_size=net.node_count)))
            u, field = rhs(x)
            assert net.node_input(x).tobytes() == u.tobytes()
            assert net.vector_field(x).tobytes() == field.tobytes()
            assert net.node_input(x.tolist()).tobytes() == u.tobytes()


def _raising_step(net, x0, cfg):
    """The message of the oracle's NonFiniteState and the step whose check
    raised it, or (None, None) when the run stays finite."""
    try:
        per_step_simulate(net, x0, cfg)
    except NonFiniteState as exc:
        message = str(exc)
        t = float(message.rsplit(" ", 1)[1])
        return message, round(t / cfg.dt) + message.startswith("non-finite input")
    return None, None


@pytest.mark.parametrize("n", [2, 300])
@pytest.mark.parametrize("which", ["input", "state"])
@pytest.mark.parametrize("offset", STOP_OFFSETS)
def test_block_stepper_raises_non_finite_as_the_oracle(n, which, offset):
    # A negated linear ring (a pair when n = 2) started on its fastest
    # mode, at a rate times dt of 20: each step multiplies it by about 8200,
    # and no stage of a step reaches a third of that, so the start's power
    # of two can put the first non-finite value at any step.  The input is w
    # times the mode's tension: a huge w makes it overflow before the state.
    w = 2.0**100 if which == "input" else 1.0
    pairs = [(1, 2)] if n == 2 else [(v, v % n + 1) for v in range(1, n + 1)]
    net = NetworkSystem(
        Graph(n, tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(pairs))),
        [Identity()] * n, [Negated(Linear(w))] * len(pairs),
    )
    k = block_steps(n)
    assert (k < sim._BLOCK_STEPS) == (n == 300)
    target = stop_step(offset, k)
    dt = 20.0 / ((2.0 if n == 2 else 4.0) * w)
    cfg = SimConfig(t_end=1e3 * dt, dt=dt, record_every=5, u_tol=1e-300,
                    window=2.0 * dt, blowup_threshold=math.inf)
    mode = np.array([(-1.0) ** v for v in range(n)])

    def raising(power):
        return _raising_step(net, 2.0**power * mode, cfg)

    # A larger start overflows no later: bisect for the smallest power that
    # overflows by the target step, then try the powers above it.
    low, high = -1000, 1023
    while low < high:
        mid = (low + high) // 2
        low, high = (mid + 1, high) if raising(mid)[1] > target else (low, mid)
    for power in range(low, 1024):
        message, step = raising(power)
        if step != target:
            pytest.fail(f"no start overflows the {which} at step {target}")
        if message.startswith(f"non-finite {which} at t = "):
            break
    x0 = 2.0**power * mode
    with pytest.raises(NonFiniteState) as raised:
        simulate(net, x0, cfg)
    assert str(raised.value) == message


# --- linear runs against their eigendecomposition ------------------------------


@st.composite
def signed_linear_networks(draw):
    """A connected network of 2 to 8 integrators joined by linear edges of
    either sign, parallel edges included, and its weights."""
    n = draw(st.integers(2, 8))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs += draw(st.lists(
        st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True), max_size=n))
    w = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(pairs)))
    return NetworkSystem(g, [Identity()] * n, [Linear(x) for x in w]), np.array(w)


@given(case=signed_linear_networks(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_linear_runs_match_the_eigendecomposed_rk4_map(case, data):
    # An oracle that shares none of the code's arithmetic: one RK4 step of
    # x' = -L x, with L = E W E^T = V diag(lam) V^T, multiplies each mode
    # of L by R(-lam dt), where R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  The
    # error of row k is measured against the largest that k steps can make
    # of the start, max |R|^k |x0|, so that neither a decayed state nor a
    # mode that the start leaves out (whose rounding alone then grows)
    # inflates it; runs are cut before that factor passes 1e100.
    net, w = case
    n = net.node_count
    x0 = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    dt = data.draw(st.sampled_from([1e-3, 1e-2]))
    lam, V = np.linalg.eigh(laplacian(net.graph, w))
    z = -lam * dt
    R = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    growth = np.log10(np.abs(R).max())
    steps = 2000 if growth * 2000 <= 100.0 else int(100.0 / growth)
    cfg = SimConfig(t_end=steps * dt, dt=dt, record_every=data.draw(st.sampled_from([1, 7, 64])),
                    u_tol=1e-300, window=1e3, blowup_threshold=1e300)
    run = simulate(net, x0, cfg)
    k = np.rint(run.times / dt)
    assert k[-1] == steps
    want = (R ** k[:, None] * (V.T @ x0)) @ V.T
    error = np.linalg.norm(run.states - want, axis=1)
    scale = np.abs(R).max() ** k * np.linalg.norm(x0)
    assert (error <= 1e-10 * scale).all()

"""Operating points, equivalent edge functions, effective resistance."""

import io
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signet import circuit
from signet.circuit import (
    check_equivalent_edge_preconditions,
    effective_resistance,
    equivalent_edge_function,
    solve_operating_point,
    tellegen_residual,
    total_cocontent,
)
from signet.config import load_config
from signet.edgefn import DeadZone, GridSpec, Linear, PowerSign, SampledTable, Sum
from signet.errors import (
    Disconnected,
    DimensionMismatch,
    NoConvergence,
    ValidationError,
)
from signet.graph import Edge, Graph, incidence
from signet.network import NetworkSystem
from signet.nodes import Identity


def dz_linear_series():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    return NetworkSystem(
        g, [Identity()] * 3, [DeadZone(1.0, 1.0), Linear(1.0)]
    )


def test_series_operating_point_exact(series_network):
    op = solve_operating_point(series_network, 1, 3, 3.0)
    np.testing.assert_allclose(op.zeta, [2.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(op.mu, [1.0, 1.0], atol=1e-9)
    assert op.terminal_flow == pytest.approx(1.0, abs=1e-9)
    assert total_cocontent(series_network, op.zeta) == pytest.approx(1.5, abs=1e-9)
    assert op.zeta_bar[-1] == 3.0 and op.mu_bar[-1] == pytest.approx(-1.0)
    assert not op.degenerate


def test_series_suboptimal_assignment_costs_more(series_network):
    assert total_cocontent(series_network, np.array([1.0, 2.0])) == pytest.approx(2.25)


def test_zero_terminal_tension_is_trivial(series_network):
    op = solve_operating_point(series_network, 1, 3, 0.0)
    assert np.all(op.y == 0.0)
    assert op.terminal_flow == 0.0
    assert total_cocontent(series_network, op.zeta) == 0.0


def test_unit_triangle_terminal_flow(triangle_unit_network):
    op = solve_operating_point(triangle_unit_network, 1, 3, 1.0)
    assert op.terminal_flow == pytest.approx(1.5, abs=1e-9)


def test_dead_zone_series_flow():
    # 3 volts over a unit dead zone in series with a unit resistor:
    # the flow solves 3 = (mu + 1) + mu, so mu = 1.
    net = dz_linear_series()
    op = solve_operating_point(net, 1, 3, 3.0)
    assert op.terminal_flow == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(op.zeta, [2.0, 1.0], atol=1e-8)


def test_dead_zone_flat_region_degenerate_flag():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    net = NetworkSystem(
        g, [Identity()] * 3, [DeadZone(1.0, 1.0), DeadZone(1.0, 1.0)]
    )
    op = solve_operating_point(net, 1, 3, 1.0)
    assert op.terminal_flow == pytest.approx(0.0, abs=1e-12)
    assert op.degenerate
    assert _reference_degenerate(net, 1, 3, op.zeta, op.mu)


def _reference_degenerate(net, p, q, zeta, mu):
    """Reference for ``OperatingPoint.degenerate``: Cholesky of the reduced
    Laplacian at the clamped chord slopes; False when no node is free or a
    slope is negative."""
    clamp = circuit._DERIV_CLAMP
    with np.errstate(divide="ignore", invalid="ignore"):
        d = net.slope(zeta)
        d = np.minimum(np.where(np.isfinite(d), d, clamp), clamp)
        chord = np.where(np.abs(zeta) > 1e-300, mu / zeta, d)
    chord = np.where(np.isfinite(chord), chord, d)
    d = np.minimum(np.maximum(d, chord), clamp)
    block = net.reduced_laplacian(p, q)
    if not block.size or not np.all(d >= 0.0):
        return False
    try:
        np.linalg.cholesky(block.matrix(d))
    except np.linalg.LinAlgError:
        return True
    return False


_mixed_edges = st.one_of(
    st.builds(Linear, st.floats(0.5, 2.0)),
    st.builds(DeadZone, st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    st.builds(PowerSign, st.floats(0.5, 3.0), st.floats(0.3, 0.9)),
    st.builds(lambda w, w_dz, band: Sum((Linear(w), DeadZone(w_dz, band))),
              st.floats(0.2, 1.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
)


@st.composite
def _small_networks(draw):
    """(system, p, q, zeta_pq): a random tree on 2-6 nodes plus up to three
    chords, each edge linear, dead-zone, power-law or linear + dead zone."""
    n = draw(st.integers(2, 6))
    pairs = {(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)}
    chords = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    pairs |= set(draw(st.lists(st.sampled_from(chords), max_size=3)))
    edges = tuple(
        Edge(k + 1, *((b, a) if draw(st.booleans()) else (a, b)))
        for k, (a, b) in enumerate(sorted(pairs))
    )
    fns = draw(st.lists(_mixed_edges, min_size=len(edges), max_size=len(edges)))
    p, q = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    zeta = draw(st.sampled_from([0.0, 1.0]) | st.floats(-5.0, 5.0))
    return NetworkSystem(Graph(n, edges), [Identity()] * n, fns), p, q, zeta


@given(case=_small_networks())
@example(case=(dz_linear_series(), 1, 3, 0.5))
@example(case=(
    NetworkSystem(Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3))), [Identity()] * 3,
                  [DeadZone(1.0, 1.0), DeadZone(1.0, 1.0)]),
    1, 3, 1.0,
))
@settings(max_examples=60, deadline=None)
def test_lazy_degenerate_flag_matches_cholesky_reference(case):
    net, p, q, zeta = case
    try:
        op = solve_operating_point(net, p, q, zeta)
    except NoConvergence:
        assume(False)
    expected = _reference_degenerate(net, p, q, op.zeta, op.mu)
    assert op.degenerate is expected


def test_solves_factorize_only_when_the_flag_is_read(monkeypatch, series_network):
    calls = {"cholesky": 0, "solve": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    equivalent_edge_function(series_network, 1, 3, GridSpec(10.0, 101))
    assert calls["cholesky"] == 0
    op = solve_operating_point(series_network, 1, 3, 2.0)
    assert not op.degenerate
    assert not op.degenerate  # cached
    assert calls["cholesky"] == 1
    calls["solve"] = 0
    op = solve_operating_point(series_network, 1, 3, 0.0)
    assert calls["solve"] == 0 and op.iterations == 1


def test_kink_stall_fails_in_one_line_search(monkeypatch):
    # A 60-node random graph of alternating power-law and linear edges
    # (seed 3 of the benchmark generator's ranges): the optimum at zeta_pq =
    # 0.2 puts a power-law edge exactly at its kink.  There the predicted
    # decrease of a step rounds away in F; an Armijo test that accepted
    # such steps would spend all of _MAX_ITER without progress.
    cfg = load_config(Path(__file__).parent / "data" / "kink_power_linear_60.json")
    monkeypatch.setattr(circuit, "_MAX_ITER", 30)
    with pytest.raises(NoConvergence, match="line search stalled"):
        solve_operating_point(cfg.build_system(), cfg.eqfun.p, cfg.eqfun.q, 0.2)


def test_solver_iteration_cap(monkeypatch):
    from conftest import ELEVEN_A, ELEVEN_EDGES, ELEVEN_W

    g = Graph(11, tuple(Edge(*e) for e in ELEVEN_EDGES))
    net = NetworkSystem(
        g, [Identity()] * 11,
        [PowerSign(w, a) for w, a in zip(ELEVEN_W, ELEVEN_A)],
    )
    monkeypatch.setattr(circuit, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        solve_operating_point(net, 1, 4, 50.0)


def test_precondition_warning_for_dead_zone():
    messages = check_equivalent_edge_preconditions(dz_linear_series())
    assert len(messages) == 1
    assert messages[0].startswith("edge 1:") and "non-unique" in messages[0]


def test_equivalent_edge_table_series(series_network):
    table = equivalent_edge_function(series_network, 1, 3, GridSpec(100.0, 201))
    np.testing.assert_allclose(table.mus, table.zetas / 3.0, atol=1e-8)
    assert table(3.0) == pytest.approx(1.0, abs=1e-9)
    assert table.mus[100] == 0.0


def test_equivalent_edge_table_single_edge():
    g = Graph(2, (Edge(1, 1, 2),))
    net = NetworkSystem(g, [Identity()] * 2, [Linear(0.7)])
    table = equivalent_edge_function(net, 1, 2, GridSpec(10.0, 101))
    np.testing.assert_allclose(table.mus, 0.7 * table.zetas, atol=1e-12)


def test_equivalent_edge_sample_count_must_be_odd(series_network):
    with pytest.raises(ValidationError):
        equivalent_edge_function(series_network, 1, 3, GridSpec(10.0, 100))


def test_equivalent_edge_sweep_deterministic(series_network):
    t1 = equivalent_edge_function(series_network, 1, 3, GridSpec(50.0, 101))
    t2 = equivalent_edge_function(series_network, 1, 3, GridSpec(50.0, 101))
    assert np.array_equal(t1.mus, t2.mus)


def test_equivalent_edge_odd_symmetry():
    net = dz_linear_series()
    table = equivalent_edge_function(net, 1, 3, GridSpec(20.0, 81))
    np.testing.assert_allclose(table.mus, -table.mus[::-1], atol=1e-10)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("zeta_pq", [0.0, -0.0, 1e-300, 3.5, -1e6])
def test_augmented_arrays_extend_the_real_edges(series_network, zeta_pq, warm):
    # The virtual terminal edge comes last: it carries zeta_pq itself (its
    # sign bit too) and the negated terminal flow.
    start = np.array([1.0, -2.0, 0.5]) if warm else None
    op = solve_operating_point(series_network, 1, 3, zeta_pq, start)
    sign = lambda v: math.copysign(1.0, v)  # noqa: E731
    assert op.zeta_bar.shape == op.mu_bar.shape == (series_network.edge_count + 1,)
    assert op.zeta_bar[-1] == zeta_pq and sign(op.zeta_bar[-1]) == sign(zeta_pq)
    assert op.mu_bar[-1] == -op.terminal_flow
    assert sign(op.mu_bar[-1]) == sign(-op.terminal_flow)
    assert op.zeta.tobytes() == series_network.tension(op.y).tobytes()
    assert op.mu.tobytes() == series_network.flow(op.zeta).tobytes()
    assert np.array_equal(op.zeta_bar[:-1], op.zeta) and np.array_equal(op.mu_bar[:-1], op.mu)


def _reference_sweep(net, p, q, grid):
    """The sweep of ``equivalent_edge_function`` replayed with its original
    formulas: one solve per sample outward from zero with secant warm starts,
    the residual scaled by ``np.linalg.norm``.  Returns (mus, worst residual)."""
    zetas = grid.points()
    mus = np.zeros(grid.samples)
    mid = grid.samples // 2
    worst = 0.0
    for indices in (range(mid, grid.samples), range(mid, -1, -1)):
        warm = previous = None
        for i in indices:
            op = solve_operating_point(net, p, q, float(zetas[i]), warm)
            mus[i] = op.terminal_flow
            scale = float(np.linalg.norm(op.mu_bar) * np.linalg.norm(op.zeta_bar))
            residual = abs(float(op.mu_bar @ op.zeta_bar))
            worst = max(worst, residual / (scale if scale > 0 else 1.0))
            if float(zetas[i]) == 0.0:
                warm = previous = None
            else:
                warm = op.y if previous is None else 2.0 * op.y - previous
                previous = op.y
    return mus, worst


_sweep_edges = st.one_of(
    st.builds(Linear, st.floats(0.2, 3.0)),
    st.builds(DeadZone, st.floats(0.2, 3.0), st.floats(0.1, 2.0)),
    st.builds(PowerSign, st.floats(0.5, 3.0), st.floats(0.3, 0.9)),
    # An increasing table through the origin, not odd, with 2-3 knots a side.
    st.builds(
        lambda left, right: SampledTable(
            tuple(-float(k) for k in range(len(left), 0, -1)) + (0.0,)
            + tuple(float(k) for k in range(1, len(right) + 1)),
            tuple(-sum(left[:k]) for k in range(len(left), 0, -1)) + (0.0,)
            + tuple(sum(right[:k]) for k in range(1, len(right) + 1)),
        ),
        st.lists(st.floats(0.2, 3.0), min_size=2, max_size=3),
        st.lists(st.floats(0.2, 3.0), min_size=2, max_size=3),
    ),
)


@st.composite
def _sweep_cases(draw):
    """(system, p, q, grid): a ring or a random tree plus up to four chords
    on 3-12 nodes, randomly oriented, with mixed monotone edges."""
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):
        pairs = [(k, k % n + 1) for k in range(1, n + 1)]
    else:
        tree = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
        chords = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        pairs = sorted(set(tree) | set(draw(st.lists(st.sampled_from(chords), max_size=4))))
    edges = tuple(
        Edge(k + 1, *((b, a) if draw(st.booleans()) else (a, b)))
        for k, (a, b) in enumerate(pairs)
    )
    fns = draw(st.lists(_sweep_edges, min_size=len(edges), max_size=len(edges)))
    p, q = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    grid = GridSpec(draw(st.floats(0.5, 20.0)), draw(st.sampled_from([3, 5, 9, 21])))
    return NetworkSystem(Graph(n, edges), [Identity()] * n, fns), p, q, grid


@given(case=_sweep_cases())
@settings(max_examples=40, deadline=None)
def test_sweep_matches_reference_replay(case):
    net, p, q, grid = case
    try:
        table = equivalent_edge_function(net, p, q, grid)
    except NoConvergence:
        assume(False)
    mus, worst = _reference_sweep(net, p, q, grid)
    assert table.mus.tobytes() == mus.tobytes()
    assert table.max_tellegen_residual == worst


def test_table_csv_roundtrip_and_reuse(series_network, tmp_path):
    table = equivalent_edge_function(series_network, 1, 3, GridSpec(10.0, 21))
    buf = io.StringIO()
    table.save_csv(buf)
    path = tmp_path / "eq.csv"
    path.write_text(buf.getvalue())
    fn = SampledTable.load_csv(path)
    spacing = table.zetas[1] - table.zetas[0]
    for z in np.linspace(-9.5, 9.5, 40):
        slope = abs(fn.derivative(z))
        assert abs(fn(z) - table(z)) <= spacing * max(slope, 1e-12) + 1e-12


def test_effective_resistance_values(triangle_unit_network):
    g_series = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    assert effective_resistance(g_series, [0.5, 1.0], 1, 3) == pytest.approx(3.0)
    tri = triangle_unit_network.graph
    assert effective_resistance(tri, [1.0, 1.0, 1.0], 1, 3) == pytest.approx(2 / 3)
    assert effective_resistance(tri, [1.0, 1.0, 1.0], 2, 2) == 0.0


def test_effective_resistance_validation():
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    with pytest.raises(ValidationError):
        effective_resistance(g, [1.0, -1.0], 1, 3)
    with pytest.raises(DimensionMismatch):
        effective_resistance(g, [1.0], 1, 3)
    disconnected = Graph(4, (Edge(1, 1, 2), Edge(2, 3, 4)))
    with pytest.raises(Disconnected):
        effective_resistance(disconnected, [1.0, 1.0], 1, 3)


def test_tellegen_residual_examples(series_network):
    op = solve_operating_point(series_network, 1, 3, 3.0)
    scale = np.linalg.norm(op.mu_bar) * np.linalg.norm(op.zeta_bar)
    assert tellegen_residual(op) <= 1e-9 * scale
    # hand values: tensions (2, 1, 3), flows (1, 1, -1)
    assert float(np.array([1, 1, -1]) @ np.array([2, 1, 3])) == 0.0
    op0 = solve_operating_point(series_network, 1, 3, 0.0)
    assert tellegen_residual(op0) == 0.0


def test_solved_flows_orthogonal_to_any_potential_tension(triangle_unit_network):
    # Flows satisfying the current law annihilate E^T y for every y.
    net = triangle_unit_network
    op = solve_operating_point(net, 1, 3, 2.0)
    E_aug = np.column_stack([incidence(net.graph), [1.0, 0.0, -1.0]])
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.uniform(-10, 10, size=3)
        zeta_any = E_aug.T @ y
        assert abs(float(op.mu_bar @ zeta_any)) <= 1e-9 * (1 + np.abs(zeta_any).max())


def test_cocontent_minimality_against_random_feasible_points():
    rng = np.random.default_rng(12)
    instances = [
        (dz_linear_series(), 1, 3, 3.0),
        (dz_linear_series(), 1, 3, -7.0),
    ]
    g4 = Graph(4, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 4), Edge(4, 1, 3)))
    net4 = NetworkSystem(
        g4, [Identity()] * 4,
        [Linear(1.0), DeadZone(2.0, 0.5), PowerSign(1.5, 0.5), Linear(0.25)],
    )
    instances.append((net4, 1, 4, 5.0))
    for net, p, q, zpq in instances:
        op = solve_operating_point(net, p, q, zpq)
        f_star = total_cocontent(net, op.zeta)
        for _ in range(50):
            y = rng.uniform(-2 * abs(zpq), 2 * abs(zpq), size=net.node_count)
            y[p - 1] = zpq
            y[q - 1] = 0.0
            f_rand = total_cocontent(net, net.tension(y))
            assert f_star <= f_rand + 1e-12 * (1.0 + abs(f_rand))


def grid_search_minimum(net, p, q, zpq, half, step):
    """Brute-force oracle: exhaustive scan of the free potentials."""
    free = [i for i in range(net.node_count) if i not in (p - 1, q - 1)]
    axes = [np.arange(-half, half + step / 2, step) for _ in free]
    best, best_y = np.inf, None
    if len(free) == 1:
        ys = np.tile([zpq, 0.0, 0.0], (axes[0].size, 1))
        ys[:, free[0]] = axes[0]
        vals = [total_cocontent(net, net.tension(y)) for y in ys]
        k = int(np.argmin(vals))
        return vals[k], ys[k]
    grids = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1)
    y = np.zeros(net.node_count)
    y[p - 1] = zpq
    for row in flat:
        y[free] = row
        v = total_cocontent(net, net.tension(y))
        if v < best:
            best, best_y = v, y.copy()
    return best, best_y


def test_grid_search_brackets_solver_minimum():
    # one free node
    net = dz_linear_series()
    zpq = 3.0
    op = solve_operating_point(net, 1, 3, zpq)
    n_scale = max(abs(zpq), 1.0)
    step = n_scale / 500.0
    best, best_y = grid_search_minimum(net, 1, 3, zpq, 2 * n_scale, step)
    assert abs(best_y[1] - op.y[1]) <= step
    assert total_cocontent(net, op.zeta) <= best + 1e-12

    # two free nodes, coarser scan for runtime
    g4 = Graph(4, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 4)))
    net4 = NetworkSystem(
        g4, [Identity()] * 4, [Linear(1.0), DeadZone(1.0, 1.0), Linear(0.5)]
    )
    zpq = 2.0
    op4 = solve_operating_point(net4, 1, 4, zpq)
    step = max(abs(zpq), 1.0) / 100.0
    best, best_y = grid_search_minimum(net4, 1, 4, zpq, 2 * zpq, step)
    assert np.max(np.abs(best_y[[1, 2]] - op4.y[[1, 2]])) <= step
    assert total_cocontent(net4, op4.zeta) <= best + 1e-12


def test_minimum_cocontent_equals_equivalent_table_cocontent():
    # the collapsed two-terminal description stores the same energy
    for net, zpq in ((dz_linear_series(), 3.0), (dz_linear_series(), 5.5)):
        op = solve_operating_point(net, 1, 3, zpq)
        table = equivalent_edge_function(net, 1, 3, GridSpec(8.0, 1601))
        direct = total_cocontent(net, op.zeta)
        via_table = table.as_edge_function().cocontent(zpq)
        assert via_table == pytest.approx(direct, rel=1e-6)


def test_linear_tables_match_effective_resistance():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if (a, b) not in edges]
        rng.shuffle(pairs)
        edges += pairs[:2]
        g = Graph(n, tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(edges)))
        w = rng.uniform(0.1, 5.0, size=len(edges))
        net = NetworkSystem(g, [Identity()] * n, [Linear(float(v)) for v in w])
        p, q = 1, n
        r = effective_resistance(g, w, p, q)
        table = equivalent_edge_function(net, p, q, GridSpec(50.0, 101))
        np.testing.assert_allclose(table.mus, table.zetas / r, atol=1e-8)


def test_terminal_validation(series_network):
    with pytest.raises(ValidationError):
        solve_operating_point(series_network, 1, 1, 1.0)
    with pytest.raises(ValidationError):
        solve_operating_point(series_network, 0, 3, 1.0)
    with pytest.raises(DimensionMismatch):
        total_cocontent(series_network, np.zeros(3))


def _ring_edge(kind, w, x, w_dz):
    """A ring edge function and the inverse of its (odd, increasing) flow law."""
    if kind == "power_sign":
        return PowerSign(w, x), lambda mu: math.copysign((abs(mu) / w) ** (1 / x), mu)
    if kind == "linear":
        return Linear(w), lambda mu: mu / w

    def inverse(mu):  # linear w plus a dead zone of weight w_dz and band x
        m = abs(mu)
        return math.copysign(m / w if m <= w * x else (m + w_dz * x) / (w + w_dz), mu)

    return Sum((Linear(w), DeadZone(w_dz, x))), inverse


def _chain_flow(inverses, zeta):
    """Flow through a series chain at total tension zeta: the root of
    sum_k psi_k^-1(mu) = zeta, found by bisection."""
    def tension(mu):
        return sum(inv(mu) for inv in inverses)

    lo, hi = -1.0, 1.0
    while tension(hi) < zeta:
        hi *= 2.0
    while tension(lo) > zeta:
        lo *= 2.0
    while hi - lo > 1e-14 * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tension(mid) < zeta else (lo, mid)
    return 0.5 * (lo + hi)


_ring_edges = st.tuples(
    st.sampled_from(["power_sign", "linear", "dead_zone"]),
    st.floats(0.5, 3.0), st.floats(0.3, 0.9), st.floats(0.5, 2.0),
)


@given(n=st.integers(3, 60), data=st.data(), half_width=st.floats(0.5, 30.0))
@settings(max_examples=25, deadline=None)
def test_ring_equivalent_function_matches_series_parallel_oracle(n, data, half_width):
    # On a ring the terminals split the edges into two chains in parallel;
    # each chain's flow solves the 1-D series equation and the two add.
    edges = data.draw(st.lists(_ring_edges, min_size=n, max_size=n))
    p, q = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(k + 1, (k + 1) % n + 1) for k in range(n)]
    graph = Graph(n, tuple(
        Edge(k + 1, *(b, a) if flip else (a, b))
        for k, ((a, b), flip) in enumerate(zip(pairs, flips))
    ))
    fns, inverses = zip(*(_ring_edge(*e) for e in edges))
    net = NetworkSystem(graph, [Identity()] * n, list(fns))
    # edge k joins nodes k and k + 1, so walking forward from p to q crosses
    # edges p .. q - 1 (cyclically) and the other chain holds the rest
    forward = {(p - 1 + j) % n for j in range((q - p) % n)}
    chains = ([inverses[k] for k in forward],
              [inverses[k] for k in range(n) if k not in forward])
    table = equivalent_edge_function(net, p, q, GridSpec(half_width, 9))
    expected = [sum(_chain_flow(c, float(z)) for c in chains) for z in table.zetas]
    np.testing.assert_allclose(table.mus, expected, rtol=1e-9, atol=1e-8)


def test_forty_node_power_linear_ring_converges():
    # Alternating power-law and linear edges drawn from seed 1 in the
    # benchmark generator's ranges: chord-only Newton steps take 1474
    # iterations at zeta = 1 and stall at zeta = 2 and 3.
    rng = random.Random(1)
    pairs = sorted((min(k, (k + 1) % 40), max(k, (k + 1) % 40)) for k in range(40))
    graph = Graph(40, tuple(
        Edge(k + 1, *((a + 1, b + 1) if rng.random() < 0.5 else (b + 1, a + 1)))
        for k, (a, b) in enumerate(pairs)
    ))
    draw = lambda lo, hi: round(rng.uniform(lo, hi), 4)  # noqa: E731
    fns = [PowerSign(draw(0.5, 3.0), draw(0.3, 0.9)) if k % 2 == 0
           else Linear(draw(0.5, 2.0)) for k in range(40)]
    net = NetworkSystem(graph, [Identity()] * 40, fns)
    flows = [solve_operating_point(net, 1, 20, z).terminal_flow for z in (1, 2, 3)]
    assert 0.0 < flows[0] < flows[1] < flows[2]


@pytest.mark.parametrize("samples", [2001, 401])
def test_eleven_node_sweep_takes_few_newton_iterations(
    monkeypatch, eleven_positive_network, samples
):
    # 2001 samples: the shipped table; 401: the sweep of ``predict --grid-m
    # 401`` on f1-f3.  Chord-only Newton steps take 54 and 58 per sample.
    iterations = []

    def counted(*args):
        op = solve_operating_point(*args)
        iterations.append(op.iterations)
        return op

    monkeypatch.setattr(circuit, "solve_operating_point", counted)
    equivalent_edge_function(eleven_positive_network, 1, 4, GridSpec(100.0, samples))
    assert len(iterations) == samples + 1  # zero is solved once per half-sweep
    assert sum(iterations) / len(iterations) <= 10.0

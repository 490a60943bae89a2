"""Operating points, equivalent edge functions, effective resistance."""

import io

import numpy as np
import pytest

from signet import circuit
from signet.circuit import (
    check_equivalent_edge_preconditions,
    effective_resistance,
    equivalent_edge_function,
    solve_operating_point,
    tellegen_residual,
    total_cocontent,
)
from signet.edgefn import DeadZone, GridSpec, Linear, PowerSign, SampledTable
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

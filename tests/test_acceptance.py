"""End-to-end acceptance checks for the toolkit.

Each check prints one `ACCEPTANCE <n> PASS|FAIL <label>` line (run with
`pytest tests/test_acceptance.py -v -s` to see them stream).  Tolerances are
fixed here, not calibrated elsewhere; the heavyweight artifacts are built
once per module and shared, with wall-clock budgets asserted where they
apply.
"""

import contextlib
import time

import numpy as np
import pytest

from signet.analysis import (
    classify_edges,
    distance_bounds,
    equilibria_membership,
    equivalent_passivity_condition,
    signed_laplacian_min_eigenvalue,
)
from signet.circuit import (
    effective_resistance,
    equivalent_edge_function,
    solve_operating_point,
    tellegen_residual,
)
from signet.edgefn import DeadZone, GridSpec, Linear, Negated, SampledTable
from signet.graph import Edge, Graph, incidence
from signet.network import NetworkSystem
from signet.nodes import Identity
from signet.sim import (
    OutcomeKind,
    SimConfig,
    classify_outcome,
    simulate,
)

from conftest import ELEVEN_X0, make_eleven_negative
from oracles import (
    cocontent_profile,
    quadratic_storage_profile,
    strict_extremum_violations,
)


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS {label}")


# ---------------------------------------------------------------------------
# shared heavy artifacts, built once and timed honestly


@pytest.fixture(scope="module")
def series_solution(series_network):
    t0 = time.perf_counter()
    op = solve_operating_point(series_network, 1, 3, 3.0)
    elapsed = time.perf_counter() - t0
    return {"op": op, "elapsed": elapsed}


def _random_connected(rng, n):
    edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
             if (a, b) not in edges]
    rng.shuffle(pairs)
    extra = int(rng.integers(0, 3))
    edges += pairs[:extra]
    return edges, pairs[extra:]


@pytest.fixture(scope="module")
def linear_suite():
    """20 random all-linear networks with their equivalent-edge tables."""
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    cases = []
    while len(cases) < 20:
        n = int(rng.integers(3, 9))
        edges, spare = _random_connected(rng, n)
        if not spare:
            continue
        p, q = spare[int(rng.integers(0, len(spare)))]
        w = rng.uniform(0.1, 5.0, size=len(edges))
        g = Graph(n, tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(edges)))
        net = NetworkSystem(g, [Identity()] * n, [Linear(float(v)) for v in w])
        r = effective_resistance(g, w, p, q)
        table = equivalent_edge_function(net, p, q, GridSpec(100.0, 2001))
        cases.append({"net": net, "graph": g, "w": w, "p": p, "q": q,
                      "r": r, "table": table})
    return {"cases": cases, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def eleven_suite(eleven_positive_network):
    """Eleven-node scenario: table, the three candidate edges, all three runs."""
    t0 = time.perf_counter()
    table = equivalent_edge_function(
        eleven_positive_network, 1, 4, GridSpec(100.0, 2001)
    )
    z = table.zetas
    clamped = np.interp(np.clip(z, -9.0, 9.0), z, table.mus)
    f1 = Negated(Linear(0.05))
    f2 = Negated(Linear(1.0))
    f3 = Negated(SampledTable(tuple(z), tuple(clamped)))

    runs = {}
    cfgs = {
        "f1": SimConfig(t_end=60.0, dt=5e-4, record_every=200,
                        u_tol=1.0, window=10.0, cluster_tol=0.01),
        "f2": SimConfig(t_end=30.0, dt=1e-3, record_every=100,
                        u_tol=1.0, window=10.0, cluster_tol=0.01,
                        blowup_threshold=1e6),
        "f3": SimConfig(t_end=150.0, dt=1e-3, record_every=100,
                        u_tol=0.5, window=80.0, cluster_tol=0.05),
    }
    for name, fn in (("f1", f1), ("f2", f2), ("f3", f3)):
        net = make_eleven_negative(fn)
        runs[name] = {
            "net": net,
            "fn": fn,
            "cfg": cfgs[name],
            "tr": simulate(net, ELEVEN_X0, cfgs[name]),
        }
    return {
        "table": table,
        "positive_net": eleven_positive_network,
        "runs": runs,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def threshold_runs(series_network):
    """Series chain closed by a linear negative edge at three weights."""
    out = {}
    for name, w in (("below", -0.25), ("boundary", -1 / 3)):
        g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
        net = NetworkSystem(
            g, [Identity()] * 3, [Linear(0.5), Linear(1.0), Linear(w)]
        )
        cfg = SimConfig(t_end=400.0, dt=2e-3, record_every=100, u_tol=1e-9,
                        window=1.0, cluster_tol=1e-3, blowup_threshold=1e6)
        out[name] = {"net": net, "w": w, "cfg": cfg,
                     "tr": simulate(net, np.array([4.0, 0.0, -1.0]), cfg)}
    table = equivalent_edge_function(series_network, 1, 3, GridSpec(100.0, 401))
    out["series_table"] = table
    return out


# ---------------------------------------------------------------------------


def test_01_series_operating_point_exact(series_network, series_solution):
    with criterion(1, "series network operating point, exact values"):
        op = series_solution["op"]
        assert series_solution["elapsed"] < 1.0
        np.testing.assert_allclose(op.zeta, [2.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(op.mu, [1.0, 1.0], atol=1e-9)
        assert abs(float(series_network.cocontent(op.zeta).sum()) - 1.5) <= 1e-9
        subopt = float(series_network.cocontent(np.array([1.0, 2.0])).sum())
        assert abs(subopt - 2.25) <= 1e-9


def test_02_linear_threshold_law():
    with criterion(2, "linear threshold law on 100 random graphs"):
        rng = np.random.default_rng(20260810)
        t0 = time.perf_counter()
        for trial in range(100):
            n = int(rng.integers(3, 9))
            edges, spare = _random_connected(rng, n)
            while not spare:
                n = int(rng.integers(3, 9))
                edges, spare = _random_connected(rng, n)
            p, q = spare[int(rng.integers(0, len(spare)))]
            w_pos = rng.uniform(0.1, 5.0, size=len(edges))
            g_pos = Graph(n, tuple(Edge(i + 1, a, b)
                                   for i, (a, b) in enumerate(edges)))
            r = effective_resistance(g_pos, w_pos, p, q)
            g_full = Graph(n, g_pos.edges + (Edge(len(edges) + 1, p, q),))

            # bisection over the negative weight for the eigenvalue boundary
            lo, hi = -4.0 / r, 0.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lam = signed_laplacian_min_eigenvalue(
                    g_full, np.append(w_pos, mid)
                )
                if lam > 0:
                    hi = mid
                else:
                    lo = mid
            assert abs(abs(0.5 * (lo + hi)) - 1.0 / r) < 1e-6

            # simulation outcome must match the eigenvalue sign
            w_bar = -0.5 / r if trial % 2 == 0 else -2.0 / r
            weights = np.append(w_pos, w_bar)
            lam = signed_laplacian_min_eigenvalue(g_full, weights)
            net = NetworkSystem(
                g_full, [Identity()] * n, [Linear(float(v)) for v in weights]
            )
            E = incidence(g_full)
            L = (E * weights) @ E.T
            lam_max = float(np.abs(np.linalg.eigvalsh(L)).max())
            dt = min(1.5 / lam_max, 0.05)
            x0 = rng.uniform(-1, 1, size=n)
            if lam < 0:
                basis = np.linalg.qr(np.eye(n) - np.ones((n, n)) / n)[0][:, : n - 1]
                vals, vecs = np.linalg.eigh(basis.T @ L @ basis)
                x0 = x0 + 0.5 * (basis @ vecs[:, 0])
                t_end = 25.0 / abs(lam) + 5.0
            else:
                t_end = np.log(2e4 * n) / lam + 5.0
            cfg = SimConfig(
                t_end=float(t_end), dt=float(dt), record_every=1000,
                u_tol=1e-7, window=max(2 * dt, 1.0), cluster_tol=1e-3,
                blowup_threshold=1e6,
            )
            tr = simulate(net, x0, cfg)
            out = classify_outcome(net, tr, cfg)
            expected = (
                OutcomeKind.AGREEMENT if lam > 0 else OutcomeKind.DIVERGENCE
            )
            assert out.kind is expected, f"trial {trial}: {out.kind} vs {lam}"
        assert time.perf_counter() - t0 < 60.0


def test_03_equivalent_tables_match_effective_resistance(linear_suite):
    with criterion(3, "linear equivalent tables match 1/r over [-100, 100]"):
        assert linear_suite["elapsed"] < 30.0
        for case in linear_suite["cases"]:
            table = case["table"]
            line = table.zetas / case["r"]
            assert np.max(np.abs(table.mus - line)) <= 1e-8


def test_04_six_node_agreement_and_clustering(
    six_agreement_network, six_agreement_run, six_sim_cfg,
    six_clustering_network, six_clustering_run,
):
    with criterion(4, "six-node network: agreement, then two clusters"):
        out = classify_outcome(six_agreement_network, six_agreement_run, six_sim_cfg)
        assert out.kind is OutcomeKind.AGREEMENT
        assert six_agreement_run.times[-1] <= 50.0
        assert out.spread < 1e-3

        out2 = classify_outcome(
            six_clustering_network, six_clustering_run, six_sim_cfg
        )
        assert out2.kind is OutcomeKind.CLUSTERING
        assert [c.nodes for c in out2.clusters] == [(1, 6), (2, 3, 4, 5)]
        gap = out2.clusters[0].value - out2.clusters[1].value
        assert 0.0 < gap <= 1.0
        # the path-interval bracket for the bridging pair is [-1, 1]
        lo, hi = distance_bounds(six_clustering_network, 1, 2)
        assert (lo, hi) == (-1.0, 1.0)
        final = six_clustering_run.final_state
        assert lo - six_sim_cfg.cluster_tol <= final[0] - final[1] <= hi + six_sim_cfg.cluster_tol


def test_05_eleven_node_scenarios(eleven_suite):
    with criterion(5, "eleven-node attack: agreement / divergence / 4 clusters"):
        assert eleven_suite["elapsed"] < 120.0
        table = eleven_suite["table"]
        runs = eleven_suite["runs"]

        r1 = runs["f1"]
        out1 = classify_outcome(r1["net"], r1["tr"], r1["cfg"])
        assert out1.kind is OutcomeKind.AGREEMENT

        r2 = runs["f2"]
        assert r2["tr"].blowup
        out2 = classify_outcome(r2["net"], r2["tr"], r2["cfg"])
        assert out2.kind is OutcomeKind.DIVERGENCE

        r3 = runs["f3"]
        out3 = classify_outcome(r3["net"], r3["tr"], r3["cfg"])
        assert out3.kind is OutcomeKind.CLUSTERING
        assert len(out3.clusters) == 4
        assert [c.nodes for c in out3.clusters] == [
            (1, 5, 6, 7), (2, 8, 9), (3, 10), (4, 11)
        ]

        # the output span settles at the boundary of the combined zero set
        report = equivalent_passivity_condition(
            eleven_suite["positive_net"], r3["fn"], 1, 4, GridSpec(100.0, 2001),
        )
        assert report.holds and not report.strict
        assert np.array_equal(report.table.mus, table.mus)
        tol = 1e-9 * (1.0 + report.zetas**2)
        zero_run = np.abs(report.margin) <= tol
        boundary = float(np.max(np.abs(report.zetas[zero_run])))
        assert boundary == pytest.approx(9.0)
        final = r3["tr"].final_state
        span = float(final.max() - final.min())
        assert abs(span - boundary) <= 0.02 * boundary

        # outputs along the cycle decrease strictly from one terminal to the
        # other through the strictly positive path
        y = final
        assert y[0] > y[1] > y[2] > y[3]


def test_06_tellegen_identity(series_solution, linear_suite, eleven_suite):
    with criterion(6, "orthogonality of flows and tensions at operating points"):
        op = series_solution["op"]
        scale = np.linalg.norm(op.mu_bar) * np.linalg.norm(op.zeta_bar)
        assert tellegen_residual(op) <= 1e-9 * scale
        for case in linear_suite["cases"]:
            assert case["table"].max_tellegen_residual <= 1e-9
        assert eleven_suite["table"].max_tellegen_residual <= 1e-9


def test_07_cocontent_minimality_and_grid_bracket():
    with criterion(7, "cocontent minimality and grid-search bracketing"):
        rng = np.random.default_rng(1234)

        # instance A: one free node, dead zone in series with a resistor
        g3 = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
        netA = NetworkSystem(
            g3, [Identity()] * 3, [DeadZone(1.0, 1.0), Linear(1.0)]
        )
        zpqA = 3.0
        opA = solve_operating_point(netA, 1, 3, zpqA)

        # instance B: two free nodes on a path of three distinct edges
        g4 = Graph(4, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 4)))
        netB = NetworkSystem(
            g4, [Identity()] * 4,
            [Linear(1.0), DeadZone(1.0, 1.0), Linear(0.5)],
        )
        zpqB = 2.0
        opB = solve_operating_point(netB, 1, 4, zpqB)

        for net, op, zpq, p, q in (
            (netA, opA, zpqA, 1, 3), (netB, opB, zpqB, 1, 4)
        ):
            f_star = float(net.cocontent(op.zeta).sum())
            for _ in range(50):
                y = rng.uniform(-2 * abs(zpq), 2 * abs(zpq), size=net.node_count)
                y[p - 1] = zpq
                y[q - 1] = 0.0
                f_rand = float(net.cocontent(net.tension(y)).sum())
                assert f_star <= f_rand + 1e-12 * (1 + abs(f_rand))

        # grid oracle, one free coordinate at resolution N/500
        N = max(abs(zpqA), 1.0)
        step = N / 500.0
        grid = np.arange(-2 * N, 2 * N + step / 2, step)
        # hand-written cocontents keep the oracle independent of the library
        vals = (
            0.5 * np.maximum(np.abs(zpqA - grid) - 1.0, 0.0) ** 2
            + 0.5 * grid**2
        )
        best = grid[int(np.argmin(vals))]
        assert abs(best - opA.y[1]) <= step
        assert float(netA.cocontent(opA.zeta).sum()) <= float(vals.min()) + 1e-12

        # grid oracle, two free coordinates at resolution N/500
        N = max(abs(zpqB), 1.0)
        step = N / 500.0
        axis = np.arange(-2 * N, 2 * N + step / 2, step)
        y2, y3 = np.meshgrid(axis, axis, indexing="ij")
        vals = (
            0.5 * (zpqB - y2) ** 2
            + 0.5 * np.maximum(np.abs(y2 - y3) - 1.0, 0.0) ** 2
            + 0.25 * y3**2
        )
        k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        assert abs(axis[k[0]] - opB.y[1]) <= step
        assert abs(axis[k[1]] - opB.y[2]) <= step
        assert float(netB.cocontent(opB.zeta).sum()) <= float(vals.min()) + 1e-12


def _single_non_strict_identity(net, fn_hat, tension_on_hat, table):
    """|psi_hat + equivalent| at the settled tension of the special edge."""
    eq_fn = table.as_edge_function()
    return abs(fn_hat(tension_on_hat) + eq_fn(tension_on_hat))


def test_08_steady_state_theorem_suite(
    six_agreement_network, six_agreement_run,
    six_clustering_network, six_clustering_run, six_sim_cfg,
    threshold_runs, eleven_suite,
):
    with criterion(8, "steady-state properties on every converged run"):
        grid = GridSpec(100.0, 2001)
        converged = [
            (six_agreement_network, six_agreement_run, six_sim_cfg, None),
            (six_clustering_network, six_clustering_run, six_sim_cfg, None),
            (threshold_runs["below"]["net"], threshold_runs["below"]["tr"],
             threshold_runs["below"]["cfg"], (3, threshold_runs["series_table"])),
            (threshold_runs["boundary"]["net"], threshold_runs["boundary"]["tr"],
             threshold_runs["boundary"]["cfg"], (3, threshold_runs["series_table"])),
            (eleven_suite["runs"]["f1"]["net"], eleven_suite["runs"]["f1"]["tr"],
             eleven_suite["runs"]["f1"]["cfg"], (14, eleven_suite["table"])),
            (eleven_suite["runs"]["f3"]["net"], eleven_suite["runs"]["f3"]["tr"],
             eleven_suite["runs"]["f3"]["cfg"], (14, eleven_suite["table"])),
        ]
        for net, tr, cfg, special in converged:
            final = tr.final_state
            zeta = net.tension(final)
            classes = classify_edges(net, grid)
            tol = cfg.cluster_tol

            # settled tensions on non-positive edges inside their zero sets
            # force every tension into its zero set
            member = equilibria_membership(net, zeta, tol)
            premise = all(
                member[e.id - 1]
                for e, c in zip(net.graph.edges, classes)
                if not c.is_positive and member[e.id - 1] is not None
            )
            if premise:
                assert all(m is not False for m in member)

            # nodes touching only strictly positive edges never stick out
            sp = [e.id for e, c in zip(net.graph.edges, classes)
                  if c.is_strictly_positive]
            assert strict_extremum_violations(net, final, sp, tol) == []

            # flow balance between the special edge and the collapsed rest
            if special is not None:
                hat_id, table = special
                e = net.graph.edge(hat_id)
                z_hat = float(final[e.tail - 1] - final[e.head - 1])
                fn_hat = net.edge_functions[hat_id - 1]
                assert _single_non_strict_identity(net, fn_hat, z_hat, table) < 1e-3


def test_09_lyapunov_and_cocontent_monotonicity(
    six_agreement_network, six_agreement_run,
    six_clustering_network, six_clustering_run,
    threshold_runs, eleven_suite,
):
    with criterion(9, "per-step decrease of storage and cocontent profiles"):
        # positive networks of integrators: storage against the final state
        for tr in (six_agreement_run, six_clustering_run):
            V = quadratic_storage_profile(tr)
            assert np.all(np.diff(V) <= 1e-9)
        # runs covered by the equivalent-passivity condition: total cocontent
        cocontent_runs = [
            (six_agreement_network, six_agreement_run),
            (six_clustering_network, six_clustering_run),
            (threshold_runs["below"]["net"], threshold_runs["below"]["tr"]),
            (threshold_runs["boundary"]["net"], threshold_runs["boundary"]["tr"]),
            (eleven_suite["runs"]["f1"]["net"], eleven_suite["runs"]["f1"]["tr"]),
            (eleven_suite["runs"]["f3"]["net"], eleven_suite["runs"]["f3"]["tr"]),
        ]
        for net, tr in cocontent_runs:
            V = cocontent_profile(net, tr)
            assert np.all(np.diff(V) <= 1e-9)

"""Shared fixtures: the reference networks used across the suite.

The heavyweight artifacts (equivalent-edge sweeps, long simulations) are
session-scoped so each is computed once; tests treat them as read-only.
"""

import math
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from signet.edgefn import (
    DeadZone,
    EquilibriaInterval,
    GridSpec,
    Linear,
    MonotonicityReport,
    Negated,
    PowerSign,
    SampledTable,
    SignClass,
    SignLabel,
    Sum,
)
from signet.errors import NotAnInterval
from signet.graph import Edge, Graph
from signet.network import NetworkSystem
from signet.nodes import Identity
from signet.sim import SimConfig, simulate
from signet import circuit

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ELEVEN_W = [3, 2, 4, 1, 2, 1, 3, 2, 2, 1, 1, 1, 2]
ELEVEN_A = [0.4, 0.5, 0.2, 0.8, 0.4, 0.4, 0.5, 0.5, 0.5, 0.6, 0.8, 0.2, 0.5]
ELEVEN_EDGES = [
    (1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 1, 5), (5, 1, 6), (6, 1, 7),
    (7, 2, 8), (8, 2, 9), (9, 3, 10), (10, 4, 11), (11, 5, 6), (12, 6, 7),
    (13, 8, 9),
]
ELEVEN_X0 = np.array([20, 4, -14, -22, 3, 8, 15, 13, 6, 1, -12], dtype=float)

SIX_EDGES = [
    (1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5), (5, 1, 6),
    (6, 1, 3), (7, 2, 4), (8, 3, 5), (9, 2, 6),
]
SIX_X0 = np.array([3, 1, -3, -1, 0, -2], dtype=float)


# --- per-edge reference certificates -----------------------------------------
# One grid check per function, as the library computed them before networks
# were classified a kind group at a time: the oracle that the grouped
# certificates must match exactly.


def reference_sign_class(f, grid) -> SignClass:
    grid.validate(min_samples=101)
    z = grid.points()
    vals = f(z)
    p = z * vals
    scale = 1.0 + z * z
    zero = np.abs(p) <= 1e-12 * scale
    off_origin = np.abs(z) > 1e-9
    pos_ok = bool(np.all(p >= -1e-12 * scale))
    neg_ok = bool(np.all(p <= 1e-12 * scale))

    def margin_positive() -> float:
        ratios = p[off_origin] / (z[off_origin] ** 2)
        return float(ratios.min()) if ratios.size else 0.0

    def margin_negative() -> float:
        ratios = -p[off_origin] / (z[off_origin] ** 2)
        return float(ratios.min()) if ratios.size else 0.0

    if pos_ok and neg_ok:
        return SignClass(SignLabel.POSITIVE, 0.0, float(z[-1]), grid)
    if pos_ok:
        eps = margin_positive()
        if eps > 0.0:
            return SignClass(SignLabel.STRICTLY_POSITIVE, eps, None, grid)
        witness_idx = np.flatnonzero(zero & off_origin)
        witness = float(z[witness_idx[0]]) if witness_idx.size else None
        return SignClass(SignLabel.POSITIVE, 0.0, witness, grid)
    if neg_ok:
        eps = margin_negative()
        if eps > 0.0:
            return SignClass(SignLabel.STRICTLY_NEGATIVE, eps, None, grid)
        witness_idx = np.flatnonzero(zero & off_origin)
        witness = float(z[witness_idx[0]]) if witness_idx.size else None
        return SignClass(SignLabel.NEGATIVE, 0.0, witness, grid)
    witness = float(z[int(np.argmin(p))])
    return SignClass(SignLabel.INDEFINITE, 0.0, witness, grid)


def reference_monotonicity(f, grid) -> MonotonicityReport:
    grid.validate(min_samples=101)
    z = grid.points()
    vals = f(z)
    diffs = np.diff(vals)
    steps = np.diff(z)
    tol = 1e-12 * (1.0 + np.abs(vals[:-1]) + np.abs(vals[1:]))
    nondecreasing = bool(np.all(diffs >= -tol))
    strictly = bool(np.all(diffs > tol))
    min_slope = float((diffs / steps).min()) if diffs.size else 0.0
    k = max(1, grid.samples // 10)
    right_grows = vals[-1] > vals[-1 - k] + 1e-12 and vals[-1] > 1e-12
    left_grows = vals[0] < vals[k] - 1e-12 and vals[0] < -1e-12
    return MonotonicityReport(
        nondecreasing=nondecreasing,
        strictly=strictly,
        min_slope=min_slope,
        unbounded=bool(right_grows and left_grows),
        grid=grid,
    )


def reference_classify_edges(system, grid) -> tuple[SignClass, ...]:
    return tuple(reference_sign_class(f, grid) for f in system.edge_functions)


def reference_edge_monotonicity(system, grid) -> tuple[MonotonicityReport, ...]:
    return tuple(reference_monotonicity(f, grid) for f in system.edge_functions)


# --- reference zero sets -----------------------------------------------------
# The two zero-set routines as the library had them before they shared one:
# the knot walk of a sampled table and the grid scan with bisection.  Both
# grow the zero run around the origin and reject zeros elsewhere; only the
# table checks for sign changes, and neither does so when no sample around
# the origin is zero.  On functions whose only sign change is at the origin
# they are right, and the shared routine must match them there.  Both
# follow the corrected end rules: a table's run that holds its first (last)
# two knots ends at -inf (+inf), since the flat end segment extends, and a
# nonzero end knot whose end segment heads toward zero makes the extension
# cross zero, so the table is NotAnInterval; a scan cannot see past its ends,
# so a run that reaches one is NotAnInterval, and a linear map built from
# Linear, Negated and Sum is decided by its weight.


def reference_table_equilibria(table) -> EquilibriaInterval:
    vals = table.mus
    zero = [abs(v) <= 1e-12 for v in vals]
    # Beyond the first knot psi moves by -(vals[1] - vals[0]) per unit step,
    # beyond the last by vals[-1] - vals[-2].
    if (not zero[0] and (vals[1] - vals[0]) * vals[0] > 0) or (
        not zero[-1] and (vals[-1] - vals[-2]) * vals[-1] < 0
    ):
        raise NotAnInterval("an extended end segment crosses zero")
    i0 = min(bisect_right(table.zetas, 0.0), len(vals) - 1) - 1
    if not (zero[i0] or zero[i0 + 1]):
        return EquilibriaInterval(0.0, 0.0)
    lo = i0 if zero[i0] else i0 + 1
    hi = i0 + 1 if zero[i0 + 1] else i0
    while lo > 0 and zero[lo - 1]:
        lo -= 1
    while hi < len(vals) - 1 and zero[hi + 1]:
        hi += 1
    if all(zero):
        return EquilibriaInterval(-math.inf, math.inf)
    if any(zero[:lo]) or any(zero[hi + 1 :]):
        raise NotAnInterval("table has zeros away from the origin run")
    for a, b in zip(vals, vals[1:]):
        if a * b < 0 and not (abs(a) <= 1e-12 or abs(b) <= 1e-12):
            raise NotAnInterval("table crosses zero away from the origin run")
    lower = -math.inf if lo == 0 and hi > 0 else table.zetas[lo]
    upper = math.inf if hi == len(vals) - 1 and lo < hi else table.zetas[hi]
    return EquilibriaInterval(lower, upper)


def _linear_weight(f):
    """w when f is a linear map built from Linear, Negated and Sum."""
    if isinstance(f, Linear):
        return f.w
    if isinstance(f, Negated):
        w = _linear_weight(f.inner)
        return None if w is None else -w
    if isinstance(f, Sum):
        ws = [_linear_weight(t) for t in f.terms]
        return None if None in ws else sum(ws)
    return None


def reference_scan_equilibria(f, half_width=100.0, samples=8001) -> EquilibriaInterval:
    w = _linear_weight(f)
    if w is not None:
        return EquilibriaInterval(*((-math.inf, math.inf) if w == 0.0 else (0.0, 0.0)))
    z = np.linspace(-half_width, half_width, samples)
    vals = f(z)
    zero = np.abs(vals) <= 1e-12
    center = samples // 2
    if not zero[center]:
        return EquilibriaInterval(0.0, 0.0)
    lo = hi = center
    while lo > 0 and zero[lo - 1]:
        lo -= 1
    while hi < samples - 1 and zero[hi + 1]:
        hi += 1
    if np.any(zero[:lo]) or np.any(zero[hi + 1 :]):
        raise NotAnInterval("zero set is not a single interval around 0")
    if lo == 0 or hi == samples - 1:
        raise NotAnInterval("zeros reach the end of the scan")

    def refine(inside: float, outside: float) -> float:
        for _ in range(80):
            mid = 0.5 * (inside + outside)
            if abs(f(mid)) <= 1e-12:
                inside = mid
            else:
                outside = mid
        return inside

    lower = refine(float(z[lo]), float(z[lo - 1]))
    upper = refine(float(z[hi]), float(z[hi + 1]))
    return EquilibriaInterval(lower, upper)


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR


@pytest.fixture(scope="session")
def series_network() -> NetworkSystem:
    """Three-node chain: mu1 = zeta/2 and mu2 = zeta."""
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3)))
    return NetworkSystem(g, [Identity()] * 3, [Linear(0.5), Linear(1.0)])


@pytest.fixture(scope="session")
def triangle_unit_network() -> NetworkSystem:
    g = Graph(3, (Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 1, 3)))
    return NetworkSystem(g, [Identity()] * 3, [Linear(1.0)] * 3)


def make_six_node(first_edge_fn):
    g = Graph(6, tuple(Edge(*e) for e in SIX_EDGES))
    fns = (
        [first_edge_fn]
        + [Linear(1.0)] * 4
        + [DeadZone(1.0, 1.0)] * 4
    )
    return NetworkSystem(g, [Identity()] * 6, fns)


@pytest.fixture(scope="session")
def six_agreement_network() -> NetworkSystem:
    return make_six_node(Linear(1.0))


@pytest.fixture(scope="session")
def six_clustering_network() -> NetworkSystem:
    return make_six_node(DeadZone(1.0, 1.0))


@pytest.fixture(scope="session")
def six_sim_cfg() -> SimConfig:
    return SimConfig(
        t_end=200.0, dt=1e-3, record_every=100,
        u_tol=1e-6, window=1.0, cluster_tol=1e-3,
    )


@pytest.fixture(scope="session")
def six_agreement_run(six_agreement_network, six_sim_cfg):
    return simulate(six_agreement_network, SIX_X0, six_sim_cfg)


@pytest.fixture(scope="session")
def six_clustering_run(six_clustering_network, six_sim_cfg):
    return simulate(six_clustering_network, SIX_X0, six_sim_cfg)


@pytest.fixture(scope="session")
def eleven_positive_network() -> NetworkSystem:
    g = Graph(11, tuple(Edge(*e) for e in ELEVEN_EDGES))
    fns = [PowerSign(w, a) for w, a in zip(ELEVEN_W, ELEVEN_A)]
    return NetworkSystem(g, [Identity()] * 11, fns)


@pytest.fixture(scope="session")
def eleven_table(eleven_positive_network):
    """Equivalent edge function of the positive eleven-node network, 1 <-> 4."""
    return circuit.equivalent_edge_function(
        eleven_positive_network, 1, 4, GridSpec(100.0, 2001)
    )


def make_eleven_negative(psi_14):
    g = Graph(11, tuple(Edge(*e) for e in ELEVEN_EDGES) + (Edge(14, 1, 4),))
    fns = [PowerSign(w, a) for w, a in zip(ELEVEN_W, ELEVEN_A)] + [psi_14]
    return NetworkSystem(g, [Identity()] * 11, fns)


@pytest.fixture(scope="session")
def eleven_f1_network():
    return make_eleven_negative(Negated(Linear(0.05)))


@pytest.fixture(scope="session")
def eleven_f3_function(eleven_table):
    """Negated copy of the equivalent function, saturated at |zeta| = 9."""
    z = eleven_table.zetas
    clamped = np.interp(np.clip(z, -9.0, 9.0), z, eleven_table.mus)
    return Negated(SampledTable(tuple(z), tuple(clamped)))


@pytest.fixture(scope="session")
def eleven_f3_network(eleven_f3_function):
    return make_eleven_negative(eleven_f3_function)


@pytest.fixture(scope="session")
def eleven_f1_cfg():
    return SimConfig(
        t_end=60.0, dt=5e-4, record_every=200,
        u_tol=1.0, window=10.0, cluster_tol=0.01,
    )


@pytest.fixture(scope="session")
def eleven_f3_cfg():
    return SimConfig(
        t_end=150.0, dt=1e-3, record_every=100,
        u_tol=0.5, window=80.0, cluster_tol=0.05,
    )


@pytest.fixture(scope="session")
def eleven_f1_run(eleven_f1_network, eleven_f1_cfg):
    return simulate(eleven_f1_network, ELEVEN_X0, eleven_f1_cfg)


@pytest.fixture(scope="session")
def eleven_f3_run(eleven_f3_network, eleven_f3_cfg):
    return simulate(eleven_f3_network, ELEVEN_X0, eleven_f3_cfg)

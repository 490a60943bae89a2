"""Resistive-circuit layer: operating points, equivalent edge functions.

With the node inputs forced to zero the network is a nonlinear resistive
circuit.  Pinning two terminal potentials (y_p = zeta_pq, y_q = 0) and
minimizing the total cocontent over the free potentials yields the circuit's
operating point: the minimizer satisfies Kirchhoff's current law at every
free node, and the flow entering terminal p defines the equivalent edge
function of the two-terminal network, the nonlinear counterpart of the
inverse effective resistance.

The objective is convex whenever every edge function is monotonically
nondecreasing.  The solver takes full Newton steps on the exact edge slopes
while they halve the gradient (quadratic convergence away from power-law
kinks), else a chord-majorized (Kacanov-type) Newton step with an Armijo
backtracking line search, and a gradient step where the Hessian is
unavailable (dead-zone flats) or unbounded (power laws at zero tension).
Sweeps predict each sample by a secant through the previous two.  Only a
read of an operating point's degeneracy flag factorizes its Hessian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from . import edgefn as ef
from .errors import (
    Disconnected,
    DimensionMismatch,
    NoConvergence,
    ValidationError,
)
from .graph import Graph, is_connected, laplacian
from .network import NetworkSystem, ReducedLaplacian

# Derivatives beyond this are clamped when assembling the Newton system;
# power-law edges have infinite slope at zero tension and the clamp simply
# pins those tensions, which is where their optimum sits anyway.
_DERIV_CLAMP = 1e12
_ARMIJO_C = 1e-4
# Largest net flow at a free node of an accepted operating point.
_GRAD_TOL = 1e-10
_MAX_HALVINGS = 60
_MAX_ITER = 10_000


@dataclass(frozen=True)
class OperatingPoint:
    """Solution of the augmented network equations for one terminal tension.

    Arrays cover the augmented edge set: the real edges in id order plus the
    virtual terminal edge (oriented p -> q) last.  ``terminal_flow`` is the
    flow entering the network at p, i.e. the equivalent edge function value;
    the virtual edge itself carries the negative of it.  ``degenerate`` is
    computed from the network the point was solved on when first read.
    """

    y: np.ndarray
    zeta_bar: np.ndarray
    mu_bar: np.ndarray
    terminal_flow: float
    terminals: tuple[int, int]
    iterations: int
    _system: NetworkSystem = field(compare=False, repr=False)

    @functools.cached_property
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def degenerate(self) -> bool:
        """Singular Hessian at the point: interior tensions are not unique
        (dead-zone flats), though the terminal flow stays unique while the
        objective is convex."""
        block = self._system.reduced_laplacian(*self.terminals)
        d = _chord_slopes(self.zeta, self.mu, _exact_slopes(self._system, self.zeta))
        if not (block.size and (d >= 0.0).all()):
            return False
        try:
            np.linalg.cholesky(block.matrix(d))
        except np.linalg.LinAlgError:
            return True
        return False

    @property
    def zeta(self) -> np.ndarray:
        """Tension on the real edges only."""
        return self.zeta_bar[:-1]

    @property
    def mu(self) -> np.ndarray:
        """Flow on the real edges only."""
        return self.mu_bar[:-1]


def total_cocontent(system: NetworkSystem, zeta: np.ndarray) -> float:
    """Sum of the edge cocontents at the given tension vector."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (system.edge_count,):
        raise DimensionMismatch(
            f"tension vector has shape {zeta.shape}, expected ({system.edge_count},)"
        )
    return float(system.cocontent(zeta).sum())


def edge_monotonicity(
    system: NetworkSystem, grid: ef.GridSpec
) -> tuple[ef.MonotonicityReport, ...]:
    """``edgefn.is_monotone_increasing`` of every edge function, evaluated
    one kind group at a time in chunks of bounded size."""
    return ef.monotonicity_reports(
        system.edge_chunks(grid.samples), system.edge_count, grid
    )


def check_equivalent_edge_preconditions(system: NetworkSystem) -> list[str]:
    """One message per edge that may make operating points non-unique.

    Existence and uniqueness are guaranteed for strictly increasing edge
    functions whose flow grows without bound.  The check is advisory (only
    ``signet eqfun`` makes it, printing each message as a warning): the
    minimizer is still returned for merely nondecreasing edges, but interior
    tensions may then be non-unique (the terminal flow stays unique while
    the objective is convex).
    """
    reports = edge_monotonicity(system, ef.GridSpec(samples=401))
    messages = []
    for e, report in zip(system.graph.edges, reports):
        if not report.nondecreasing:
            messages.append(
                f"edge {e.id}: function is not monotone on the check grid; "
                "the cocontent objective may be nonconvex"
            )
        elif not (report.strictly and report.unbounded):
            messages.append(
                f"edge {e.id}: function is not strictly increasing and "
                "unbounded; the operating point may be non-unique"
            )
    return messages


def _exact_slopes(system: NetworkSystem, zeta: np.ndarray) -> np.ndarray:
    """Pointwise edge derivatives, clamped for the Newton system."""
    d = system._slope(zeta)
    return np.minimum(np.where(np.isfinite(d), d, _DERIV_CLAMP), _DERIV_CLAMP)


def _chord_slopes(zeta: np.ndarray, mu: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Larger of the clamped derivative ``d`` and the chord slope mu/zeta.

    For concave flow laws (power functions) the chord majorizes the
    curvature toward the origin, which stops Newton from zigzagging across
    the kink; for linear edges the two coincide.
    """
    chord = np.where(np.abs(zeta) > 1e-300, mu / zeta, d)
    chord = np.where(np.isfinite(chord), chord, d)
    return np.minimum(np.maximum(d, chord), _DERIV_CLAMP)


def _harmonic_start(
    system: NetworkSystem, block: ReducedLaplacian, p: int, zeta_pq: float
) -> np.ndarray:
    """Initial potentials: unweighted harmonic interpolation of the terminals.

    Keeps interior tensions away from zero so power-law edges start with a
    finite slope.  At zero tension that is exactly y = 0.
    """
    y = np.zeros(system.node_count)
    y[p - 1] = zeta_pq
    if block.size and zeta_pq != 0.0:
        L = block.matrix(np.ones(system.edge_count))
        rhs = np.bincount(block.pinned, minlength=block.size) * zeta_pq
        y[block.free] = np.linalg.solve(L, rhs)
    return y


# Power-law slopes are infinite at zero tension, chord slopes divide by the
# tension and an unbounded objective overflows; the solve checks finiteness.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve_operating_point(
    system: NetworkSystem,
    p: int,
    q: int,
    zeta_pq: float,
    warm_start: Optional[np.ndarray] = None,
) -> OperatingPoint:
    """Operating point of the two-terminal network at a given terminal tension.

    Minimizes the total cocontent over the free potentials with y_p pinned
    to zeta_pq and y_q grounded at 0.  At the returned point the net flow at
    every free node is at most ``_GRAD_TOL`` in infinity norm (ten times
    that where float resolution stalls the line search).

    Each iteration keeps the full Newton step on the exact (clamped) slopes
    if it at least halves the gradient norm; otherwise the chord-majorized
    step, which does not zigzag across power-law kinks, is line-searched.

    Raises NoConvergence after ``_MAX_ITER`` iterations, or as soon as the
    objective or its gradient is not finite (an objective unbounded below).
    """
    for v in (p, q):
        system.graph.node(v, "terminal")
    if p == q:
        raise ValidationError("terminals must be distinct nodes")

    block = system.reduced_laplacian(p, q)
    free = block.free
    if warm_start is None:
        y = _harmonic_start(system, block, p, zeta_pq)
    else:
        y = np.array(warm_start, dtype=float)
        y[p - 1] = zeta_pq
        y[q - 1] = 0.0

    n, tail, head = system.node_count, system.tail, system.head
    flow, cocontent = system._flow, system._cocontent

    def evaluate(yv: np.ndarray):
        """(yv, objective, net outflow E mu per node, its max |.| over the
        free nodes, where it is the objective's gradient, tension, flow)."""
        zeta = yv[tail] - yv[head]
        mu = flow(zeta)
        # Every sample evaluates at least once; the ufunc reductions are what
        # ndarray.sum/.all/.max call, without their Python-level wrappers.
        F = float(np.add.reduce(cocontent(zeta)))
        outflow = np.bincount(tail, mu, n) - np.bincount(head, mu, n)
        if not (math.isfinite(F) and np.logical_and.reduce(np.isfinite(outflow))):
            raise NoConvergence(
                f"objective or gradient not finite at zeta_pq = {zeta_pq:.6g}; "
                "the cocontent may be unbounded below"
            )
        g_norm = float(np.maximum.reduce(np.abs(outflow[free]), initial=0.0))
        return yv, F, outflow, g_norm, zeta, mu

    def moved(step: float, direction: np.ndarray):
        y_try = y.copy()
        y_try[free] += step * direction
        return evaluate(y_try)

    def newton_direction(d: np.ndarray, g: np.ndarray) -> Optional[np.ndarray]:
        """Descent direction of the slope model ``d`` on the free block, or
        None.  The derivative clamp keeps the system solvable when power-law
        slopes blow up at zero tension (it pins those tensions, their optimum).
        """
        if not (d >= 0.0).all():
            return None
        H = block.matrix(d)
        try:
            direction = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            try:
                reg = 1e-10 * (1.0 + float(d.max()))
                direction = np.linalg.solve(H + reg * np.eye(free.size), -g)
            except np.linalg.LinAlgError:
                return None
        return direction if float(g @ direction) < 0.0 else None

    iterations = 0
    y, F, outflow, g_norm, zeta, mu = evaluate(y)
    if free.size:
        for iterations in range(1, _MAX_ITER + 1):
            if g_norm <= _GRAD_TOL:
                break
            g = outflow[free]
            # No accepted step may visibly raise the objective: near the
            # minimum its drop falls below float resolution before g's does.
            F_cap = F + 1e-12 * (1.0 + abs(F))
            exact = _exact_slopes(system, zeta)
            direction = newton_direction(exact, g)
            trial = None if direction is None else moved(1.0, direction)
            if trial is None or trial[3] > 0.5 * g_norm or trial[1] > F_cap:
                direction = newton_direction(_chord_slopes(zeta, mu, exact), g)
                if direction is None:
                    direction = -g
                # A clamped-slope Newton system can pin coordinates that must
                # move (power-law edges sitting exactly at zero tension); when
                # the step degenerates to numerically nothing, take a gradient
                # step to pull those edges off the kink.
                if np.abs(direction).max() < 1e-13 * (1.0 + np.abs(y).max()):
                    direction = -g
                slope = float(g @ direction)
                # Within a decade of the tolerance the float sum of the
                # cocontent no longer registers progress, so only gradient
                # decrease counts there.
                use_armijo = g_norm > 1e1 * _GRAD_TOL
                step = 1.0
                for _ in range(_MAX_HALVINGS):
                    trial = moved(step, direction)
                    # Armijo needs a decrease F can represent (at a kink it can't).
                    target = F + _ARMIJO_C * step * slope
                    if (use_armijo and trial[1] <= target < F) or (
                        trial[3] <= 0.9 * g_norm and trial[1] <= F_cap
                    ):
                        break
                    step *= 0.5
                else:  # no step accepted: a stall near the tolerance ends the solve
                    if g_norm <= 1e1 * _GRAD_TOL:
                        break
                    raise NoConvergence(
                        f"line search stalled at zeta_pq = {zeta_pq:.6g}, "
                        f"gradient norm {g_norm:.3e}"
                    )
            y, F, outflow, g_norm, zeta, mu = trial
        else:
            raise NoConvergence(
                f"no operating point after {_MAX_ITER} iterations at "
                f"zeta_pq = {zeta_pq:.6g}"
            )

    terminal_flow = float(outflow[p - 1])
    zeta_bar = np.concatenate((zeta, (zeta_pq,)))
    mu_bar = np.concatenate((mu, (-terminal_flow,)))
    return OperatingPoint(
        y=y,
        zeta_bar=zeta_bar,
        mu_bar=mu_bar,
        terminal_flow=terminal_flow,
        terminals=(p, q),
        iterations=iterations,
        _system=system,
    )


@dataclass(frozen=True)
class EquivalentEdgeTable:
    """Sampled equivalent edge function between two terminals.

    Stores the flow into the network at p for each sampled terminal tension,
    with piecewise-linear interpolation between samples.  Serializes to a
    two-column CSV (zeta, mu) and re-imports as a SampledTable edge function.
    """

    zetas: np.ndarray
    mus: np.ndarray
    terminals: tuple[int, int]
    max_tellegen_residual: float = 0.0

    def __post_init__(self):
        z = np.asarray(self.zetas, dtype=float)
        m = np.asarray(self.mus, dtype=float)
        object.__setattr__(self, "_fn", ef.SampledTable(z, m))
        object.__setattr__(self, "zetas", z)
        object.__setattr__(self, "mus", m)

    def __call__(self, zeta: float) -> float:
        return self._fn(zeta)

    def as_edge_function(self) -> ef.SampledTable:
        return self._fn

    def save_csv(self, fh: TextIO) -> None:
        self._fn.save_csv(fh)


def equivalent_edge_function(
    system: NetworkSystem, p: int, q: int, grid: ef.GridSpec
) -> EquivalentEdgeTable:
    """Sample the equivalent edge function at the grid's terminal tensions.

    For each of the grid's samples (odd count, at least 3, so zero is
    sampled exactly and solved without a linear system) the operating point
    is solved and the terminal flow recorded.  Sweeps outward from zero, warm-starting each solve from the
    secant through its two predecessors, so the table is deterministic and
    cheap.
    """
    grid.validate(min_samples=3, odd=True)
    zetas = grid.points()
    points = zetas.tolist()
    mus = np.zeros(grid.samples)
    mid = grid.samples // 2
    max_residual = 0.0

    def sweep(indices):
        nonlocal max_residual
        warm = previous = None
        for i in indices:
            zeta_pq = points[i]
            op = solve_operating_point(system, p, q, zeta_pq, warm)
            mus[i] = op.terminal_flow
            # The product of the two vectors' Euclidean norms (what
            # np.linalg.norm computes for a real vector, without its wrapper).
            mu_bar, zeta_bar = op.mu_bar, op.zeta_bar
            scale = math.sqrt(mu_bar.dot(mu_bar)) * math.sqrt(zeta_bar.dot(zeta_bar))
            relative = tellegen_residual(op) / (scale if scale > 0 else 1.0)
            max_residual = max(max_residual, relative)
            # The all-zero solution pins power-law edges at their kink, so
            # it makes a poor predictor; chain warm starts only off-center,
            # extrapolating the last two off-center solutions (a secant).
            if zeta_pq == 0.0:
                warm = previous = None
            else:
                warm = op.y if previous is None else 2.0 * op.y - previous
                previous = op.y

    try:
        sweep(range(mid, grid.samples))
        sweep(range(mid, -1, -1))
    except NoConvergence as exc:
        raise NoConvergence(f"equivalent edge sweep failed: {exc}") from exc
    return EquivalentEdgeTable(
        zetas=zetas,
        mus=mus,
        terminals=(p, q),
        max_tellegen_residual=max_residual,
    )


def effective_resistance(
    g: Graph, weights, p: int, q: int
) -> float:
    """Two-terminal effective resistance of a positively weighted graph.

    Computed as (e_p - e_q)^T L^+ (e_p - e_q) with L the weighted Laplacian
    and L^+ its Moore-Penrose pseudoinverse.
    """
    w = np.asarray(weights, dtype=float)
    L = laplacian(g, w)
    if np.any(w <= 0):
        raise ValidationError("effective resistance needs strictly positive weights")
    for v in (p, q):
        g.node(v, "terminal")
    if not is_connected(g):
        raise Disconnected("effective resistance needs a connected graph")
    if p == q:
        return 0.0
    b = np.zeros(g.node_count)
    b[p - 1] = 1.0
    b[q - 1] = -1.0
    return float(b @ np.linalg.pinv(L, hermitian=True) @ b)


def tellegen_residual(op: OperatingPoint) -> float:
    """|mu_bar . zeta_bar| at an operating point; zero in exact arithmetic.

    Tensions derived from potentials are orthogonal to flows satisfying the
    current law, so this residual measures solver quality.
    """
    return abs(float(op.mu_bar.dot(op.zeta_bar)))

"""Fixed-step integration of the closed loop and outcome classification.

The stepper is classical RK4 with a constant step: bit-reproducible across
runs, which adaptive solvers are not.  A run ends early when any state
exceeds the blowup threshold, or when the input norm stays below u_tol for a
trailing window (the steadiness criterion from the convergence results is on
u, not on the state velocity).  Functions with a power-law kink at the
origin reach agreement in finite time and then make the stepper chatter at a
small amplitude; the trailing window absorbs that chatter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Optional, TextIO

import numpy as np

from .errors import DimensionMismatch, NonFiniteState, ValidationError
from .network import NetworkSystem

# Limits far above the largest shipped run (300 000 steps), so that a huge
# t_end / dt fails validation instead of running for hours or filling memory.
_MAX_STEPS = 10**8
_MAX_ROWS = 10**6


@dataclass(frozen=True)
class SimConfig:
    """Integration and classification parameters.

    Every parameter must be positive and finite, but ``blowup_threshold``
    may be +inf to switch the blowup guard off (growth then ends in NonFiniteState).
    """

    t_end: float
    dt: float = 1e-3
    record_every: int = 1
    u_tol: float = 1e-6
    window: float = 1.0
    blowup_threshold: float = 1e6
    cluster_tol: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and (value < math.inf or f.name == "blowup_threshold")):
                raise ValidationError(
                    f"{f.name} must be positive and finite, got {value!r}"
                )
        if not self.t_end / self.dt <= _MAX_STEPS:  # also when it overflows
            raise ValidationError(
                f"t_end / dt gives {self.t_end / self.dt:.6g} steps, over {_MAX_STEPS}"
            )
        if not (self.dt < self.window):
            raise ValidationError("steadiness window must exceed the step size")
        # The initial state, every record_every-th step and the last one.
        rows = 1 + -(-self.steps // self.record_every)
        if rows > _MAX_ROWS:
            raise ValidationError(f"the run records {rows} rows, over {_MAX_ROWS}")

    @property
    def steps(self) -> int:
        """Number of RK4 steps to t_end."""
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Recorded node outputs (y = x) over time."""

    times: np.ndarray
    states: np.ndarray
    final_u_norm: float
    blowup: bool = False
    steady: bool = False

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


class OutcomeKind(enum.Enum):
    AGREEMENT = "agreement"
    CLUSTERING = "clustering"
    DIVERGENCE = "divergence"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Cluster:
    nodes: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class Outcome:
    """Detected asymptotic behavior of a trajectory."""

    kind: OutcomeKind
    beta: Optional[float] = None
    clusters: tuple[Cluster, ...] = ()
    steady_tension: Optional[np.ndarray] = None
    final_u_norm: float = math.nan
    spread: float = math.nan


def simulate(system: NetworkSystem, x0, cfg: SimConfig) -> Trajectory:
    """Integrate x' = gamma(-E Psi(E^T x)) from x0 with fixed-step RK4.

    Records every ``record_every``-th step plus the final state.  Raises
    NonFiniteState if the state leaves the representable range without first
    crossing the blowup threshold.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (system.node_count,):
        raise DimensionMismatch(
            f"initial state has shape {x.shape}, expected ({system.node_count},)"
        )
    dt = cfg.dt
    n, tail, head = system.node_count, system.tail, system.head
    flow, gamma = system._flow, system._gamma

    def rhs(state):
        mu = flow(state[tail] - state[head])
        u = np.bincount(head, mu, n) - np.bincount(tail, mu, n)
        return u, gamma(u)

    times = [0.0]
    states = [x.copy()]
    blowup = False
    steady = False
    steady_since: Optional[float] = None
    t = 0.0
    # Overflow to inf is caught by the explicit finiteness checks below.
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

    final_u = system.node_input(states[-1])
    return Trajectory(
        times=np.array(times),
        states=np.vstack(states),
        final_u_norm=float(np.max(np.abs(final_u))),
        blowup=blowup,
        steady=steady,
    )


def _single_linkage_line(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group 0-based indices whose values chain within tol of each other."""
    order = np.argsort(values, kind="stable")
    groups = [[int(order[0])]]
    for prev, cur in zip(order, order[1:]):
        if values[cur] - values[prev] <= tol:
            groups[-1].append(int(cur))
        else:
            groups.append([int(cur)])
    return groups


def classify_outcome(
    system: NetworkSystem, tr: Trajectory, cfg: SimConfig
) -> Outcome:
    """Classify the trajectory as agreement, clustering, divergence, or undecided.

    Agreement requires the final spread below cluster_tol; clustering
    additionally requires the final input norm below u_tol and groups nodes
    by single linkage at cluster_tol.  Divergence is reported only when the
    blowup guard fired.
    """
    if tr.states.shape[0] == 0:
        raise ValidationError("trajectory is empty")
    final = tr.final_state
    if tr.blowup:
        return Outcome(OutcomeKind.DIVERGENCE, final_u_norm=tr.final_u_norm)
    spread = float(final.max() - final.min())
    zeta = system.tension(final)
    if spread < cfg.cluster_tol:
        return Outcome(
            OutcomeKind.AGREEMENT,
            beta=float(final.mean()),
            clusters=(Cluster(tuple(range(1, system.node_count + 1)), float(final.mean())),),
            steady_tension=zeta,
            final_u_norm=tr.final_u_norm,
            spread=spread,
        )
    if tr.final_u_norm < cfg.u_tol:
        groups = _single_linkage_line(final, cfg.cluster_tol)
        clusters = tuple(
            sorted(
                (
                    Cluster(
                        tuple(sorted(i + 1 for i in grp)),
                        float(np.mean(final[grp])),
                    )
                    for grp in groups
                ),
                key=lambda c: -c.value,
            )
        )
        return Outcome(
            OutcomeKind.CLUSTERING,
            clusters=clusters,
            steady_tension=zeta,
            final_u_norm=tr.final_u_norm,
            spread=spread,
        )
    return Outcome(
        OutcomeKind.UNDECIDED, final_u_norm=tr.final_u_norm, spread=spread
    )


def quadratic_storage_profile(tr: Trajectory) -> np.ndarray:
    """Sum of single-integrator storages against the final state, per sample.

    For positive networks of integrators this is a Lyapunov function, so the
    profile should be non-increasing along the recorded samples.
    """
    delta = tr.states - tr.states[-1]
    return 0.5 * np.sum(delta * delta, axis=1)


def cocontent_profile(system: NetworkSystem, tr: Trajectory) -> np.ndarray:
    """Total cocontent along the trajectory, per recorded sample.

    Under the equivalent-passivity convergence conditions this is a Lyapunov
    function for integrator networks.
    """
    zeta = tr.states[:, system.tail] - tr.states[:, system.head]
    return system.cocontent(zeta).sum(axis=1)


def write_trajectory_csv(tr: Trajectory, fh: TextIO) -> None:
    """CSV export: header t,y1..yn, one row per sample, 17 significant digits."""
    n = tr.states.shape[1]
    fh.write("t," + ",".join(f"y{i}" for i in range(1, n + 1)) + "\n")
    # %-formatting a Python float gives the digits of format(v, ".17g");
    # rows become Python floats one at a time, so no copy of the whole
    # trajectory is made.
    line = ",".join(["%.17g"] * (n + 1)) + "\n"
    fh.writelines(
        line % (t, *row.tolist()) for t, row in zip(tr.times.tolist(), tr.states)
    )

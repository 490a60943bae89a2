"""Fixed-step integration of the closed loop and outcome classification.

The stepper is classical RK4 with a constant step: bit-reproducible across
runs, which adaptive solvers are not.  A run ends early when any state
exceeds the blowup threshold, or when the input norm stays below u_tol for a
trailing window (the steadiness criterion from the convergence results is on
u, not on the state velocity).  Functions with a power-law kink at the
origin reach agreement in finite time and then make the stepper chatter at a
small amplitude; the trailing window absorbs that chatter.

Steps are taken in blocks of up to ``_BLOCK_STEPS``, with every block's
buffers within ``network._CHUNK_CELLS`` cells.  Each step writes its input
and its new state into a row of the block; after the block one reduction
per buffer gives every step's norms, and the per-step checks (finiteness,
steadiness, blowup, recording) run on them in step order.  The steps of a
block after a stop are discarded, so at most a block less one step is
computed in vain, and the run, its recorded rows and its errors are those
of a loop that checks after every step.  The stages call the right-hand
side that ``NetworkSystem`` builds; the first keeps its node input.

The Lyapunov profiles along a recorded run (the quadratic storage against
the final state and the total cocontent) are checked by the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Optional, TextIO

import numpy as np

from .errors import NonFiniteState, ValidationError
from .network import _CHUNK_CELLS, NetworkSystem, _checked

# Limits far above the largest shipped run (300 000 steps), so that a huge
# t_end / dt fails validation instead of running for hours or filling memory.
_MAX_STEPS = 10**8
_MAX_ROWS = 10**6
# Most RK4 steps taken between two rounds of checks.
_BLOCK_STEPS = 64


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
    n = system.node_count
    x = _checked(x0, "initial state", n)
    node_input, field, gamma = system._coupling, system._field, system._gamma
    integrators = field is node_input
    dt, steps, every = cfg.dt, cfg.steps, cfg.record_every
    u_tol, window, threshold = cfg.u_tol, cfg.window, cfg.blowup_threshold
    # numpy multiplies by a 0-d array faster than by a Python float, and
    # the products are the same.
    half, whole, sixth, two = map(np.array, (0.5 * dt, dt, dt / 6.0, 2.0))
    block = max(1, min(_BLOCK_STEPS, _CHUNK_CELLS // n))
    inputs, block_states = np.empty((block, n)), np.empty((block, n))

    times = [0.0]
    states = [x.copy()]
    blowup = steady = False
    steady_since: Optional[float] = None
    step = 0
    t = 0.0
    # Overflow to inf is caught by the explicit finiteness checks below.
    with np.errstate(over="ignore", invalid="ignore"):
        while step < steps and not (blowup or steady):
            count = min(block, steps - step)
            for j in range(count):
                u = inputs[j] = node_input(x)
                k1 = u if integrators else gamma(u)
                k2 = field(x + half * k1)
                k3 = field(x + half * k2)
                k4 = field(x + whole * k3)
                x = block_states[j] = x + sixth * (k1 + two * k2 + two * k3 + k4)

            # The checks of each step in order, on its input and new state;
            # the steps of the block after a stop are discarded.
            u_norms = np.abs(inputs[:count]).max(axis=1).tolist()
            biggests = np.abs(block_states[:count]).max(axis=1).tolist()
            kept = []
            for j, (u_norm, biggest) in enumerate(zip(u_norms, biggests)):
                if not math.isfinite(u_norm):
                    raise NonFiniteState(f"non-finite input at t = {t:.6g}")
                if u_norm < u_tol:
                    if steady_since is None:
                        steady_since = t
                else:
                    steady_since = None
                step += 1
                t = step * dt
                if not math.isfinite(biggest):
                    raise NonFiniteState(f"non-finite state at t = {t:.6g}")
                if biggest > threshold:
                    blowup = True
                elif steady_since is not None and t - steady_since >= window:
                    steady = True
                if blowup or steady or step % every == 0:
                    times.append(t)
                    kept.append(j)
                if blowup or steady:
                    break
            if kept:
                states.append(block_states[kept])
        # A stop records its step, so only the horizon can be unrecorded.
        if times[-1] != t:
            times.append(t)
            states.append(x.copy())

    recorded = np.vstack(states)
    return Trajectory(
        times=np.array(times),
        states=recorded,
        final_u_norm=float(np.max(np.abs(node_input(recorded[-1])))),
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

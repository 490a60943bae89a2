"""Command-line interface: simulate / classify / eqfun / predict.

Every command reads a JSON config and writes its artifacts into the output
directory, which is made with the first artifact: a command that fails
before writing leaves none.  Outputs are deterministic: identical inputs
produce byte-identical files.  Only ``classify`` and ``predict`` take
``--grid-n``/``--grid-m``: both classify edges on that grid (``GridSpec()``
by default), and ``predict`` sweeps on it; ``eqfun`` sweeps the config's
grid.  This module alone writes stderr: ``eqfun`` prints one ``warning:``
line per edge that may make operating points non-unique, and a failure,
a usage error included, one ``error:`` line.  Exit codes: 0 success,
2 validation or usage error, 3 solver failure, 70 any other error (such
as a MemoryError, or a warning that ``-W error`` turns into an exception).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TextIO

import numpy as np

from . import analysis, circuit
from .config import NetworkConfig, load_config
from .edgefn import GridSpec
from .errors import (
    NoConvergence,
    NonFiniteState,
    SignetError,
    ValidationError,
)
from .sim import OutcomeKind, classify_outcome, simulate, write_trajectory_csv

_EXIT_VALIDATION = 2
_EXIT_SOLVER = 3
_EXIT_INTERNAL = 70


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _artifact(out: Path, name: str) -> TextIO:
    """Open an artifact for writing, making ``out`` on the first one, so
    that a command that fails before writing leaves no directory."""
    out.mkdir(parents=True, exist_ok=True)
    return open(out / name, "w", newline="")


def _cmd_simulate(cfg: NetworkConfig, out: Path) -> None:
    if cfg.sim is None or cfg.initial_state is None:
        raise ValidationError("simulate needs 'sim' and 'initial_state' sections")
    system = cfg.build_system()
    tr = simulate(system, cfg.initial_state, cfg.sim)
    with _artifact(out, "trajectory.csv") as fh:
        write_trajectory_csv(tr, fh)
    outcome = classify_outcome(system, tr, cfg.sim)
    lines = [
        f"outcome: {outcome.kind.value}",
        f"t_final: {_g17(tr.times[-1])}",
        f"final_u_norm: {_g17(tr.final_u_norm)}",
    ]
    if not np.isnan(outcome.spread):
        lines.append(f"spread: {_g17(outcome.spread)}")
    if outcome.kind is OutcomeKind.AGREEMENT:
        lines.append(f"beta: {_g17(outcome.beta)}")
    if outcome.kind is OutcomeKind.CLUSTERING:
        lines.append(f"clusters: {len(outcome.clusters)}")
        for i, c in enumerate(outcome.clusters, start=1):
            nodes = ",".join(str(v) for v in c.nodes)
            lines.append(f"cluster {i}: value={_g17(c.value)} nodes={nodes}")
    if outcome.steady_tension is not None:
        zeta = outcome.steady_tension
        lines.append(
            "steady_tension: " + ",".join(_g17(z) for z in zeta)
        )
        member = analysis.equilibria_membership(system, zeta, cfg.sim.cluster_tol)
        rendered = ",".join(
            f"{e.id}=" + ("n/a" if m is None else ("yes" if m else "no"))
            for e, m in zip(system.graph.edges, member)
        )
        lines.append(f"equilibria_membership: {rendered}")
    with _artifact(out, "outcome.txt") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_classify(cfg: NetworkConfig, out: Path, grid: GridSpec) -> None:
    system = cfg.build_system()
    classes = analysis.classify_edges(system, grid)
    rows = ["edge_id,label,margin,witness"]
    for e, c in zip(system.graph.edges, classes):
        witness = "" if c.witness is None else _g17(c.witness)
        rows.append(f"{e.id},{c.label.value},{_g17(c.margin)},{witness}")
    with _artifact(out, "classification.csv") as fh:
        fh.write("\n".join(rows) + "\n")


def _cmd_eqfun(cfg: NetworkConfig, out: Path) -> None:
    if cfg.eqfun is None:
        raise ValidationError("eqfun command needs an 'eqfun' section")
    system = cfg.build_system()
    for message in circuit.check_equivalent_edge_preconditions(system):
        print(f"warning: {message}", file=sys.stderr)
    table = circuit.equivalent_edge_function(
        system, cfg.eqfun.p, cfg.eqfun.q, cfg.eqfun.grid
    )
    with _artifact(out, "eqfun.csv") as fh:
        table.as_edge_function().save_csv(fh)


def _cmd_predict(cfg: NetworkConfig, out: Path, grid: GridSpec) -> None:
    system = cfg.build_system()
    pred = analysis.predict(system, grid)
    lines = [
        f"verdict: {pred.verdict.value}",
        f"applied_result: {pred.applied_result}",
        f"grid_n: {_g17(grid.n)}",
        f"grid_m: {grid.samples}",
    ]
    classes = pred.certificates.get("sign_classes", ())
    if classes:
        rendered = " ".join(
            f"{e.id}={c.label.value}"
            for e, c in zip(system.graph.edges, classes)
        )
        lines.append(f"edge_classes: {rendered}")
    if pred.cluster_counts is not None:
        lines.append(
            "cluster_counts: "
            + ",".join(str(c) for c in sorted(pred.cluster_counts))
        )
    condition = pred.certificates.get("condition")
    if condition is not None:
        lines.append(f"condition_holds: {'yes' if condition.holds else 'no'}")
        lines.append(f"condition_strict: {'yes' if condition.strict else 'no'}")
        lines.append(f"margin_min: {_g17(condition.margin_min)}")
    with _artifact(out, "prediction.txt") as fh:
        fh.write("\n".join(lines) + "\n")


_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate the network and classify the outcome"),
    "classify": (_cmd_classify, "passivity sign class of every edge"),
    "eqfun": (_cmd_eqfun, "equivalent edge function between the config terminals"),
    "predict": (_cmd_predict, "convergence verdict from the sufficient conditions"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 2."""

    def error(self, message):
        self.exit(_EXIT_VALIDATION, f"error: usage: {message}\n")


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="signet",
        description="Simulate and analyze diffusively coupled nonlinear networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON network config")
        cmd.add_argument("--out", required=True, help="output directory")
        if name in ("classify", "predict"):
            cmd.add_argument(
                "--grid-n", type=float, default=GridSpec.n,
                help=f"half-width of classification/sweep grids (default {GridSpec.n:g})",
            )
            cmd.add_argument(
                "--grid-m", type=int, default=GridSpec.samples,
                help=f"number of grid samples (default {GridSpec.samples})",
            )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        grid_arg = (GridSpec(args.grid_n, args.grid_m),) if "grid_n" in args else ()
        cfg = load_config(args.config)
        _COMMANDS[args.command][0](cfg, Path(args.out), *grid_arg)
    except Exception as exc:  # KeyboardInterrupt and SystemExit propagate
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, (NoConvergence, NonFiniteState)):
            return _EXIT_SOLVER
        expected = isinstance(exc, (SignetError, OSError))
        return _EXIT_VALIDATION if expected else _EXIT_INTERNAL
    return 0


if __name__ == "__main__":
    sys.exit(main())

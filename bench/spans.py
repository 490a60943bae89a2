"""Spans and counters for the traced benchmark pass.

The tracer wraps the public functions of each signet layer at every name
they are bound under (modules import names directly, for example
``signet.cli.simulate`` and ``signet.analysis.cycles_through_edge``), so
the program itself is unchanged.  Each span records its name, start, end
and the id of the span that was open when it started.  Spans stay in memory
until the pass ends.

``simulate`` binds ``system._flow`` once per call, so the flow evaluation
inside a run cannot be wrapped; ``NetworkSystem.flow`` and
``vector_field`` are micro-timed directly instead (``micro_timings``).
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import gen

# Span name -> (module, attribute); a dotted attribute is a method.
TRACED = {
    "cli.main": ("signet.cli", "main"),
    "config.load_config": ("signet.config", "load_config"),
    "config.build_system": ("signet.config", "NetworkConfig.build_system"),
    "network.NetworkSystem": ("signet.network", "NetworkSystem.__init__"),
    "graph.incidence": ("signet.graph", "incidence"),
    "graph.connected_components": ("signet.graph", "connected_components"),
    "graph.edge_subgraph": ("signet.graph", "edge_subgraph"),
    "graph.all_simple_paths": ("signet.graph", "all_simple_paths"),
    "graph.cycles_through_edge": ("signet.graph", "cycles_through_edge"),
    "edgefn.classify_sign": ("signet.edgefn", "classify_sign"),
    "edgefn.is_monotone_increasing": ("signet.edgefn", "is_monotone_increasing"),
    "sim.simulate": ("signet.sim", "simulate"),
    "sim.classify_outcome": ("signet.sim", "classify_outcome"),
    "sim.write_trajectory_csv": ("signet.sim", "write_trajectory_csv"),
    "circuit.solve_operating_point": ("signet.circuit", "solve_operating_point"),
    "circuit.equivalent_edge_function": ("signet.circuit", "equivalent_edge_function"),
    "analysis.predict": ("signet.analysis", "predict"),
    "analysis.classify_edges": ("signet.analysis", "classify_edges"),
    "analysis.equivalent_passivity_condition":
        ("signet.analysis", "equivalent_passivity_condition"),
    "analysis.cluster_count_prediction": ("signet.analysis", "cluster_count_prediction"),
    "analysis.equilibria_membership": ("signet.analysis", "equilibria_membership"),
}
ENUMERATION = ("graph.all_simple_paths", "graph.cycles_through_edge")
LAYERS = ("cli", "config", "graph", "edgefn", "network", "sim", "circuit", "analysis")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.counts: Counter = Counter()
        self.tellegen_max = 0.0
        self._open: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            span = [len(tracer.spans), parent, name, time.perf_counter(), 0.0]
            tracer.spans.append(span)
            tracer._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(span, exc)
                raise
            finally:
                span[4] = time.perf_counter()
                tracer._open.pop()
            tracer._on_result(span, args, result)
            return result

        return traced

    def _parent_name(self, span) -> str | None:
        return None if span[1] is None else self.spans[span[1]][2]

    def _on_error(self, span, exc) -> None:
        kind = type(exc).__name__
        if span[2] == "circuit.solve_operating_point" and kind == "NoConvergence":
            self.counts["circuit.no_convergence"] += 1
        if span[2] in ENUMERATION and self._parent_name(span) not in ENUMERATION \
                and kind == "CapExceeded":
            self.counts["graph.cap_exceeded"] += 1

    def _on_result(self, span, args, result) -> None:
        name, c = span[2], self.counts
        if name == "sim.simulate":
            cfg = args[2]
            c["sim.steps"] += round(float(result.times[-1]) / cfg.dt)
            stop = "blowup" if result.blowup else "steady" if result.steady else "horizon"
            c[f"sim.stop.{stop}"] += 1
        elif name == "circuit.solve_operating_point":
            c["circuit.op_calls"] += 1
            c["circuit.newton_iters"] += result.iterations
            c["circuit.degenerate"] += int(result.degenerate)
            scale = float(np.linalg.norm(result.mu_bar) * np.linalg.norm(result.zeta_bar))
            residual = abs(float(result.mu_bar @ result.zeta_bar))
            self.tellegen_max = max(self.tellegen_max, residual / scale if scale > 0 else residual)
        elif name == "circuit.equivalent_edge_function":
            c["circuit.samples"] += int(result.zetas.size)
        elif name in ENUMERATION and self._parent_name(span) not in ENUMERATION:
            c["graph.enum_calls"] += 1
            c["graph.enum_paths"] += len(result)
        elif name == "edgefn.classify_sign":
            c["edgefn.classify_calls"] += 1
        elif name == "analysis.predict":
            c[f"analysis.branch.{result.applied_result}"] += 1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in the signet modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "signet" or k.startswith("signet."))]
        for name, (module_name, attr) in TRACED.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, obj, attr, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[4] - span[3]
        for span, inner in zip(self.spans, child):
            dur = span[4] - span[3]
            self_s[span[2].split(".")[0]] += dur - inner
            parent = self._parent_name(span)
            if parent != span[2]:
                total[span[2]] += dur
            if span[2] in ENUMERATION and parent not in ENUMERATION:
                total["graph.enum"] += dur
        c = self.counts
        out = dict(c)
        out.update({
            "sim.us_per_step": 1e6 * total["sim.simulate"] / c["sim.steps"] if c["sim.steps"] else 0.0,
            "sim.csv_write_s": total["sim.write_trajectory_csv"],
            "circuit.us_per_iter": (1e6 * total["circuit.solve_operating_point"]
                                    / c["circuit.newton_iters"] if c["circuit.newton_iters"] else 0.0),
            "circuit.tellegen_max": self.tellegen_max,
            "circuit.sweep_s": total["circuit.equivalent_edge_function"],
            "graph.enum_s": total["graph.enum"],
            "edgefn.classify_s": total["edgefn.classify_sign"],
            "edgefn.monotone_s": total["edgefn.is_monotone_increasing"],
            "analysis.predict_s": total["analysis.predict"],
            "analysis.condition_s": total["analysis.equivalent_passivity_condition"],
            "config.load_s": total["config.load_config"],
            "config.build_system_s": total["config.build_system"],
            "graph.incidence_s": total["graph.incidence"],
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def spans_text(self) -> str:
        t0 = self.spans[0][3] if self.spans else 0.0
        return "".join(
            json.dumps({"id": s[0], "parent": s[1], "name": s[2],
                        "start_s": s[3] - t0, "end_s": s[4] - t0}) + "\n"
            for s in self.spans
        )


# --- micro-timings ----------------------------------------------------------


def _per_call_us(fn, arg, calls: int = 1000, repeats: int = 5) -> float:
    fn(arg)
    batches = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        batches.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(batches)


def micro_timings(seed: int, root: Path) -> dict:
    """µs per ``NetworkSystem.flow`` call on a 20-node, 40-edge network of
    one edge kind, and per ``vector_field`` call on the eleven-node network
    with identity and with sign_power nodes."""
    from signet.config import parse_config

    rng = random.Random(f"micro:{seed}")
    edges = gen.random_connected(20, 40, rng)
    table = {"kind": "sampled_table", "zeta": [-10.0, -1.0, 0.0, 1.0, 10.0],
             "mu": [-4.0, -1.0, 0.0, 2.0, 9.0]}
    kinds = {
        "linear": lambda: gen.linear(rng),
        "dead_zone": lambda: {"kind": "dead_zone", "w": 1.0, "band": gen.uniform(rng, 0.5, 2.0)},
        "power_sign": lambda: gen.power_sign(rng),
        "sampled_table": lambda: table,
        "negated": lambda: {"kind": "negated", "fn": table},
        "sum": lambda: gen.linear_dead_zone(rng),
    }
    out = {}
    x = np.array([gen.uniform(rng, -5.0, 5.0) for _ in range(20)])
    for kind, make in kinds.items():
        system = parse_config(gen.config_text(20, edges, [make() for _ in edges])).build_system()
        out[f"network.flow_us.{kind}"] = _per_call_us(system.flow, system.tension(x))
    doc = json.loads((root / "configs" / "eleven_node_positive.json").read_text())
    x0 = np.array(doc["initial_state"], dtype=float)
    for label, dyn in (("identity", {"kind": "identity"}),
                       ("nonidentity", {"kind": "sign_power", "c": 1.0, "beta": 0.5})):
        doc["nodes"]["dynamics"] = dyn
        system = parse_config(json.dumps(doc)).build_system()
        out[f"network.vector_field_us.{label}"] = _per_call_us(system.vector_field, x0)
    return out


def distance_bounds_s(root: Path) -> float:
    """Total time of ``distance_bounds`` over every node pair of the shipped
    positive networks."""
    from signet.analysis import distance_bounds
    from signet.config import load_config

    total = 0.0
    for name in ("eleven_node_positive", "six_node_agreement",
                 "six_node_clustering", "three_node_series"):
        system = load_config(root / "configs" / f"{name}.json").build_system()
        n = system.node_count
        t0 = time.perf_counter()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                distance_bounds(system, i, j)
        total += time.perf_counter() - t0
    return total


def traced_pass(run_pass, workload, root: Path):
    """Run one pass with the tracer installed; returns (metrics, wall, spans)."""
    tracer = Tracer()
    tracer.install()
    try:
        wall = run_pass()
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values.update(micro_timings(workload.seed, root))
    if workload.name == "small_mix":
        values["analysis.distance_bounds_s"] = distance_bounds_s(root)
    return values, wall, tracer.spans_text()

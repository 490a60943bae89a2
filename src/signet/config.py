"""JSON network configs: parsing, validation, and system construction.

The document has five sections: ``nodes`` (count plus optional per-node
dynamics), ``edges`` (id/tail/head plus an edge-function spec), optional
``sim`` (integration parameters), optional ``initial_state``, and optional
``eqfun`` (terminal pair and sampling for the equivalent edge function).
Unknown keys are rejected everywhere so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import edgefn as ef
from . import nodes as nd
from .errors import ParseError, ValidationError
from .graph import Edge, Graph
from .network import NetworkSystem
from .sim import SimConfig


@dataclass(frozen=True)
class EqfunSpec:
    p: int
    q: int
    half_width: float = 100.0
    samples: int = 2001


@dataclass(frozen=True)
class NetworkConfig:
    """A parsed config; ``edge_functions`` follow ``graph.edges`` (id order)."""

    graph: Graph
    dynamics: tuple[nd.NodeDynamics, ...]
    edge_functions: tuple[ef.EdgeFunction, ...]
    sim: Optional[SimConfig]
    initial_state: Optional[np.ndarray]
    eqfun: Optional[EqfunSpec]

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges

    def build_system(self) -> NetworkSystem:
        return NetworkSystem(self.graph, self.dynamics, self.edge_functions)


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")


def _number(obj, where: str, allow_inf: bool = False) -> float:
    """A finite number; ``allow_inf`` also admits +inf (a disabled bound)."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf if obj > 0 else -math.inf
    if not (math.isfinite(value) or (allow_inf and value == math.inf)):
        raise ValidationError(f"{where}: expected a finite number, got {obj!r}")
    return value


def _integer(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _edge_function(spec, where: str, base_dir: Optional[Path]) -> ef.EdgeFunction:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"{where}: edge function needs a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "linear":
            _require_keys(spec, {"kind", "w"}, {"w"}, where)
            return ef.Linear(_number(spec["w"], where))
        if kind == "dead_zone":
            _require_keys(spec, {"kind", "w", "band"}, {"w"}, where)
            return ef.DeadZone(
                _number(spec["w"], where),
                _number(spec.get("band", 1.0), where),
            )
        if kind == "power_sign":
            _require_keys(spec, {"kind", "w", "alpha"}, {"w", "alpha"}, where)
            return ef.PowerSign(
                _number(spec["w"], where), _number(spec["alpha"], where)
            )
        if kind == "sinusoid":
            _require_keys(spec, {"kind", "a"}, {"a"}, where)
            return ef.Sinusoid(_number(spec["a"], where))
        if kind == "negated":
            _require_keys(spec, {"kind", "fn"}, {"fn"}, where)
            return ef.Negated(_edge_function(spec["fn"], where + ".fn", base_dir))
        if kind == "sum":
            _require_keys(spec, {"kind", "terms"}, {"terms"}, where)
            if not isinstance(spec["terms"], list) or not spec["terms"]:
                raise ValidationError(f"{where}: 'terms' must be a non-empty list")
            return ef.Sum(
                tuple(
                    _edge_function(t, f"{where}.terms[{i}]", base_dir)
                    for i, t in enumerate(spec["terms"])
                )
            )
        if kind == "sampled_table":
            _require_keys(spec, {"kind", "csv", "zeta", "mu"}, set(), where)
            if "csv" in spec:
                if not isinstance(spec["csv"], str):
                    raise ValidationError(f"{where}: 'csv' must be a path string")
                path = Path(spec["csv"])
                if not path.is_absolute() and base_dir is not None:
                    path = base_dir / path
                return ef.SampledTable.load_csv(path)
            if "zeta" not in spec or "mu" not in spec:
                raise ValidationError(
                    f"{where}: sampled_table needs 'csv' or 'zeta'+'mu'"
                )
            for key in ("zeta", "mu"):
                if not isinstance(spec[key], list):
                    raise ValidationError(f"{where}: '{key}' must be a list")
            return ef.SampledTable(
                tuple(_number(v, where) for v in spec["zeta"]),
                tuple(_number(v, where) for v in spec["mu"]),
            )
    except ValidationError:
        raise
    except OSError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    raise ValidationError(f"{where}: unknown edge function kind {kind!r}")


def _dynamics(spec, where: str) -> nd.NodeDynamics:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"{where}: node dynamics need a 'kind'")
    kind = spec["kind"]
    if kind == "identity":
        _require_keys(spec, {"kind"}, set(), where)
        return nd.Identity()
    if kind == "sign_power":
        _require_keys(spec, {"kind", "c", "beta"}, {"c", "beta"}, where)
        return nd.SignPower(_number(spec["c"], where), _number(spec["beta"], where))
    if kind == "saturating":
        _require_keys(spec, {"kind", "c", "s"}, {"c", "s"}, where)
        return nd.Saturating(_number(spec["c"], where), _number(spec["s"], where))
    raise ValidationError(f"{where}: unknown dynamics kind {kind!r}")


def parse_config(text: str, base_dir: Optional[Path] = None) -> NetworkConfig:
    """Parse and validate a JSON network config.

    ``base_dir`` resolves relative CSV paths referenced by sampled-table
    edge functions (normally the directory of the config file).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require_keys(
        doc,
        {"nodes", "edges", "sim", "initial_state", "eqfun"},
        {"nodes", "edges"},
        "config",
    )

    nodes_sec = doc["nodes"]
    _require_keys(nodes_sec, {"count", "dynamics"}, {"count"}, "nodes")
    count = _integer(nodes_sec["count"], "nodes.count")
    if count < 1:
        raise ValidationError("nodes.count must be at least 1")
    dyn_spec = nodes_sec.get("dynamics", {"kind": "identity"})
    if isinstance(dyn_spec, list):
        if len(dyn_spec) != count:
            raise ValidationError(
                f"nodes.dynamics lists {len(dyn_spec)} entries for {count} nodes"
            )
        dynamics = tuple(
            _dynamics(d, f"nodes.dynamics[{i}]") for i, d in enumerate(dyn_spec)
        )
    else:
        dynamics = (_dynamics(dyn_spec, "nodes.dynamics"),) * count

    if not isinstance(doc["edges"], list) or not doc["edges"]:
        raise ValidationError("edges: expected a non-empty list")
    edges = []
    fns = {}
    for i, e in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        _require_keys(e, {"id", "tail", "head", "fn"}, {"id", "tail", "head", "fn"}, where)
        edges.append(
            Edge(
                _integer(e["id"], where + ".id"),
                _integer(e["tail"], where + ".tail"),
                _integer(e["head"], where + ".head"),
            )
        )
        fns[edges[-1].id] = _edge_function(e["fn"], where + ".fn", base_dir)
    # The graph checks ids and ranges and sorts the edges by id.
    graph = Graph(count, tuple(edges))

    sim_cfg = None
    if "sim" in doc:
        sec = doc["sim"]
        _require_keys(
            sec,
            {"t_end", "dt", "record_every", "u_tol", "window",
             "blowup_threshold", "cluster_tol"},
            {"t_end"},
            "sim",
        )
        kwargs = {"t_end": _number(sec["t_end"], "sim.t_end")}
        for key in ("dt", "u_tol", "window", "blowup_threshold", "cluster_tol"):
            if key in sec:
                kwargs[key] = _number(
                    sec[key], f"sim.{key}", allow_inf=key == "blowup_threshold"
                )
        if "record_every" in sec:
            kwargs["record_every"] = _integer(sec["record_every"], "sim.record_every")
        sim_cfg = SimConfig(**kwargs)

    initial_state = None
    if "initial_state" in doc:
        vec = doc["initial_state"]
        if not isinstance(vec, list):
            raise ValidationError("initial_state: expected a list of numbers")
        initial_state = np.array(
            [_number(v, f"initial_state[{i}]") for i, v in enumerate(vec)]
        )
        if initial_state.shape != (count,):
            raise ValidationError(
                f"initial_state has {initial_state.size} entries for {count} nodes"
            )

    eqfun_spec = None
    if "eqfun" in doc:
        sec = doc["eqfun"]
        _require_keys(sec, {"p", "q", "n", "samples"}, {"p", "q"}, "eqfun")
        eqfun_spec = EqfunSpec(
            p=_integer(sec["p"], "eqfun.p"),
            q=_integer(sec["q"], "eqfun.q"),
            half_width=_number(sec.get("n", 100.0), "eqfun.n"),
            samples=_integer(sec.get("samples", 2001), "eqfun.samples"),
        )
        for v in (eqfun_spec.p, eqfun_spec.q):
            if not (1 <= v <= count):
                raise ValidationError(f"eqfun terminal {v} out of range 1..{count}")

    return NetworkConfig(
        graph=graph,
        dynamics=dynamics,
        edge_functions=tuple(fns[e.id] for e in graph.edges),
        sim=sim_cfg,
        initial_state=initial_state,
        eqfun=eqfun_spec,
    )


def load_config(path) -> NetworkConfig:
    """Read and parse a config file, resolving table paths next to it."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=path.parent)

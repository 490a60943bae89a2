"""JSON network configs: parsing, validation, and system construction.

The document has five sections: ``nodes`` (count plus optional per-node
dynamics), ``edges`` (id/tail/head plus an edge-function spec), optional
``sim`` (integration parameters), optional ``initial_state``, and optional
``eqfun`` (terminal pair and sampling grid for the equivalent edge
function).  Unknown keys are rejected everywhere so typos fail loudly.

The analytic edge kinds, the node kinds, ``sim`` and ``eqfun`` take their
keys, types, defaults and checks (finiteness included) from the dataclass
each builds.  Edge functions nest at most ``_MAX_NESTING`` levels deep.

The edge list, by far the largest section, is read a column at a time
(``_edge_columns``): each check runs once over all edges, the parameters of
each flat analytic kind through that kind's one validator
(``edgefn.parameter_violation``), and the edge objects are then made
without checking them again.  The flat terms of nested kinds join their
kind's columns, and the nested objects are assembled around them.  A
list with a malformed edge is read again edge by edge (``_edge_rows``),
which raises the error of the first malformed edge by list position; the
graph's own checks (ids, self-loops, node ranges) come after those.  A
node count above edges + 1 cannot form a connected graph and is rejected
before anything is allocated per node.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Set
from dataclasses import MISSING, dataclass, fields
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import edgefn as ef
from . import nodes as nd
from .edgefn import GridSpec
from .errors import ParseError, ValidationError
from .graph import Edge, Graph
from .network import NOT_CONNECTED, NetworkSystem
from .sim import SimConfig

_EDGE_KINDS = {"linear": ef.Linear, "dead_zone": ef.DeadZone,
               "power_sign": ef.PowerSign, "sinusoid": ef.Sinusoid}
_NODE_KINDS = {"identity": nd.Identity, "sign_power": nd.SignPower,
               "saturating": nd.Saturating}
# Deeper edge functions would exhaust the interpreter's stack when the
# network is built; the shipped configs nest 2 levels.
_MAX_NESTING = 32
_EDGE_KEYS = frozenset({"id", "tail", "head", "fn"})
_EDGE_ENDS = itemgetter("id", "tail", "head")
_FN = itemgetter("fn")
_NEGATED_KEYS = frozenset({"kind", "fn"})
_SUM_KEYS = frozenset({"kind", "terms"})
_NUMBER_TYPES = frozenset({int, float})


@dataclass(frozen=True)
class EqfunSpec:
    """Terminals and sweep grid (odd, at least 3 samples) of ``signet eqfun``."""

    p: int
    q: int
    n: float = GridSpec.n
    samples: int = GridSpec.samples

    def __post_init__(self):
        self.grid.validate(min_samples=3, odd=True)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.n, self.samples)


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


def _require_keys(obj: dict, allowed: Set[str], required: Set[str], where: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    if obj.keys() <= allowed and required <= obj.keys():
        return
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")


def _number(obj, where: str) -> float:
    """A JSON number as a float, +-inf beyond the float range."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError:
        return math.inf if obj > 0 else -math.inf


def _numbers(obj, where: str) -> np.ndarray:
    """A JSON list of numbers as a float array, converted in one call unless
    some entry needs ``_number`` (a non-number, or an int beyond the float
    range)."""
    if not isinstance(obj, list):
        raise ValidationError(f"{where}: expected a list of numbers")
    if set(map(type, obj)) <= _NUMBER_TYPES:
        try:
            return np.array(obj, dtype=float)
        except OverflowError:
            pass
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(obj)])


def _integer(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{where}: expected an integer, got {obj!r}")
    return obj


@functools.cache
def _schema(cls: type, keyed: bool) -> tuple[dict, frozenset, frozenset]:
    """Readers of a dataclass's fields by name, and the keys a spec of it
    allows and needs (with a 'kind' when ``keyed``)."""
    readers = {"float": _number, "int": _integer}
    kind = frozenset({"kind"} if keyed else ())
    return (
        {f.name: readers[f.type] for f in fields(cls)},
        kind.union(f.name for f in fields(cls)),
        kind.union(f.name for f in fields(cls) if f.default is MISSING),
    )


def _build(cls: type, spec, where: str, keyed: bool = False):
    """The dataclass ``cls`` built from a JSON object of its fields."""
    readers, allowed, required = _schema(cls, keyed)
    _require_keys(spec, allowed, required, where)
    try:
        return cls(**{k: readers[k](v, k) for k, v in spec.items() if k != "kind"})
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _edge_function(
    spec, where: str, base_dir: Optional[Path], depth: int = 1
) -> ef.EdgeFunction:
    if depth > _MAX_NESTING:
        raise ValidationError(f"{where}: nested more than {_MAX_NESTING} levels deep")
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if isinstance(kind, str) and kind in _EDGE_KINDS:
        return _build(_EDGE_KINDS[kind], spec, where, keyed=True)
    if kind == "negated":
        _require_keys(spec, {"kind", "fn"}, {"fn"}, where)
        return ef.Negated(
            _edge_function(spec["fn"], where + ".fn", base_dir, depth + 1)
        )
    if kind == "sum":
        _require_keys(spec, {"kind", "terms"}, {"terms"}, where)
        if not isinstance(spec["terms"], list) or not spec["terms"]:
            raise ValidationError(f"{where}: 'terms' must be a non-empty list")
        return ef.Sum(
            tuple(
                _edge_function(t, f"{where}.terms[{i}]", base_dir, depth + 1)
                for i, t in enumerate(spec["terms"])
            )
        )
    if kind == "sampled_table":
        _require_keys(spec, {"kind", "csv", "zeta", "mu"}, set(), where)
        if "csv" not in spec:
            return ef.SampledTable(
                _numbers(spec.get("zeta"), where + ".zeta"),
                _numbers(spec.get("mu"), where + ".mu"),
            )
        if not isinstance(spec["csv"], str):
            raise ValidationError(f"{where}: 'csv' must be a path string")
        path = Path(spec["csv"])
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        return ef.SampledTable.load_csv(path)
    raise ValidationError(f"{where}: unknown edge function kind {kind!r}")


def _edge_rows(specs: list, base_dir: Optional[Path]) -> tuple[list, list]:
    """The edges and their functions in list order, read one edge at a time,
    raising the error of the first malformed edge."""
    edges, fns = [], []
    for i, e in enumerate(specs):
        where = f"edges[{i}]"
        _require_keys(e, _EDGE_KEYS, _EDGE_KEYS, where)
        edges.append(
            Edge(
                _integer(e["id"], where + ".id"),
                _integer(e["tail"], where + ".tail"),
                _integer(e["head"], where + ".head"),
            )
        )
        fns.append(_edge_function(e["fn"], where + ".fn", base_dir))
    return edges, fns


def _nested_plan(spec, base_dir: Optional[Path], depth: int, leaves: dict) -> tuple:
    """The shape of an edge function spec for ``_edge_columns``: (kind,
    position) for a flat analytic leaf appended to ``leaves[kind]``
    unchecked, (Negated, plan) or (Sum, plans) for a well-formed nested
    kind, else (None, the object) read by ``_edge_function``, whose
    ValidationError propagates (``_edge_rows`` then reports it)."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if depth <= _MAX_NESTING:
        if isinstance(kind, str) and kind in _EDGE_KINDS:
            group = leaves.setdefault(kind, [])
            group.append(spec)
            return kind, len(group) - 1
        if kind == "negated" and spec.keys() == _NEGATED_KEYS:
            return ef.Negated, _nested_plan(spec["fn"], base_dir, depth + 1, leaves)
        if kind == "sum" and spec.keys() == _SUM_KEYS:
            terms = spec["terms"]
            if isinstance(terms, list) and terms:
                return ef.Sum, [
                    _nested_plan(t, base_dir, depth + 1, leaves) for t in terms
                ]
    return None, _edge_function(spec, "edge function", base_dir, depth)


def _assemble(plan: tuple, built: dict) -> ef.EdgeFunction:
    """The edge function of a ``_nested_plan``, its flat leaves taken from
    ``built[kind]`` by position."""
    kind, arg = plan
    if kind is ef.Negated:
        return ef.Negated(_assemble(arg, built))
    if kind is ef.Sum:
        return ef.Sum(tuple(_assemble(t, built) for t in arg))
    return arg if kind is None else built[kind][arg]


def _edge_columns(specs: list, base_dir: Optional[Path]) -> Optional[tuple[list, list]]:
    """What ``_edge_rows`` returns, read a column at a time, or None when some
    edge is malformed.

    Each check runs once over a column: the keys and integers of all edges,
    then per flat analytic kind the keys, numbers and parameters
    (``edgefn.parameter_violation``) of its edges and of the flat terms
    nested in ``sum`` and ``negated`` specs, whose objects are then made
    without checking them again and assembled into their nested functions.
    Sampled tables take ``_edge_function``.
    """
    try:
        edges = list(map(Edge._make, map(_EDGE_ENDS, specs)))
        fn_specs = list(map(_FN, specs))
        positions: dict = {}
        for i, kind in enumerate(map(dict.get, fn_specs, repeat("kind"))):
            positions.setdefault(kind, []).append(i)
    except (KeyError, TypeError):  # not an object, a missing key, a list as kind
        return None
    if set(map(len, specs)) != {len(_EDGE_KEYS)}:
        return None
    if set(map(type, chain.from_iterable(edges))) != {int}:
        return None
    fns: list = [None] * len(specs)
    plans: dict = {}
    leaves: dict = {}
    try:
        for kind, at in positions.items():
            if kind not in _EDGE_KINDS:
                for i in at:
                    plans[i] = _nested_plan(fn_specs[i], base_dir, 1, leaves)
    except ValidationError:
        return None
    built: dict = {}
    for kind in {**positions, **leaves}:
        cls = _EDGE_KINDS.get(kind)
        if cls is None:
            continue
        at = positions.get(kind, ())
        group = [fn_specs[i] for i in at] + leaves.get(kind, [])
        _, allowed, required = _schema(cls, True)
        if not all(required <= set(keys) <= allowed for keys in set(map(tuple, group))):
            return None
        try:
            columns = {
                f.name: _numbers(
                    list(map(dict.get, group, repeat(f.name), repeat(f.default))), f.name
                )
                for f in fields(cls)
            }
        except ValidationError:
            return None
        if ef.parameter_violation(cls, columns) is not None:
            return None
        objs = ef.unchecked(cls, columns)
        for i, fn in zip(at, objs):
            fns[i] = fn
        built[kind] = objs[len(at):]
    for i, plan in plans.items():
        fns[i] = _assemble(plan, built)
    return edges, fns


def _dynamics(spec, where: str) -> nd.NodeDynamics:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not (isinstance(kind, str) and kind in _NODE_KINDS):
        raise ValidationError(f"{where}: unknown dynamics kind {kind!r}")
    return _build(_NODE_KINDS[kind], spec, where, keyed=True)


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
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply to read") from exc
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
        shared = _dynamics(dyn_spec, "nodes.dynamics")

    specs = doc["edges"]
    if not isinstance(specs, list) or not specs:
        raise ValidationError("edges: expected a non-empty list")
    edges, fns = _edge_columns(specs, base_dir) or _edge_rows(specs, base_dir)
    # The graph checks ids and ranges and sorts the edges by id.
    listed = tuple(edges)
    graph = Graph(count, listed)
    if graph.edges != listed:
        fns = [fn for _, fn in sorted(zip((e.id for e in listed), fns), key=itemgetter(0))]

    sim_cfg = _build(SimConfig, doc["sim"], "sim") if "sim" in doc else None

    initial_state = None
    if "initial_state" in doc:
        initial_state = _numbers(doc["initial_state"], "initial_state")
        if initial_state.shape != (count,) or not np.isfinite(initial_state).all():
            raise ValidationError(f"initial_state: expected {count} finite numbers")

    eqfun_spec = None
    if "eqfun" in doc:
        eqfun_spec = _build(EqfunSpec, doc["eqfun"], "eqfun")
        for v in (eqfun_spec.p, eqfun_spec.q):
            graph.node(v, "eqfun terminal")

    # A connected graph has at most one node more than it has edges.  The
    # system would reject more nodes anyway; rejecting them here, with its
    # message, spares allocating anything per node.
    if count > graph.edge_count + 1:
        raise ValidationError(NOT_CONNECTED)
    if not isinstance(dyn_spec, list):
        dynamics = (shared,) * count

    return NetworkConfig(
        graph=graph,
        dynamics=dynamics,
        edge_functions=tuple(fns),
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

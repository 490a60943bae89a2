"""Config parsing, validation diagnostics, and the command-line surface."""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signet import analysis, circuit, cli, config
from signet.config import load_config, parse_config
from signet.edgefn import (
    DeadZone, GridSpec, Linear, Negated, PowerSign, SampledTable, Sinusoid, Sum,
)
from signet.graph import Edge, Graph
from signet.errors import ParseError, ValidationError
from signet.sim import SimConfig

from conftest import CONFIG_DIR, reference_classify_edges, reference_edge_monotonicity

MINIMAL = {
    "nodes": {"count": 2},
    "edges": [
        {"id": 1, "tail": 1, "head": 2, "fn": {"kind": "linear", "w": 1.0}}
    ],
}


def doc(**overrides):
    merged = json.loads(json.dumps(MINIMAL))
    merged.update(overrides)
    return json.dumps(merged)


def test_minimal_config_parses():
    cfg = parse_config(doc())
    system = cfg.build_system()
    assert system.node_count == 2 and system.edge_count == 1
    assert cfg.sim is None and cfg.initial_state is None and cfg.eqfun is None


def test_eleven_node_config_parses(config_dir):
    cfg = load_config(config_dir / "eleven_node_negative_f1.json")
    assert cfg.node_count == 11 and len(cfg.edges) == 14
    weights = [f.w for f in cfg.edge_functions[:13]]
    alphas = [f.alpha for f in cfg.edge_functions[:13]]
    assert weights == [3, 2, 4, 1, 2, 1, 3, 2, 2, 1, 1, 1, 2]
    assert alphas == [0.4, 0.5, 0.2, 0.8, 0.4, 0.4, 0.5, 0.5, 0.5, 0.6, 0.8, 0.2, 0.5]
    assert isinstance(cfg.edge_functions[13], Negated)
    assert all(isinstance(f, PowerSign) for f in cfg.edge_functions[:13])


def test_config_keeps_its_validated_graph():
    cfg = parse_config(doc())
    assert cfg.build_system().graph is cfg.graph
    assert (cfg.node_count, cfg.edges) == (cfg.graph.node_count, cfg.graph.edges)


def test_edges_listed_out_of_id_order_keep_their_functions():
    listed = [
        {"id": 2, "tail": 2, "head": 3, "fn": {"kind": "linear", "w": 5.0}},
        {"id": 1, "tail": 1, "head": 2, "fn": {"kind": "linear", "w": -1.0}},
    ]
    system = parse_config(doc(nodes={"count": 3}, edges=listed)).build_system()
    by_id = {e.id: (e.tail, e.head) for e in system.graph.edges}
    assert by_id == {1: (1, 2), 2: (2, 3)}
    assert [f.w for f in system.edge_functions] == [-1.0, 5.0]


def test_edge_referencing_missing_node_rejected():
    bad = doc(edges=[{"id": 1, "tail": 1, "head": 12,
                      "fn": {"kind": "linear", "w": 1.0}}])
    with pytest.raises(ValidationError):
        parse_config(bad)


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ValidationError):
        parse_config(doc(extra=1))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({
            "nodes": {"count": 2, "color": "red"},
            "edges": MINIMAL["edges"],
        }))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({
            "nodes": {"count": 2},
            "edges": [{"id": 1, "tail": 1, "head": 2,
                       "fn": {"kind": "linear", "w": 1.0, "gain": 2.0}}],
        }))


def test_json_syntax_error_reports_line():
    with pytest.raises(ParseError, match="line"):
        parse_config("{\n  broken\n}")


def test_dynamics_list_length_checked():
    bad = json.dumps({
        "nodes": {"count": 2, "dynamics": [{"kind": "identity"}]},
        "edges": MINIMAL["edges"],
    })
    with pytest.raises(ValidationError):
        parse_config(bad)


def test_dynamics_kinds_parse():
    text = json.dumps({
        "nodes": {"count": 2, "dynamics": [
            {"kind": "sign_power", "c": 2.0, "beta": 0.5},
            {"kind": "saturating", "c": 1.0, "s": 2.0},
        ]},
        "edges": MINIMAL["edges"],
    })
    cfg = parse_config(text)
    assert cfg.dynamics[0].gamma(4.0) == 4.0
    assert cfg.dynamics[1].gamma(0.0) == 0.0


def test_initial_state_length_checked():
    with pytest.raises(ValidationError):
        parse_config(doc(initial_state=[1.0, 2.0, 3.0]))


def test_inline_sampled_table_and_nesting():
    text = json.dumps({
        "nodes": {"count": 2},
        "edges": [{
            "id": 1, "tail": 1, "head": 2,
            "fn": {"kind": "sum", "terms": [
                {"kind": "linear", "w": 1.0},
                {"kind": "negated",
                 "fn": {"kind": "sampled_table",
                        "zeta": [-1.0, 0.0, 1.0], "mu": [-0.5, 0.0, 0.5]}},
            ]},
        }],
    })
    cfg = parse_config(text)
    assert cfg.edge_functions[0](2.0) == pytest.approx(1.0)


def test_sampled_table_csv_resolved_relative_to_config(tmp_path):
    SampledTable((-1.0, 0.0, 1.0), (-2.0, 0.0, 2.0)).save_csv(tmp_path / "t.csv")
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({
        "nodes": {"count": 2},
        "edges": [{"id": 1, "tail": 1, "head": 2,
                   "fn": {"kind": "sampled_table", "csv": "t.csv"}}],
    }))
    cfg = load_config(cfg_path)
    assert cfg.edge_functions[0](0.5) == 1.0


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_cli_simulate_series(config_dir, tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", config_dir / "three_node_series.json",
                   "--out", out) == 0
    outcome = (out / "outcome.txt").read_text()
    assert "outcome: agreement" in outcome
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,y1,y2,y3"


def test_cli_simulate_six_node_agreement(config_dir, tmp_path):
    out = tmp_path / "six"
    assert run_cli("simulate", "--config", config_dir / "six_node_agreement.json",
                   "--out", out) == 0
    assert "outcome: agreement" in (out / "outcome.txt").read_text()


def test_shipped_equivalent_edge_csv_matches_library(config_dir, eleven_table):
    table = SampledTable.load_csv(config_dir / "eleven_node_equivalent_edge.csv")
    assert np.array_equal(np.asarray(table.zetas), eleven_table.zetas)
    assert np.array_equal(np.asarray(table.mus), eleven_table.mus)


def test_cli_outputs_are_deterministic(config_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("simulate", "--config",
                       config_dir / "six_node_clustering.json", "--out", out) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "outcome.txt").read_bytes() == (b / "outcome.txt").read_bytes()


def test_cli_classify_negated_power_edge(tmp_path):
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps({
        "nodes": {"count": 3},
        "edges": [
            {"id": 1, "tail": 1, "head": 2, "fn": {"kind": "linear", "w": 1.0}},
            {"id": 2, "tail": 2, "head": 3,
             "fn": {"kind": "negated", "fn": {"kind": "power_sign", "w": 2.0,
                                              "alpha": 0.5}}},
        ],
    }))
    out = tmp_path / "out"
    assert run_cli("classify", "--config", cfg, "--out", out) == 0
    rows = (out / "classification.csv").read_text().splitlines()
    assert rows[0] == "edge_id,label,margin,witness"
    labels = [r.split(",")[1] for r in rows[1:]]
    assert labels.count("strictly_negative") == 1


def test_cli_eqfun_row_count(config_dir, tmp_path):
    out = tmp_path / "eq"
    assert run_cli("eqfun", "--config", config_dir / "three_node_series.json",
                   "--out", out) == 0
    rows = (out / "eqfun.csv").read_text().splitlines()
    assert rows[0] == "zeta,mu"
    assert len(rows) == 1 + 2001
    # importable straight back as an edge function
    table = SampledTable.load_csv(out / "eqfun.csv")
    assert table(3.0) == pytest.approx(1.0, abs=1e-8)


def test_cli_predict_reports(config_dir, tmp_path):
    out = tmp_path / "pred"
    assert run_cli("predict", "--config",
                   config_dir / "linear_threshold_below.json", "--out", out,
                   "--grid-m", 401) == 0
    text = (out / "prediction.txt").read_text()
    assert "verdict: agreement_guaranteed" in text
    assert "strict-equivalent-passivity" in text


def test_cli_validation_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "nodes": {"count": 2},
        "edges": [{"id": 1, "tail": 1, "head": 5,
                   "fn": {"kind": "linear", "w": 1.0}}],
    }))
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
    assert run_cli("simulate", "--config", tmp_path / "missing.json",
                   "--out", tmp_path / "o2") == 2


def assert_one_line_validation_error(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ValidationError")
    assert "Traceback" not in err


def test_cli_rejects_infinite_t_end(tmp_path, capsys):
    cfg = tmp_path / "inf.json"
    cfg.write_text(doc(sim={"t_end": float("inf")}, initial_state=[1.0, -1.0]))
    assert "Infinity" in cfg.read_text()
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
    assert_one_line_validation_error(capsys)
    assert not (tmp_path / "o" / "outcome.txt").exists()


@pytest.mark.parametrize("sim", [
    {"t_end": 1e6, "dt": 1e-3},  # 1e9 steps
    {"t_end": 1e4, "dt": 1e-3, "record_every": 1},  # 1e7 recorded rows
])
def test_cli_rejects_oversized_runs_while_parsing(tmp_path, capsys, sim):
    # Validation only: stop here rather than start such a run if the
    # limits are missing; the CLI must fail while parsing the config.
    with pytest.raises(ValidationError):
        SimConfig(**sim)
    cfg = tmp_path / "long.json"
    cfg.write_text(doc(sim=sim, initial_state=[1.0, -1.0]))
    for command in ("simulate", "classify"):
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert_one_line_validation_error(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", [10**12, 3])
def test_cli_rejects_more_nodes_than_a_connected_graph_has(tmp_path, capsys, count):
    # One edge connects at most two nodes; nothing is allocated per node
    # before the count is rejected, so even 10^12 nodes fail at once.
    cfg = tmp_path / "nodes.json"
    cfg.write_text(doc(nodes={"count": count}))
    start = time.perf_counter()
    assert run_cli("classify", "--config", cfg, "--out", tmp_path / "o") == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "error: ValidationError: network graph must be connected\n")


def test_cli_rejects_nan_edge_weight(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text(doc(edges=[{"id": 1, "tail": 1, "head": 2,
                               "fn": {"kind": "linear", "w": float("nan")}}]))
    assert "NaN" in cfg.read_text()
    assert run_cli("classify", "--config", cfg, "--out", tmp_path / "o") == 2
    assert_one_line_validation_error(capsys)
    assert not (tmp_path / "o" / "classification.csv").exists()


@pytest.mark.parametrize("command", ["classify", "predict"])
@pytest.mark.parametrize("half_width", ["inf", "nan", "1e200"])
def test_cli_rejects_unusable_grid_half_width(tmp_path, capsys, command, half_width):
    # 1e200 is finite, but the classifier squares the grid points
    cfg = tmp_path / "net.json"
    cfg.write_text(doc())
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "o",
                   "--grid-n", half_width) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: InvalidGrid")


def assert_one_error_line(capsys, kind):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {kind}")


@pytest.mark.parametrize("eqfun", [
    {"n": 1e200}, {"n": float("inf")}, {"n": float("nan")}, {"n": 0}, {"n": -1},
    {"samples": 1}, {"samples": 100},
])
def test_cli_rejects_unusable_eqfun_grid(tmp_path, capsys, eqfun):
    # 1e200 is finite, but the margins square the grid points
    cfg = tmp_path / "net.json"
    cfg.write_text(doc(eqfun={"p": 1, "q": 2, **eqfun}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("eqfun", "--config", cfg, "--out", tmp_path / "o") == 2
    assert not caught
    assert_one_error_line(capsys, "InvalidGrid")
    assert not (tmp_path / "o" / "eqfun.csv").exists()


def negations(levels):
    """A one-edge config whose edge function nests ``levels`` deep."""
    fn = {"kind": "linear", "w": 1.0}
    for _ in range(levels - 1):
        fn = {"kind": "negated", "fn": fn}
    return doc(edges=[{"id": 1, "tail": 1, "head": 2, "fn": fn}])


def test_cli_rejects_deeply_nested_edge_function(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text(negations(600))
    assert run_cli("classify", "--config", cfg, "--out", tmp_path / "o") == 2
    assert_one_line_validation_error(capsys)
    parse_config(negations(config._MAX_NESTING)).build_system()
    with pytest.raises(ValidationError, match="nested"):
        parse_config(negations(config._MAX_NESTING + 1))


def test_cli_rejects_deeply_nested_json(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    assert run_cli("classify", "--config", cfg, "--out", tmp_path / "o") == 2
    assert_one_error_line(capsys, "ParseError")


@pytest.mark.parametrize("table", [
    {"zeta": 5, "mu": [0.0]},
    {"zeta": [-1.0, 0.0, 1.0], "mu": 5},
    {"csv": 5},
])
def test_cli_rejects_malformed_sampled_table_fields(tmp_path, capsys, table):
    cfg = tmp_path / "net.json"
    cfg.write_text(doc(edges=[{"id": 1, "tail": 1, "head": 2,
                               "fn": {"kind": "sampled_table", **table}}]))
    assert run_cli("classify", "--config", cfg, "--out", tmp_path / "o") == 2
    assert_one_line_validation_error(capsys)


@pytest.mark.parametrize("command", ["classify", "predict"])
def test_cli_rejects_overflowing_edge_products(tmp_path, capsys, command):
    # 1e308 * sqrt(100) overflows; no numpy warning may reach stderr
    cfg = tmp_path / "huge.json"
    cfg.write_text(doc(edges=[{"id": 1, "tail": 1, "head": 2,
                               "fn": {"kind": "power_sign", "w": 1e308,
                                      "alpha": 0.5}}]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert_one_line_validation_error(capsys)
    assert not any((tmp_path / "o").glob("*.*"))


def test_cli_solver_failure_exit_code(tmp_path):
    # unbounded growth with the blowup guard parked at infinity overflows
    cfg = tmp_path / "grow.json"
    cfg.write_text(json.dumps({
        "nodes": {"count": 2},
        "edges": [{"id": 1, "tail": 1, "head": 2,
                   "fn": {"kind": "linear", "w": -1.0}}],
        "sim": {"t_end": 500.0, "dt": 0.05, "record_every": 100,
                "blowup_threshold": 1e309},
        "initial_state": [1.0, -1.0],
    }).replace("Infinity", "1e309"))
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 3


def test_cli_eqfun_warns_in_one_line_per_edge(tmp_path, capsys):
    # a dead zone makes the operating point non-unique; the linear edge is fine
    cfg = tmp_path / "chain.json"
    cfg.write_text(doc(
        nodes={"count": 3},
        edges=[
            {"id": 1, "tail": 1, "head": 2,
             "fn": {"kind": "dead_zone", "w": 1.0, "band": 1.0}},
            {"id": 2, "tail": 2, "head": 3, "fn": {"kind": "linear", "w": 1.0}},
        ],
        eqfun={"p": 1, "q": 3, "samples": 11},
    ))
    assert run_cli("eqfun", "--config", cfg, "--out", tmp_path / "o") == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: edge 1:")
    assert "non-unique" in err and ".py" not in err and "/" not in err
    assert (tmp_path / "o" / "eqfun.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "eqfun"])
def test_cli_grid_flags_only_on_grid_commands(config_dir, tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", config_dir / "three_node_series.json",
                "--out", tmp_path / "o", "--grid-m", 5)
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "net.json", "--out", "o", "--bogus"],
    ["simulate", "--out", "o"],
    ["frobnicate", "--config", "net.json", "--out", "o"],
])
def test_cli_usage_errors_print_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert_one_error_line(capsys, "usage: ")


@pytest.mark.parametrize("edge, w", [(2, -1.0), (1, -2.0)])
def test_cli_eqfun_fails_fast_on_unbounded_objective(config_dir, tmp_path, capsys, edge, w):
    # A negative linear edge makes the cocontent unbounded below; the solve
    # stops at the first non-finite value, with no numpy warning escaping.
    document = json.loads((config_dir / "three_node_series.json").read_text())
    document["edges"][edge - 1]["fn"]["w"] = w
    document["eqfun"]["samples"] = 11
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps(document))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("eqfun", "--config", cfg, "--out", tmp_path / "o") == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith(f"warning: edge {edge}:")
    assert lines[1].startswith("error: NoConvergence") and "not finite" in lines[1]


def test_shipped_configs_all_parse(config_dir):
    for path in sorted(config_dir.glob("*.json")):
        cfg = load_config(path)
        cfg.build_system()


SHIPPED = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_classify_and_predict_artifacts_match_per_edge_reference(
    tmp_path, monkeypatch, name
):
    config = CONFIG_DIR / name
    system = load_config(config).build_system()
    for grid_m in (2001, 401):
        out = tmp_path / f"classify{grid_m}"
        assert run_cli("classify", "--config", config, "--out", out,
                       "--grid-m", grid_m) == 0
        classes = reference_classify_edges(system, GridSpec(100.0, grid_m))
        rows = ["edge_id,label,margin,witness"] + [
            f"{e.id},{c.label.value},{format(c.margin, '.17g')},"
            + ("" if c.witness is None else format(c.witness, ".17g"))
            for e, c in zip(system.graph.edges, classes)
        ]
        assert (out / "classification.csv").read_text() == "\n".join(rows) + "\n"

    # Each equivalent-edge sweep runs once; the two predictions share it.
    sweeps = {}
    sweep = analysis.equivalent_edge_function

    def sweep_once(part, p, q, *args, **kwargs):
        if (p, q) not in sweeps:
            sweeps[p, q] = sweep(part, p, q, *args, **kwargs)
        return sweeps[p, q]

    monkeypatch.setattr(analysis, "equivalent_edge_function", sweep_once)
    grouped, per_edge = tmp_path / "grouped", tmp_path / "per_edge"
    assert run_cli("predict", "--config", config, "--out", grouped,
                   "--grid-m", 401) == 0
    monkeypatch.setattr(analysis, "classify_edges", reference_classify_edges)
    monkeypatch.setattr(analysis, "edge_monotonicity", reference_edge_monotonicity)
    assert run_cli("predict", "--config", config, "--out", per_edge,
                   "--grid-m", 401) == 0
    text = (grouped / "prediction.txt").read_bytes()
    assert text == (per_edge / "prediction.txt").read_bytes()
SMALL = [name for name in SHIPPED if name.startswith(("three_", "linear_", "six_"))]

# Integers stay within +-1000 so that no mutation allocates millions of nodes.
json_numbers = (
    st.integers(-1000, 1000) | st.floats(-1e3, 1e3)
    | st.sampled_from([0, 0.0, -0.0, 1e-300, 1e308, float("nan"), float("inf"), -float("inf")])
)


def _json_containers(inner):
    # A named function: hypothesis reads a multi-line lambda's source to
    # check that it recurses, and sometimes misreads it.
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | json_numbers,
    _json_containers,
    max_leaves=6,
)


def _locations(node, at=()):
    """(key/index path, value) of every position in a JSON document."""
    yield at, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _locations(child, at + (key,))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _mutate(document, data):
    """One random edit in place: a new number, a negated number, a value of
    another type, a dropped key or entry, or an added key."""
    # Number edits are the likeliest to leave a config that still parses.
    action = data.draw(st.sampled_from(
        ["number"] * 3 + ["negate"] * 2 + ["retype", "drop", "add"]))
    wanted = {"number": _is_number, "negate": _is_number,
              "add": lambda v: isinstance(v, dict)}.get(action, lambda v: True)
    spots = [at for at, value in _locations(document) if at and wanted(value)]
    at = data.draw(st.sampled_from(spots))
    parent = document
    for key in at[:-1]:
        parent = parent[key]
    key = at[-1]
    if action == "number":
        parent[key] = data.draw(json_numbers)
    elif action == "negate":
        parent[key] = -parent[key]
    elif action == "retype":
        parent[key] = data.draw(json_values)
    elif action == "drop":
        del parent[key]
    else:
        parent[key][data.draw(st.sampled_from(["w", "kind", "band", "extra"]))] = (
            data.draw(json_values))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Scratch directory holding the shipped tables that configs refer to."""
    root = tmp_path_factory.mktemp("fuzz")
    for table in CONFIG_DIR.glob("*.csv"):
        shutil.copy(table, root / table.name)
    return root


@given(data=st.data())
@settings(max_examples=1200, deadline=None)
def test_cli_exit_code_contract_under_mutated_configs(fuzz_dir, data):
    name = data.draw(st.sampled_from(SHIPPED))
    document = json.loads((CONFIG_DIR / name).read_text())
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(document, data)
    cfg = fuzz_dir / "mutated.json"
    cfg.write_text(json.dumps(document))
    runs = [("classify", cfg)]
    if name in SMALL:
        runs.append(("predict", cfg, "--grid-m", 101))
    eqfun = document.get("eqfun")
    if isinstance(eqfun, dict) and type(eqfun.get("samples")) is int:
        # At most 11 samples keep the sweep cheap.
        eqfun["samples"] = min(eqfun["samples"], 11)
        eqfun_cfg = fuzz_dir / "mutated_eqfun.json"
        eqfun_cfg.write_text(json.dumps(document))
        runs.append(("eqfun", eqfun_cfg))
    for command, path, *extra in runs:
        err = io.StringIO()
        # Shipped sweeps at 11 samples need at most 9 Newton iterations per
        # sample; a bounded nonconvex mutation could spend 10^4 before exit 3.
        with contextlib.redirect_stderr(err), mock.patch.object(circuit, "_MAX_ITER", 300):
            code = run_cli(command, "--config", path, "--out", fuzz_dir / "out", *extra)
        assert code in (0, 2, 3)
        lines = err.getvalue().splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        warned = [line for line in lines if line.startswith("warning: ")]
        assert len(errors) + len(warned) == len(lines)
        assert command == "eqfun" or not warned
        if code:
            assert lines and errors == [lines[-1]]
        else:
            assert not errors


# --- the columnar edge reader ------------------------------------------------
# Flat kinds with their parameter strategies; ints stand in for floats too.
FLAT_KINDS = {
    "linear": (Linear, {"w": st.integers(-5, 5) | st.floats(-10, 10)}),
    "dead_zone": (DeadZone, {"w": st.integers(-5, 5) | st.floats(-10, 10),
                             "band": st.integers(1, 4) | st.floats(0.1, 5)}),
    "power_sign": (PowerSign, {"w": st.integers(-5, 5) | st.floats(-10, 10),
                               "alpha": st.floats(0.05, 0.95)}),
    "sinusoid": (Sinusoid, {"a": st.integers(-5, 5) | st.floats(-10, 10)}),
}
EDGE_KEYS = {"id", "tail", "head", "fn"}


@st.composite
def flat_fn_specs(draw):
    """A flat-kind spec, keys in a random order, a dead zone's band
    sometimes left to its default."""
    kind = draw(st.sampled_from(sorted(FLAT_KINDS)))
    params = {name: draw(values) for name, values in FLAT_KINDS[kind][1].items()}
    if kind == "dead_zone" and draw(st.booleans()):
        del params["band"]
    items = [("kind", kind)] + list(params.items())
    return dict(draw(st.permutations(items)))


def _sum_specs(terms):
    return st.builds(lambda ts: {"kind": "sum", "terms": ts},
                     st.lists(terms, min_size=1, max_size=3))


# Flat specs, sums of 1-3 flat terms, negations of either, and a sum of
# negations: nested up to three levels.
fn_specs = st.one_of(
    flat_fn_specs(),
    _sum_specs(flat_fn_specs()),
    st.builds(lambda fn: {"kind": "negated", "fn": fn},
              flat_fn_specs() | _sum_specs(flat_fn_specs())),
    _sum_specs(st.builds(lambda fn: {"kind": "negated", "fn": fn}, flat_fn_specs())),
)


@st.composite
def edge_configs(draw):
    """Config documents of 1..12 edges on at most edges + 1 nodes, listed in
    a random order, each function flat or nested over flat terms."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(2, m + 1))
    edges = []
    for k in range(1, m + 1):
        tail = draw(st.integers(1, n))
        head = draw(st.integers(1, n).filter(lambda v: v != tail))
        edges.append({"id": k, "tail": tail, "head": head, "fn": draw(fn_specs)})
    return {"nodes": {"count": n}, "edges": draw(st.permutations(edges))}


def _as_float(v):
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _key_fault(fn, allowed, required, where):
    if set(fn) - allowed:
        return f"{where}: unknown keys {sorted(set(fn) - allowed)}"
    if required - set(fn):
        return f"{where}: missing keys {sorted(required - set(fn))}"
    return None


def _fn_fault(fn, where, depth=1):
    """The error of one edge function spec: its nesting depth, its kind,
    its keys, then a nested kind's parts in order, or a flat kind's numbers
    in key order and its constructor."""
    if depth > config._MAX_NESTING:
        return f"{where}: nested more than {config._MAX_NESTING} levels deep"
    kind = fn.get("kind") if isinstance(fn, dict) else None
    if kind == "negated":
        return (_key_fault(fn, {"kind", "fn"}, {"fn"}, where)
                or _fn_fault(fn["fn"], where + ".fn", depth + 1))
    if kind == "sum":
        fault = _key_fault(fn, {"kind", "terms"}, {"terms"}, where)
        if fault is not None:
            return fault
        if not (isinstance(fn["terms"], list) and fn["terms"]):
            return f"{where}: 'terms' must be a non-empty list"
        faults = (_fn_fault(t, f"{where}.terms[{i}]", depth + 1)
                  for i, t in enumerate(fn["terms"]))
        return next(filter(None, faults), None)
    if kind not in FLAT_KINDS:
        return f"{where}: unknown edge function kind {kind!r}"
    cls = FLAT_KINDS[kind][0]
    fault = _key_fault(
        fn, {f.name for f in dataclasses.fields(cls)} | {"kind"},
        {"kind"} | {f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING},
        where,
    )
    if fault is not None:
        return fault
    params = {}
    for key, v in fn.items():
        if key == "kind":
            continue
        if type(v) not in (int, float):
            return f"{where}: {key}: expected a number, got {v!r}"
        params[key] = _as_float(v)
    try:
        cls(**params)
    except ValidationError as exc:
        return f"{where}: {exc}"
    return None


def _edge_fault(e, where):
    """The error of one edge alone: key and integer checks, then its fn."""
    if not isinstance(e, dict):
        return f"{where}: expected an object"
    fault = _key_fault(e, EDGE_KEYS, EDGE_KEYS, where)
    if fault is not None:
        return fault
    for key in ("id", "tail", "head"):
        if type(e[key]) is not int:
            return f"{where}.{key}: expected an integer, got {e[key]!r}"
    return _fn_fault(e["fn"], where + ".fn")


def _expected_error(doc):
    """The first faulty edge by list position, else the graph's checks:
    dense ids, then per edge in id order a self-loop and each endpoint."""
    edges, n = doc["edges"], doc["nodes"]["count"]
    for i, e in enumerate(edges):
        fault = _edge_fault(e, f"edges[{i}]")
        if fault is not None:
            return fault
    if sorted(e["id"] for e in edges) != list(range(1, len(edges) + 1)):
        return "edge ids must be unique and dense (1..|E|)"
    for e in sorted(edges, key=lambda e: e["id"]):
        if e["tail"] == e["head"]:
            return f"edge {e['id']} is a self-loop"
        for v in (e["tail"], e["head"]):
            if not 1 <= v <= n:
                return f"edge {e['id']} endpoint {v} out of range 1..{n}"
    return None


def _specs_in(fn, kinds):
    """The dict specs of the given kinds anywhere in an edge function."""
    if not isinstance(fn, dict):
        return []
    found = [fn] if fn.get("kind") in kinds else []
    if fn.get("kind") == "negated":
        found += _specs_in(fn.get("fn"), kinds)
    if fn.get("kind") == "sum" and isinstance(fn.get("terms"), list):
        for term in fn["terms"]:
            found += _specs_in(term, kinds)
    return found


def _inject(doc, data):
    """One fault at a random edge: a bad number, a bad parameter, a key too
    many or too few, a non-integer or duplicate id, a self-loop, a node out
    of range, a fault inside a flat term of a nested function, an empty
    sum, or nesting near and beyond the limit."""
    edges, n = doc["edges"], doc["nodes"]["count"]
    i = data.draw(st.integers(0, len(edges) - 1))
    e = edges[i]
    fault = data.draw(st.sampled_from([
        "number", "alpha", "band", "edge_key", "fn_key", "drop_edge_key",
        "drop_fn_key", "id", "duplicate", "self_loop", "range", "term",
        "empty_terms", "deep",
    ]))
    fn = e.get("fn") if isinstance(e.get("fn"), dict) else {}
    if fault == "term":
        # The same faults, on a flat spec at any depth of the function.
        flat = _specs_in(fn, FLAT_KINDS.keys())
        if not flat:
            return
        fn = data.draw(st.sampled_from(flat))
        fault = data.draw(st.sampled_from(["number", "fn_key", "drop_fn_key", "param"]))
        if fault == "param":
            fn.clear()
            fn.update(data.draw(st.sampled_from([
                {"kind": "power_sign", "w": 1, "alpha": 1.5},
                {"kind": "dead_zone", "w": 2.0, "band": -0.5},
                {"kind": "linear", "w": float("inf")},
                {"kind": "ramp", "w": 1.0},
            ])))
    names = [k for k in fn if k != "kind"]
    if fault == "number" and names:
        fn[data.draw(st.sampled_from(names))] = data.draw(st.sampled_from(
            [True, False, "1.0", 10**400, -10**400, None, [1.0]]))
    elif fault == "alpha":
        e["fn"] = {"kind": "power_sign", "w": 1,
                   "alpha": data.draw(st.sampled_from([0, 1, 0.0, 1.0, 1.5, -0.25]))}
    elif fault == "band":
        e["fn"] = {"kind": "dead_zone", "w": 2.0,
                   "band": data.draw(st.sampled_from([0, 0.0, -1, -0.5]))}
    elif fault == "edge_key":
        e["extra"] = 1
    elif fault == "fn_key" and fn:
        fn["gain"] = 1.0
    elif fault == "drop_edge_key" and e:
        del e[data.draw(st.sampled_from(sorted(e)))]
    elif fault == "drop_fn_key" and names:
        del fn[data.draw(st.sampled_from(names))]
    elif fault == "id" and "id" in e:
        e["id"] = data.draw(st.sampled_from([1.0, "1", True, None, 2.5]))
    elif fault == "duplicate" and len(edges) > 1:
        j = data.draw(st.integers(0, len(edges) - 1).filter(lambda j: j != i))
        e["id"] = edges[j].get("id", 1)
    elif fault == "self_loop" and "tail" in e:
        e["head"] = e["tail"]
    elif fault == "range":
        e[data.draw(st.sampled_from(["tail", "head"]))] = data.draw(
            st.sampled_from([0, -3, n + 1, n + 7, 10**400]))
    elif fault == "empty_terms":
        sums = _specs_in(fn, {"sum"})
        target = data.draw(st.sampled_from(sums)) if sums else fn
        target.clear()
        target.update({"kind": "sum", "terms": []})
    elif fault == "deep" and "fn" in e:
        # Wrapping the function in _MAX_NESTING - 1 negations keeps a flat
        # one within the limit; one more puts it a level beyond.
        for _ in range(config._MAX_NESTING - data.draw(st.integers(0, 1))):
            e["fn"] = {"kind": "negated", "fn": e["fn"]}


@given(doc=edge_configs(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_columnar_edges_report_the_first_fault(doc, data):
    for _ in range(data.draw(st.integers(1, 2))):
        _inject(doc, data)
    want = _expected_error(doc)
    assume(want is not None)
    with pytest.raises(ValidationError) as caught:
        parse_config(json.dumps(doc))
    assert str(caught.value) == want


def _expected_fn(fn):
    """The edge function of a well-formed spec, built by its constructors."""
    if fn["kind"] == "negated":
        return Negated(_expected_fn(fn["fn"]))
    if fn["kind"] == "sum":
        return Sum(tuple(map(_expected_fn, fn["terms"])))
    return FLAT_KINDS[fn["kind"]][0](
        **{k: float(v) for k, v in fn.items() if k != "kind"})


def _flat_terms(fn):
    if isinstance(fn, Negated):
        return _flat_terms(fn.inner)
    if isinstance(fn, Sum):
        return [leaf for term in fn.terms for leaf in _flat_terms(term)]
    return [fn]


@given(doc=edge_configs())
@settings(max_examples=300, deadline=None)
def test_columnar_edges_equal_constructed_objects(doc):
    by_id = sorted(doc["edges"], key=lambda e: e["id"])
    # Valid configs of flat and nested kinds never fall back to the
    # edge-by-edge reader.
    with mock.patch.object(config, "_edge_rows", side_effect=AssertionError):
        cfg = parse_config(json.dumps(doc))
    n = doc["nodes"]["count"]
    assert cfg.graph == Graph(n, tuple(Edge(e["id"], e["tail"], e["head"]) for e in by_id))
    assert cfg.edge_functions == tuple(_expected_fn(e["fn"]) for e in by_id)
    for fn in cfg.edge_functions:
        for leaf in _flat_terms(fn):
            assert all(type(getattr(leaf, f.name)) is float
                       for f in dataclasses.fields(leaf))

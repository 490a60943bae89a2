"""Tests of the benchmark itself: generator, output checks, tracing, contract."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import metrics
import spans
from signet import cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = ROOT / "configs"


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(name):
    a = gen.make_workload(name, 7, CONFIGS)
    b = gen.make_workload(name, 7, CONFIGS)
    c = gen.make_workload(name, 8, CONFIGS)
    assert a.manifest() == b.manifest()
    assert a.files == b.files
    assert a.files != c.files
    keys = [j.key for j in a.jobs]
    assert len(keys) == len(set(keys))
    for job in a.jobs:
        assert job.config.startswith("configs/") or job.config in a.files


def _run(tmp_path, command, config, *args):
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out), *args]) == 0
    return out


def _corrupt(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, count))


def _rejects(job, config, out) -> bool:
    try:
        checks.check_job(job, config, out, ROOT)
    except checks.CheckFailed:
        return True
    return False


def test_simulate_check_rejects_corrupted_artifacts(tmp_path):
    config = CONFIGS / "linear_threshold_boundary.json"
    job = gen.Job("k", "simulate", str(config),
                  check={"kind": "simulate", "outcome": "clustering", "clusters": 3,
                         "conserves_sum": True})
    out = _run(tmp_path, "simulate", config)
    checks.check_job(job, config, out, ROOT)
    pristine = {p.name: p.read_text() for p in out.iterdir()}

    def restore():
        for name, text in pristine.items():
            (out / name).write_text(text)

    _corrupt(out / "outcome.txt", "clusters: 3", "clusters: 2")
    assert _rejects(job, config, out)
    restore()
    _corrupt(out / "outcome.txt", "outcome: clustering", "outcome: agreement")
    assert _rejects(job, config, out)
    restore()
    rows = pristine["trajectory.csv"].splitlines()
    fields = rows[5].split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    rows[5] = ",".join(fields)
    (out / "trajectory.csv").write_text("\n".join(rows) + "\n")
    assert _rejects(job, config, out)  # the sum of the states moved
    restore()
    (out / "trajectory.csv").write_text("\n".join(rows[:1] + rows[2:]) + "\n")
    assert _rejects(job, config, out)  # no longer starts at the initial state


def test_eqfun_check_rejects_corrupted_artifacts(tmp_path):
    config = CONFIGS / "three_node_series.json"
    job = gen.Job("k", "eqfun", str(config), check={"kind": "eqfun"})
    out = _run(tmp_path, "eqfun", config)
    checks.check_job(job, config, out, ROOT)
    table = out / "eqfun.csv"
    pristine = table.read_text()
    rows = pristine.splitlines()
    z, mu = rows[1500].split(",")
    rows[1500] = f"{z},{float(mu) * (1 + 1e-6)!r}"
    table.write_text("\n".join(rows) + "\n")
    assert _rejects(job, config, out)  # off zeta / R_eff

    # The reference comparison, with the shipped table as the artifact.
    config = CONFIGS / "eleven_node_positive.json"
    job = gen.Job("k", "eqfun", str(config),
                  check={"kind": "eqfun", "reference": "configs/eleven_node_equivalent_edge.csv"})
    shutil.copy(CONFIGS / "eleven_node_equivalent_edge.csv", table)
    checks.check_job(job, config, out, ROOT)
    rows = table.read_text().splitlines()
    z, mu = rows[1800].split(",")
    rows[1800] = f"{z},{float(mu) + 1e-4!r}"
    table.write_text("\n".join(rows) + "\n")
    assert _rejects(job, config, out)
    rows = table.read_text().splitlines()
    rows[1001] = "0,0.5"
    table.write_text("\n".join(rows) + "\n")
    assert _rejects(job, config, out)  # nonzero at the origin


def test_predict_check_rejects_corrupted_artifacts(tmp_path):
    config = CONFIGS / "linear_threshold_above.json"
    job = gen.Job("k", "predict", str(config), ("--grid-m", "401"),
                  check={"kind": "predict", "verdict": "no_guarantee", "applied_result": "none"})
    out = _run(tmp_path, "predict", config, "--grid-m", "401")
    checks.check_job(job, config, out, ROOT)
    _corrupt(out / "prediction.txt", "verdict: no_guarantee", "verdict: agreement_guaranteed")
    assert _rejects(job, config, out)
    # The eigenvalue oracle alone, without an expected verdict.
    bare = gen.Job("k", "predict", str(config), ("--grid-m", "401"), check={"kind": "predict"})
    assert _rejects(bare, config, out)

    config = CONFIGS / "linear_threshold_boundary.json"
    job = gen.Job("k", "predict", str(config), ("--grid-m", "401"),
                  check={"kind": "predict", "cluster_counts": [1, 3]})
    out = _run(tmp_path, "predict", config, "--grid-m", "401")
    checks.check_job(job, config, out, ROOT)
    _corrupt(out / "prediction.txt", "cluster_counts: 1,3", "cluster_counts: 1,4")
    assert _rejects(job, config, out)


def test_traced_spans_nest_from_cli_to_the_solver(tmp_path):
    original = cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        config = CONFIGS / "linear_threshold_below.json"
        cli.main(["predict", "--config", str(config), "--out", str(tmp_path), "--grid-m", "101"])
    finally:
        tracer.uninstall()
    assert cli.main is original
    by_id = {s[0]: s for s in tracer.spans}
    for span in tracer.spans:
        assert span[1] is None or span[1] in by_id
        assert span[3] <= span[4]

    def ancestors(span):
        names = []
        while span[1] is not None:
            span = by_id[span[1]]
            names.append(span[2])
        return names

    solves = [s for s in tracer.spans if s[2] == "circuit.solve_operating_point"]
    assert solves
    chain = ancestors(solves[0])
    for name in ("circuit.equivalent_edge_function", "analysis.equivalent_passivity_condition",
                 "analysis.predict", "cli.main"):
        assert name in chain
    assert chain[-1] == "cli.main"
    values = metrics.per_layer_values(tracer.metrics())
    assert values["circuit.samples"] == 101
    assert values["circuit.op_calls"] == 102  # both half-sweeps solve zeta = 0
    assert values["analysis.branch.strict-equivalent-passivity"] == 1


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_matches_the_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    assert doc["end_to_end"] == metrics.benchmark_entries("end_to_end")
    assert doc["per_layer"] == metrics.benchmark_entries("per_layer")
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in doc[kind]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Catalog of the benchmark's metrics.

``BENCHMARK.json`` lists the same names, units and directions; a test keeps
the two in step.  ``moves`` records, for each per-layer metric, the
end-to-end metric and workload a change to that layer should move, so that
a later performance change can state its prediction in these names.
"""

from __future__ import annotations

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "why": "fresh interpreter until `import signet.cli` returns, median of 9; "
            "every CLI invocation pays it"},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "why": "successful jobs over the wall time of the passes, one client"},
    {"name": "job_p50_s", "unit": "s", "better": "lower", "bound": 0.25,
     "why": "median over jobs of each job's median wall time"},
    {"name": "job_tail_s", "unit": "s", "better": "lower", "bound": 0.25,
     "why": "per-job median at the highest percentile with ten jobs beyond it"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1,
     "why": "peak resident memory of the workload's process"},
]

_SIM = "jobs_per_s, job_p50_s on small_mix (simulate jobs) and scale_large"
_FLOW = "job_p50_s on small_mix: simulate jobs, and eqfun jobs through the gradient"
_CIRCUIT = "jobs_per_s, job_tail_s on small_mix (eqfun jobs, shipped predict sweeps) and scale_large"
_ENUM = "jobs_per_s on small_mix (near-cap predict jobs)"
_CLASSIFY = "job_p50_s on small_mix (predict jobs) and scale_large"
_BUILD = "job_p50_s, peak_rss_mb on scale_large"
_LAYERS = ("cli", "config", "graph", "edgefn", "network", "sim", "circuit", "analysis")
FLOW_KINDS = ("linear", "dead_zone", "power_sign", "sampled_table", "negated", "sum")
BRANCHES = (
    "strictly-positive-network",
    "spanning-strictly-positive-subnetwork",
    "positive-network",
    "strict-equivalent-passivity",
    "single-cycle-cluster-count",
    "equivalent-passivity",
    "cycle-separated-equivalent-passivity",
    "none",
)


def _m(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


PER_LAYER = (
    [
        _m("sim.steps", "count", "lower", _SIM),
        _m("sim.us_per_step", "us", "lower", _SIM),
        _m("sim.stop.steady", "count", "lower", _SIM),
        _m("sim.stop.blowup", "count", "lower", _SIM),
        _m("sim.stop.horizon", "count", "lower", _SIM),
        _m("sim.csv_write_s", "s", "lower", "job_p50_s on small_mix (simulate jobs)"),
    ]
    + [_m(f"network.flow_us.{k}", "us", "lower", _FLOW) for k in FLOW_KINDS]
    + [
        _m("network.vector_field_us.identity", "us", "lower",
           "job_p50_s on small_mix (identity-node simulate jobs)"),
        _m("network.vector_field_us.nonidentity", "us", "lower",
           "job_p50_s on small_mix (sign_power and saturating simulate jobs)"),
        _m("circuit.op_calls", "count", "lower", _CIRCUIT),
        _m("circuit.newton_iters", "count", "lower", _CIRCUIT),
        _m("circuit.us_per_iter", "us", "lower", _CIRCUIT),
        _m("circuit.degenerate", "count", "lower", _CIRCUIT),
        _m("circuit.tellegen_max", "ratio", "lower", _CIRCUIT),
        _m("circuit.no_convergence", "count", "lower", "failed_frac on every workload"),
        _m("circuit.samples", "count", "lower", "jobs_per_s on small_mix (eqfun jobs)"),
        _m("circuit.sweep_s", "s", "lower", "jobs_per_s on small_mix (eqfun jobs)"),
        _m("graph.enum_calls", "count", "lower", _ENUM),
        _m("graph.enum_paths", "count", "lower", _ENUM),
        _m("graph.enum_s", "s", "lower", _ENUM),
        _m("graph.cap_exceeded", "count", "lower", _ENUM),
        _m("edgefn.classify_calls", "count", "lower", _CLASSIFY),
        _m("edgefn.classify_s", "s", "lower", _CLASSIFY),
        _m("edgefn.monotone_s", "s", "lower", _CLASSIFY),
        _m("analysis.predict_s", "s", "lower", "job_p50_s on small_mix (predict jobs)"),
        _m("analysis.condition_s", "s", "lower", "job_p50_s on small_mix (predict jobs)"),
    ]
    + [_m(f"analysis.branch.{b}", "count", "lower" if b == "none" else "higher",
          "job_p50_s on small_mix (predict jobs)") for b in BRANCHES]
    + [
        _m("analysis.distance_bounds_s", "s", "lower",
           "none: no CLI command calls it; timed on the positive shipped networks "
           "in the small_mix traced run"),
        _m("config.load_s", "s", "lower", _BUILD),
        _m("config.build_system_s", "s", "lower", _BUILD),
        _m("graph.incidence_s", "s", "lower", _BUILD),
    ]
    + [_m(f"{layer}.self_s", "s", "lower", "every workload") for layer in _LAYERS]
    + [_m("trace.overhead_frac", "ratio", "lower", "none: cost of the tracing itself")]
)

METRICS = {"end_to_end": END_TO_END, "per_layer": PER_LAYER}


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in METRICS[kind]}


def per_layer_values(measured: dict) -> dict:
    """Every per-layer metric in catalog order; layers a workload does not
    reach read 0."""
    unknown = set(measured) - {m["name"] for m in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics missing from the catalog: {sorted(unknown)}")
    return {m["name"]: measured.get(m["name"], 0) for m in PER_LAYER}


def benchmark_entries(kind: str) -> list:
    """The entries BENCHMARK.json lists for ``kind``."""
    keys = ("name", "unit", "better", "bound") if kind == "end_to_end" else ("name", "unit", "better")
    return [{k: m[k] for k in keys} for m in METRICS[kind]]

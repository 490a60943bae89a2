"""Seeded job lists for the benchmark workloads.

``make_workload(name, seed, configs_dir)`` is a pure function of its
arguments: the same seed gives byte-identical config files and the same job
list.  Generated configs reference their tables by relative path, so the
files can be written into any directory and handed to the CLI unchanged.

Two workloads.  ``small_mix`` runs all three analysis commands on the
shipped configs and on seeded networks of at most 60 nodes: simulations,
equivalent-edge sweeps and predictions, interleaved.  ``scale_large`` runs
them on rings, grids and random graphs of 200 to 2000 nodes.  Sizes and
edge-kind mixes are fixed per job slot; the seed draws the topology,
orientations, weights, exponents and initial states inside each slot.  That
keeps the work in one pass close to constant across seeds while still
varying the inputs the program sees.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import effective_resistance

WORKLOADS = ("small_mix", "scale_large")

SHIPPED = (
    "eleven_node_negative_f1",
    "eleven_node_negative_f2",
    "eleven_node_negative_f3",
    "eleven_node_positive",
    "linear_threshold_above",
    "linear_threshold_below",
    "linear_threshold_boundary",
    "six_node_agreement",
    "six_node_clustering",
    "three_node_series",
)

# Known results of the shipped configs (configs/README.md).
SHIPPED_OUTCOMES = {
    "eleven_node_negative_f1": ("agreement", None),
    "eleven_node_negative_f2": ("divergence", None),
    "eleven_node_negative_f3": ("clustering", 4),
    "eleven_node_positive": ("agreement", None),
    "linear_threshold_above": ("divergence", None),
    "linear_threshold_below": ("agreement", None),
    "linear_threshold_boundary": ("clustering", 3),
    "six_node_agreement": ("agreement", None),
    "six_node_clustering": ("clustering", 2),
    "three_node_series": ("agreement", None),
}

# Verdict, applied result and cluster counts of `predict` at --grid-m 401.
SHIPPED_PREDICTIONS = {
    "eleven_node_negative_f1": ("agreement_guaranteed", "strict-equivalent-passivity", None),
    "eleven_node_negative_f2": ("no_guarantee", "none", None),
    "eleven_node_negative_f3": ("cluster_count_prediction", "single-cycle-cluster-count", [1, 4]),
    "eleven_node_positive": ("agreement_guaranteed", "strictly-positive-network", None),
    "linear_threshold_above": ("no_guarantee", "none", None),
    "linear_threshold_below": ("agreement_guaranteed", "strict-equivalent-passivity", None),
    "linear_threshold_boundary": ("cluster_count_prediction", "single-cycle-cluster-count", [1, 3]),
    "six_node_agreement": ("agreement_guaranteed", "spanning-strictly-positive-subnetwork", None),
    "six_node_clustering": ("convergence_guaranteed", "positive-network", None),
    "three_node_series": ("agreement_guaranteed", "strictly-positive-network", None),
}

PREDICT_GRID_M = "401"


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``signet <command> --config <config> <args>``.

    ``config`` is a path relative to the repository root for shipped
    configs (``configs/...``) and a bare file name for generated ones.
    ``check`` names the output check and its expectations.
    """

    key: str
    command: str
    config: str
    args: tuple[str, ...] = ()
    check: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: tuple[Job, ...]
    files: dict  # generated file name -> text

    def manifest(self) -> str:
        """Canonical text of the job list, for identity checks."""
        return json.dumps(
            [[j.key, j.command, j.config, list(j.args), j.check] for j in self.jobs],
            sort_keys=True,
        )


# --- graphs ---------------------------------------------------------------


def _edge_list(pairs, rng: random.Random) -> list[tuple[int, int]]:
    """Dense 1-based (tail, head) list with seeded orientations."""
    out = []
    for a, b in sorted((min(a, b), max(a, b)) for a, b in pairs):
        out.append((a + 1, b + 1) if rng.random() < 0.5 else (b + 1, a + 1))
    return out


def ring(n: int, rng: random.Random):
    return _edge_list({(i, (i + 1) % n) for i in range(n)}, rng)


def grid2d(rows: int, cols: int, rng: random.Random):
    pairs = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.add((v, v + 1))
            if r + 1 < rows:
                pairs.add((v, v + cols))
    return _edge_list(pairs, rng)


def random_connected(n: int, m: int, rng: random.Random):
    """Random spanning tree by attachment, then uniform extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    while len(pairs) < m:
        a, b = rng.sample(range(n), 2)
        pairs.add((min(a, b), max(a, b)))
    return _edge_list(pairs, rng)


def random_regular(n: int, degree: int, rng: random.Random):
    """Connected simple random regular graph (configuration model).

    Pairings with loops, repeated edges or several components are drawn
    again; the cycle counts of such graphs vary little between draws.
    """
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            key = (min(a, b), max(a, b))
            if a == b or key in pairs:
                break
            pairs.add(key)
        else:
            if _connected(n, pairs):
                return _edge_list(pairs, rng)


def random_tree(n: int, rng: random.Random):
    return random_connected(n, n - 1, rng)


def _connected(n: int, pairs) -> bool:
    adj = {v: [] for v in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def tree_path_nodes(n: int, edges, p: int, q: int) -> int:
    """Number of nodes on the unique p-q path of a tree (1-based nodes)."""
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {p: None}
    stack = [p]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    count, v = 1, q
    while parent[v] is not None:
        v = parent[v]
        count += 1
    return count


# --- edge functions and configs --------------------------------------------


def uniform(rng: random.Random, lo: float, hi: float) -> float:
    """A draw from [lo, hi], rounded so that configs stay readable."""
    return round(rng.uniform(lo, hi), 4)


def linear(rng, lo=0.5, hi=2.0):
    return {"kind": "linear", "w": uniform(rng, lo, hi)}


def power_sign(rng):
    return {"kind": "power_sign", "w": uniform(rng, 0.5, 3.0), "alpha": uniform(rng, 0.3, 0.9)}


def linear_dead_zone(rng):
    return {
        "kind": "sum",
        "terms": [
            {"kind": "linear", "w": uniform(rng, 0.2, 1.0)},
            {"kind": "dead_zone", "w": uniform(rng, 0.5, 2.0), "band": uniform(rng, 0.5, 2.0)},
        ],
    }


def asymmetric_table_csv(rng) -> str:
    """Monotone table through the origin with different slopes on each side.

    psi(-z) != -psi(z), so an equivalent-edge sweep that mirrors odd
    functions must not be applied to a network containing it.
    """
    left, right = uniform(rng, 0.3, 0.8), uniform(rng, 1.5, 3.0)
    knots = [-50.0, -10.0, -2.0, 0.0, 2.0, 10.0, 50.0]
    rows = ["zeta,mu"]
    for z in knots:
        rows.append(f"{z!r},{(left if z < 0 else right) * z!r}")
    return "\n".join(rows) + "\n"


def config_text(n, edges, fns, dynamics=None, sim=None, x0=None, eqfun=None) -> str:
    doc = {
        "nodes": {"count": n},
        "edges": [
            {"id": i + 1, "tail": a, "head": b, "fn": fn}
            for i, ((a, b), fn) in enumerate(zip(edges, fns))
        ],
    }
    if dynamics is not None:
        doc["nodes"]["dynamics"] = dynamics
    if sim is not None:
        doc["sim"] = sim
    if x0 is not None:
        doc["initial_state"] = x0
    if eqfun is not None:
        doc["eqfun"] = eqfun
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# --- workloads ------------------------------------------------------------


def _shipped_path(name: str) -> str:
    return f"configs/{name}.json"


def _simulate_jobs(rng, configs_dir: Path):
    """Shipped simulations, plus seeded variants of the same networks.

    Variants keep the network and sim settings but draw a new initial
    state within the shipped state's range and run a fixed horizon: 500
    steps with identity nodes, 2000 steps with sign_power or saturating
    nodes.  RK4 bookkeeping in Python dominates these jobs.
    """
    jobs, files = [], {}
    for name in SHIPPED:
        outcome, clusters = SHIPPED_OUTCOMES[name]
        jobs.append(Job(f"simulate/shipped/{name}", "simulate", _shipped_path(name),
                        check={"kind": "simulate", "outcome": outcome,
                               "clusters": clusters}))
    for i, name in enumerate(SHIPPED):
        doc = json.loads((configs_dir / f"{name}.json").read_text())
        for fn in _table_specs(doc["edges"]):
            files[fn["csv"]] = (configs_dir / fn["csv"]).read_text()
        n = doc["nodes"]["count"]
        span = max(abs(v) for v in doc["initial_state"])
        for k, (steps, identity) in enumerate([(500, True), (2000, False)]):
            x0 = [uniform(rng, -span, span) for _ in range(n)]
            if identity:
                dynamics = {"kind": "identity"}
            elif (i + k) % 2:
                dynamics = {"kind": "sign_power", "c": uniform(rng, 0.5, 2.0),
                            "beta": uniform(rng, 0.5, 1.0)}
            else:
                dynamics = {"kind": "saturating", "c": uniform(rng, 1.0, 3.0),
                            "s": uniform(rng, 1.0, 5.0)}
            sim = dict(doc["sim"], t_end=steps * doc["sim"].get("dt", 1e-3))
            doc_v = dict(doc, nodes={"count": n, "dynamics": dynamics},
                         sim=sim, initial_state=x0)
            doc_v.pop("eqfun", None)
            fname = f"sim_{name}_{k}.json"
            files[fname] = json.dumps(doc_v, sort_keys=True, indent=1) + "\n"
            jobs.append(Job(f"simulate/variant/{name}/{k}", "simulate", fname,
                            check={"kind": "simulate", "conserves_sum": identity}))
    # Long runs of one network: a group of equal-cost jobs about as heavy as
    # the lighter shipped simulations, so that the tail percentile lands
    # inside a group of similar jobs rather than on one particular job.
    doc = json.loads((configs_dir / "six_node_agreement.json").read_text())
    for k in range(8):
        x0 = [uniform(rng, -3.0, 3.0) for _ in range(doc["nodes"]["count"])]
        doc_v = dict(doc, sim=dict(doc["sim"], t_end=18.0), initial_state=x0)
        fname = f"sim_long_{k}.json"
        files[fname] = json.dumps(doc_v, sort_keys=True, indent=1) + "\n"
        jobs.append(Job(f"simulate/long/{k}", "simulate", fname,
                        check={"kind": "simulate", "conserves_sum": True}))
    return jobs, files


def _table_specs(edges):
    """Every sampled_table spec with a csv path, nested ones included."""
    stack = [e["fn"] for e in edges]
    while stack:
        fn = stack.pop()
        if fn["kind"] == "sampled_table" and "csv" in fn:
            yield fn
        elif fn["kind"] == "negated":
            stack.append(fn["fn"])
        elif fn["kind"] == "sum":
            stack.extend(fn["terms"])


def _eqfun_jobs(rng, configs_dir: Path):
    """Equivalent-edge sweeps of monotone networks.

    Slots fix the size, the topology family and the edge-kind mix; the seed
    draws everything inside a slot.  Power-law edges appear only in the
    shipped eleven-node sweep: on generated power-law networks, rings
    included, the operating-point solver at this version often stalls for
    thousands of iterations or raises NoConvergence, so the workload's cost
    and failures would depend on the seed.
    """
    jobs = [
        Job("eqfun/shipped/eleven_node_positive", "eqfun",
            _shipped_path("eleven_node_positive"),
            check={"kind": "eqfun",
                   "reference": "configs/eleven_node_equivalent_edge.csv"}),
        Job("eqfun/shipped/three_node_series", "eqfun",
            _shipped_path("three_node_series"), check={"kind": "eqfun"}),
    ]
    files = {}
    mixes = {
        "linear": (linear,),
        "deadzone": (linear_dead_zone,),
        "linmix": (linear, linear_dead_zone),
    }
    slots = []
    for size in (8, 16, 30, 45, 60):
        for family, mix in (("random", "linear"), ("random", "deadzone"),
                            ("random", "linmix"), ("ring", "linear"),
                            ("ring", "deadzone"), ("ring", "linmix")):
            slots.append((size, family, mix))
    for i, (size, family, mix) in enumerate(slots):
        if family == "ring":
            edges = ring(size, rng)
        else:
            edges = random_connected(size, size + size // 2, rng)
        fns = [mixes[mix][k % len(mixes[mix])](rng) for k in range(len(edges))]
        p, q = rng.sample(range(1, size + 1), 2)
        if i == 0:
            # One sweep through a table edge that is not odd.
            files["table_asym.csv"] = asymmetric_table_csv(rng)
            fns[0] = {"kind": "sampled_table", "csv": "table_asym.csv"}
        samples = 201 if size <= 20 else 101
        eq = {"p": p, "q": q, "n": 10.0, "samples": samples}
        fname = f"eq_{i:02d}_{family}{size}_{mix}.json"
        files[fname] = config_text(size, edges, fns, eqfun=eq)
        jobs.append(Job(f"eqfun/gen/{fname[:-5]}", "eqfun", fname, check={"kind": "eqfun"}))
    return jobs, files


def _predict_jobs(rng, configs_dir: Path):
    """Shipped predictions, near-cap enumeration graphs, linear boundaries.

    Near-cap graphs are random 4-regular graphs on 16 nodes plus 3 chords
    (35 edges), all linear, 2 to 4 of them weak and negative; any two edges
    of such a graph share a cycle, so `predict` enumerates the cycles
    through one of them.  Cycle counts of random regular graphs vary far
    less between draws than those of uniform random graphs.  Boundary graphs
    are random positive linear trees closed by one edge of weight -1/R_eff
    between two tree nodes: exactly one cycle runs through the closing
    edge, which is the cluster-count branch.
    """
    grid = ("--grid-m", PREDICT_GRID_M)
    jobs, files = [], {}
    for name in SHIPPED:
        verdict, applied, counts = SHIPPED_PREDICTIONS[name]
        jobs.append(Job(f"predict/shipped/{name}", "predict", _shipped_path(name), grid,
                        check={"kind": "predict", "verdict": verdict,
                               "applied_result": applied, "cluster_counts": counts}))
    for i in range(6):
        edges = random_regular(16, 4, rng)
        pairs = {(min(a, b), max(a, b)) for a, b in edges}
        while len(edges) < 35:
            a, b = rng.sample(range(1, 17), 2)
            if (min(a, b), max(a, b)) not in pairs:
                pairs.add((min(a, b), max(a, b)))
                edges.append((a, b))
        fns = [linear(rng) for _ in edges]
        for k in rng.sample(range(len(edges)), rng.randint(2, 4)):
            fns[k] = linear(rng, -0.2, -0.05)
        fname = f"pred_cap_{i:02d}_n16.json"
        files[fname] = config_text(16, edges, fns)
        jobs.append(Job(f"predict/gen/{fname[:-5]}", "predict", fname, grid,
                        check={"kind": "predict", "verdict": "no_guarantee",
                               "applied_result": "none"}))
    for i, size in enumerate([6, 8, 10, 12, 14, 16, 18, 20] * 2):
        edges = random_tree(size, rng)
        fns = [linear(rng) for _ in edges]
        p, q = rng.sample(range(1, size + 1), 2)
        r_eff = effective_resistance(size, edges, [f["w"] for f in fns], p, q)
        edges.append((p, q))
        fns.append({"kind": "linear", "w": -1.0 / r_eff})
        length = tree_path_nodes(size, edges[:-1], p, q)
        fname = f"pred_boundary_{i:02d}_n{size}.json"
        files[fname] = config_text(size, edges, fns)
        jobs.append(Job(f"predict/gen/{fname[:-5]}", "predict", fname, grid,
                        check={"kind": "predict", "verdict": "cluster_count_prediction",
                               "applied_result": "single-cycle-cluster-count",
                               "cluster_counts": [1, length]}))
    return jobs, files


def _scale_large(rng, configs_dir: Path):
    """Rings, 2-D grids and random graphs of 200 to 2000 nodes."""
    jobs, files = [], {}

    def topology(family, n):
        if family == "ring":
            return n, ring(n, rng)
        if family == "grid":
            rows = int(n ** 0.5)
            cols = n // rows
            return rows * cols, grid2d(rows, cols, rng)
        return n, random_connected(n, 2 * n, rng)

    def add(tag, command, n, edges, fns, check, **sections):
        fname = f"{tag}.json"
        files[fname] = config_text(n, edges, fns, **sections)
        jobs.append(Job(f"{command}/gen/{tag}", command, fname, check=check))

    for family in ("ring", "grid", "random"):
        for size in (200, 250, 300, 350, 400, 450, 500, 600, 700, 850, 1000, 1100, 1200):
            n, edges = topology(family, size)
            fns = [linear(rng) if k % 2 else power_sign(rng) for k in range(len(edges))]
            x0 = [uniform(rng, -10.0, 10.0) for _ in range(n)]
            sim = {"t_end": 0.4, "dt": 1e-3, "record_every": 50}
            add(f"sim_{family}{n}", "simulate", n, edges, fns,
                {"kind": "simulate", "conserves_sum": True}, sim=sim, x0=x0)
    for family in ("ring", "grid", "random"):
        for size in (50, 100, 150, 200, 220, 240, 260, 280, 300):
            n, edges = topology(family, size)
            # Linear edges keep the Newton iteration count, and so the job's
            # cost, the same for every seed; the dense solves set the time.
            fns = [linear(rng) for _ in edges]
            p, q = rng.sample(range(1, n + 1), 2)
            add(f"eq_{family}{n}", "eqfun", n, edges, fns, {"kind": "eqfun"},
                eqfun={"p": p, "q": q, "n": 10.0, "samples": 11})
    for family in ("ring", "grid", "random"):
        for size in (200, 350, 500, 750, 1000, 1500, 2000):
            n, edges = topology(family, size)
            fns = [linear(rng) if k % 2 else power_sign(rng) for k in range(len(edges))]
            add(f"pred_{family}{n}", "predict", n, edges, fns,
                {"kind": "predict", "verdict": "agreement_guaranteed",
                 "applied_result": "strictly-positive-network"})
    return jobs, files


def _small_mix(rng, configs_dir: Path):
    jobs, files = [], {}
    for part in (_simulate_jobs, _eqfun_jobs, _predict_jobs):
        part_jobs, part_files = part(rng, configs_dir)
        jobs += part_jobs
        files.update(part_files)
    return jobs, files


_BUILDERS = {"small_mix": _small_mix, "scale_large": _scale_large}


def make_workload(name: str, seed: int, configs_dir: Path) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    jobs, files = _BUILDERS[name](rng, Path(configs_dir))
    # Interleave the job kinds, so that each kind samples the whole run and
    # a slow or fast spell of a shared machine does not land on one kind.
    rng.shuffle(jobs)
    return Workload(name, seed, tuple(jobs), files)

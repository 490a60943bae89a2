"""Output checks for benchmark jobs.

Each check reads the artifacts a CLI job wrote and raises ``CheckFailed``
when they are malformed, disagree with a known result of a shipped config,
or break an oracle computed here with numpy alone:

* an all-linear equivalent edge function equals zeta / R_eff, with R_eff
  from the Laplacian pseudoinverse;
* every equivalent-edge table is zero at zeta = 0 and nondecreasing;
* identity-node simulations conserve the sum of the states;
* `predict` never certifies agreement or convergence of an all-linear
  network whose signed Laplacian has a negative eigenvalue off the
  agreement space.

Nothing here imports signet, so a defect in the program cannot hide in its
own oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Equivalent-edge values may move in the last digits when the solver's
# summation order changes; a real regression moves them by far more.
EQFUN_REFERENCE_TOL = 1e-6
LINEAR_ORACLE_TOL = 1e-8
CERTIFYING = ("agreement_guaranteed", "convergence_guaranteed")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- oracles ------------------------------------------------------------


def laplacian(n: int, edges, weights) -> np.ndarray:
    E = np.zeros((n, len(edges)))
    for k, (a, b) in enumerate(edges):
        E[a - 1, k] = 1.0
        E[b - 1, k] = -1.0
    return (E * np.asarray(weights, dtype=float)) @ E.T


def effective_resistance(n: int, edges, weights, p: int, q: int) -> float:
    b = np.zeros(n)
    b[p - 1], b[q - 1] = 1.0, -1.0
    return float(b @ np.linalg.pinv(laplacian(n, edges, weights), hermitian=True) @ b)


def min_eigenvalue_off_agreement(n: int, edges, weights) -> float:
    if n == 1:
        return 0.0
    basis = np.linalg.qr(np.eye(n) - np.ones((n, n)) / n)[0][:, : n - 1]
    return float(np.linalg.eigvalsh(basis.T @ laplacian(n, edges, weights) @ basis).min())


def linear_weight(fn: dict):
    """The weight of a linear (or negated / summed linear) spec, else None."""
    kind = fn["kind"]
    if kind == "linear":
        return float(fn["w"])
    if kind == "negated":
        w = linear_weight(fn["fn"])
        return None if w is None else -w
    if kind == "sum":
        ws = [linear_weight(t) for t in fn["terms"]]
        return None if any(w is None for w in ws) else sum(ws)
    return None


class Network:
    """The parts of a config document the oracles need."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.n = doc["nodes"]["count"]
        self.edges = [(e["tail"], e["head"]) for e in sorted(doc["edges"], key=lambda e: e["id"])]
        fns = [e["fn"] for e in sorted(doc["edges"], key=lambda e: e["id"])]
        ws = [linear_weight(f) for f in fns]
        self.weights = None if any(w is None for w in ws) else np.array(ws)

    @classmethod
    def load(cls, path: Path) -> "Network":
        return cls(json.loads(Path(path).read_text()))


# --- artifact readers -----------------------------------------------------


def read_fields(path: Path) -> dict:
    fields = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(": ")
        _require(bool(sep), f"{path.name}: malformed line {line!r}")
        fields[key] = value
    return fields


def read_table(path: Path, header: list[str]) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    _require(bool(lines) and lines[0].split(",") == header,
             f"{path.name}: header is not {','.join(header)}")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    _require(rows.ndim == 2 and rows.shape[0] >= 1 and rows.shape[1] == len(header),
             f"{path.name}: expected rows of {len(header)} values")
    _require(bool(np.all(np.isfinite(rows))), f"{path.name}: non-finite value")
    return rows


# --- checks per command -------------------------------------------------


def check_simulate(net: Network, out: Path, expect: dict) -> None:
    sim = net.doc["sim"]
    x0 = np.array(net.doc["initial_state"], dtype=float)
    rows = read_table(out / "trajectory.csv", ["t"] + [f"y{i}" for i in range(1, net.n + 1)])
    times, states = rows[:, 0], rows[:, 1:]
    _require(times[0] == 0.0 and np.array_equal(states[0], x0),
             "trajectory does not start at the initial state")
    _require(bool(np.all(np.diff(times) > 0)), "trajectory times do not increase")
    fields = read_fields(out / "outcome.txt")
    outcome = fields.get("outcome")
    _require(float(fields.get("t_final", "nan")) == times[-1],
             "t_final differs from the last trajectory time")
    final = states[-1]
    spread = float(final.max() - final.min())
    if outcome == "agreement":
        _require(spread < sim.get("cluster_tol", 1e-3),
                 f"agreement reported with final spread {spread:.3g}")
    elif outcome == "divergence":
        _require(float(np.abs(final).max()) > sim.get("blowup_threshold", 1e6),
                 "divergence reported below the blowup threshold")
    elif outcome == "clustering":
        count = int(fields.get("clusters", "-1"))
        listed = [k for k in fields if k.startswith("cluster ")]
        _require(count == len(listed) >= 2, "cluster lines do not match the count")
    else:
        _require(outcome == "undecided", f"unknown outcome {outcome!r}")
    if expect.get("outcome") is not None:
        _require(outcome == expect["outcome"],
                 f"outcome {outcome}, expected {expect['outcome']}")
    if expect.get("clusters") is not None:
        _require(fields.get("clusters") == str(expect["clusters"]),
                 f"clusters {fields.get('clusters')}, expected {expect['clusters']}")
    if expect.get("conserves_sum"):
        drift = np.abs(states.sum(axis=1) - x0.sum())
        tol = 1e-9 * net.n * (1.0 + np.abs(states).max(axis=1))
        _require(bool(np.all(drift <= tol)),
                 f"sum of states drifted by {drift.max():.3g}")


def check_eqfun(net: Network, out: Path, expect: dict, root: Path) -> None:
    spec = net.doc["eqfun"]
    half, samples = float(spec.get("n", 100.0)), int(spec.get("samples", 2001))
    rows = read_table(out / "eqfun.csv", ["zeta", "mu"])
    zeta, mu = rows[:, 0], rows[:, 1]
    _require(zeta.shape == (samples,), f"{zeta.size} samples, expected {samples}")
    _require(bool(np.allclose(zeta, np.linspace(-half, half, samples), rtol=0, atol=1e-12 * half)),
             "zeta column is not the sampling grid")
    scale = 1.0 + float(np.abs(mu).max())
    _require(abs(mu[samples // 2]) <= 1e-9 * scale, f"mu(0) = {mu[samples // 2]!r}")
    _require(bool(np.all(np.diff(mu) >= -1e-9 * scale)), "table is not nondecreasing")
    if net.weights is not None:
        p, q = spec["p"], spec["q"]
        r_eff = effective_resistance(net.n, net.edges, net.weights, p, q)
        err = float(np.abs(mu - zeta / r_eff).max())
        _require(err <= LINEAR_ORACLE_TOL * scale,
                 f"linear network deviates from zeta/R_eff by {err:.3g}")
    if expect.get("reference"):
        ref = read_table(root / expect["reference"], ["zeta", "mu"])
        _require(ref.shape == rows.shape, "reference table has another shape")
        err = float(np.abs(mu - ref[:, 1]).max())
        _require(bool(np.array_equal(zeta, ref[:, 0])), "zeta column differs from the reference")
        _require(err <= EQFUN_REFERENCE_TOL * scale,
                 f"table deviates from the reference by {err:.3g}")


def check_predict(net: Network, out: Path, expect: dict, grid_m: str) -> None:
    fields = read_fields(out / "prediction.txt")
    verdict = fields.get("verdict")
    _require(fields.get("grid_m") == grid_m, f"grid_m {fields.get('grid_m')}, expected {grid_m}")
    classes = fields.get("edge_classes", "").split()
    _require(len(classes) == len(net.edges), "edge_classes does not list every edge")
    if net.weights is not None:
        labels = ["strictly_positive" if w > 0 else "strictly_negative" if w < 0 else "positive"
                  for w in net.weights]
        _require([c.partition("=")[2] for c in classes] == labels,
                 "edge classes disagree with the linear weights")
        lam = min_eigenvalue_off_agreement(net.n, net.edges, net.weights)
        _require(not (lam < -1e-9 and verdict in CERTIFYING),
                 f"{verdict} certified with Laplacian eigenvalue {lam:.3g}")
    for key in ("verdict", "applied_result"):
        if expect.get(key) is not None:
            _require(fields.get(key) == expect[key],
                     f"{key} {fields.get(key)}, expected {expect[key]}")
    if expect.get("cluster_counts") is not None:
        want = ",".join(str(c) for c in expect["cluster_counts"])
        _require(fields.get("cluster_counts") == want,
                 f"cluster_counts {fields.get('cluster_counts')}, expected {want}")


def check_job(job, config_path: Path, out: Path, root: Path) -> None:
    """Run the output check the job names; raises CheckFailed."""
    net = Network.load(config_path)
    kind = job.check["kind"]
    if kind == "simulate":
        check_simulate(net, out, job.check)
    elif kind == "eqfun":
        check_eqfun(net, out, job.check, root)
    elif kind == "predict":
        grid_m = job.args[job.args.index("--grid-m") + 1] if "--grid-m" in job.args else "2001"
        check_predict(net, out, job.check, grid_m)
    else:
        raise CheckFailed(f"unknown check {kind!r}")

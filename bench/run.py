"""Benchmark of the signet CLI: two workloads, end-to-end and per layer.

Usage, from the repository root:

    python3 bench/run.py                       # every workload, one process each
    python3 bench/run.py --workload small_mix --seed 3 --seconds 55
    python3 bench/run.py --workload scale_large --trace 1

A run generates the workload's configs from ``--seed`` into
``bench/out/<workload>-<seed>/``, then drives every job through
``signet.cli.main(argv)`` in this process, one job at a time (a closed loop
with one client).  The job list is run as a whole pass, again and again
while another pass fits in ``--seconds``; each job's time is its median
over the passes.  Every artifact is checked (``checks.py``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced pass with ``--trace 1``.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes

# Fix glibc's mmap threshold: freed large arrays then go back to the system
# at once, so peak memory does not depend on which jobs ran before.
try:
    ctypes.CDLL("libc.so.6").mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
except (OSError, AttributeError):
    pass

import argparse
import gc
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import metrics as catalog
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

JOB_LIMIT_S = 30.0
SETUP_REPEATS = 9
TAIL_BEYOND = 10


class JobTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program can swallow it."""


@dataclass
class JobResult:
    times: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def _on_alarm(signum, frame):
    raise JobTimeout()


def config_path(job, work: Path) -> Path:
    return ROOT / job.config if job.config.startswith("configs/") else work / "configs" / job.config


def run_job(cli, job, work: Path):
    """One CLI invocation, timed; returns (seconds, failure reason or None)."""
    cfg = config_path(job, work)
    out = work / "artifacts" / job.key.replace("/", "__")
    argv = [job.command, "--config", str(cfg), "--out", str(out), *job.args]
    reason = None
    # Start every job on a clean heap, as a fresh CLI process would; without
    # this, peak memory depends on which large jobs happen to run in a row.
    gc.collect()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    try:
        rc = cli.main(argv)
    except JobTimeout:
        rc, reason = None, f"ran past the {JOB_LIMIT_S:g} s job limit"
    except Exception as exc:  # a traceback is a failed job, not a failed run
        rc, reason = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    if reason is None and rc != 0:
        reason = f"exit code {rc}"
    if reason is None:
        try:
            checks.check_job(job, cfg, out, ROOT)
        except checks.CheckFailed as exc:
            reason = f"output check: {exc}"
    return wall, reason


def run_pass(cli, jobs, work: Path, results: dict) -> float:
    """Every job once, in order; returns the summed wall time of the jobs,
    which leaves out the output checks between them."""
    total = 0.0
    for job in jobs:
        wall, reason = run_job(cli, job, work)
        res = results.setdefault(job.key, JobResult())
        res.times.append(wall)
        if reason is not None:
            res.failures.append(reason)
        total += wall
    return total


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import signet.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import signet.cli"]
    subprocess.run(argv, env=env, check=True)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values: list) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def machine_info() -> dict:
    import numpy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    try:
        import scipy

        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None
            )
    except OSError:
        info["cpu"] = platform.processor() or None
    try:
        info["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        info["git_sha"] = None
    return info


def prepare(name: str, seed: int):
    """Import the program from this checkout and write the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import signet.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "signet":
        raise SystemExit(f"error: imported signet from {cli.__file__}, not {SRC}")
    wl = gen.make_workload(name, seed, ROOT / "configs")
    work = OUT_DIR / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    for fname, text in wl.files.items():
        (work / "configs" / fname).write_text(text)
    return cli, wl, work


def end_to_end(cli, wl, work: Path, seconds: float, results: dict) -> dict:
    """Untraced passes while another fits in ``seconds``; the end-to-end metrics."""
    setup_s = measure_setup()
    start = time.perf_counter()
    job_wall = 0.0
    while True:
        t0 = time.perf_counter()
        job_wall += run_pass(cli, wl.jobs, work, results)
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    per_job = [statistics.median(r.times) for r in results.values()]
    attempted, failed = _counts(results)
    tail_s, tail_pct = tail(per_job)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": (attempted - failed) / job_wall,
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    passes = attempted // len(per_job)
    print(f"{passes} pass(es) of {len(per_job)} jobs in {now - start:.3f} s")
    units = catalog.units("end_to_end")
    for key, value in values.items():
        print(f"  {key:12s} {value:12.6g} {units[key]}")
    print(f"  {'':12s} job_tail_s is p{tail_pct:.1f} of {len(per_job)} per-job medians, "
          f"{TAIL_BEYOND} jobs beyond it")
    print(f"  {'failed_frac':12s} {failed / attempted:12.6g} ratio ({failed} of {attempted} jobs)")
    for command in sorted({job.command for job in wl.jobs}):
        times = [statistics.median(results[j.key].times) for j in wl.jobs if j.command == command]
        print(f"  {command} jobs: {len(times)}, median {statistics.median(times):.4g} s, "
              f"sum {sum(times):.4g} s")
    return values


def per_layer(cli, wl, work: Path, results: dict) -> dict:
    """One untraced and one traced pass; the per-layer metrics."""
    untraced = run_pass(cli, wl.jobs, work, results)
    values, traced, span_text = spans.traced_pass(
        lambda: run_pass(cli, wl.jobs, work, results), wl, ROOT
    )
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    (work / "spans.jsonl").write_text(span_text)
    return catalog.per_layer_values(values)


def _counts(results: dict) -> tuple[int, int]:
    attempted = sum(len(r.times) for r in results.values())
    failed = sum(len(r.failures) for r in results.values())
    return attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli, wl, work = prepare(name, seed)
    info = machine_info()
    print(f"workload {name} seed {seed}: {len(wl.jobs)} jobs, "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    signal.signal(signal.SIGALRM, _on_alarm)
    results: dict = {}
    if trace:
        values = per_layer(cli, wl, work, results)
    else:
        values = end_to_end(cli, wl, work, seconds, results)
    failures = {k: r.failures for k, r in results.items() if r.failures}
    for key, reasons in failures.items():
        print(f"FAILED seed {seed} {key}: {reasons[0]} ({len(reasons)}x)")
    attempted, failed = _counts(results)
    correct = not any(reason.startswith("output check")
                      for reasons in failures.values() for reason in reasons)
    (work / "result.json").write_text(json.dumps({
        "workload": name, "seed": seed, "trace": trace, "machine": info,
        "metrics": values, "job_seconds": {k: r.times for k, r in results.items()},
        "failures": failures,
    }, indent=1) + "\n")
    units = catalog.units("per_layer" if trace else "end_to_end")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints one table of results."""
    rows = []
    for name in gen.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in catalog.METRICS[kind]]
    print()
    print(f"{'metric':40s} {'unit':6s} " + " ".join(f"{n:>15s}" for n, _ in rows))
    for metric in names:
        unit = rows[0][1]["metrics"][metric]["unit"]
        cells = " ".join(f"{r['metrics'][metric]['value']:15.6g}" for _, r in rows)
        print(f"{metric:40s} {unit:6s} {cells}")
    print(f"{'failed_frac':40s} {'ratio':6s} "
          + " ".join(f"{r['failed'] / r['attempted']:15.6g}" for _, r in rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "signet" / "cli.py").is_file():
        print(f"error: no signet sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

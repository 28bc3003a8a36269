"""Benchmark of the braidties command line: cold jobs in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --dry-run

One client runs one job at a time. Every job is a fresh worker process
(perfbench/worker.py) in a fresh temporary directory under the checkout;
it imports braidties from ./src and calls braidties.cli.main(argv) with
the argv generated from the seed, with BLAS/OpenMP threads capped at the
number of usable cores and PYTHONHASHSEED fixed, so that traced counts
repeat. No state carries from one job to the next. After
the worker exits, its output file is checked against the reference values
in perfbench/expected.py; a job fails on a nonzero exit, an exception, a
timeout, or output that differs from them.

--trace 0 runs ceil(seconds / nominal cycle time) whole cycles of the
workload's job stream (see jobs.py), and at least MIN_JOBS jobs, then
prints the end-to-end metrics:

  jobs_per_s      verified jobs per second of run wall time
  job_s.p50       median job time, spawn until the output is verified
  job_s.tail      highest percentile of job time with >= 10 jobs beyond it
                  (the percentile is printed beside it)
  setup_s         median time from spawn until braidties is imported
  peak_rss_mb     largest peak RSS of any worker
  verified_share  verified jobs / attempted jobs (1 - failed share)

--trace 1 runs the first cycle of the stream twice per job, untraced and
traced, and prints per-layer metrics from the traced copies (self time
and call counts per module, and counters read at layer boundaries; see
tracer.py) plus the tracing overhead. The job list is fixed by the seed,
so every count repeats exactly for the same seed. Layer-boundary spans are
written to .perfbench_out/trace-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from expected import Mismatch, check_output  # noqa: E402
from jobs import WORKLOADS, cycles  # noqa: E402
from tracer import MODULES  # noqa: E402

MIN_JOBS = 20          # enough for a tail percentile with 10 jobs beyond it
RUN_LIMIT_S = 150.0    # no job starts later than this into a run
JOB_TIMEOUT_S = 120.0  # and none runs past RUN_LIMIT_S + 15 s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    """Commit, interpreter, numpy/BLAS versions and the thread cap."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = commit.stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"commit": commit, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "blas": blas, "nproc": nproc(),
            "blas_threads": nproc()}


# ---------------------------------------------------------------------------
# one job
# ---------------------------------------------------------------------------

def run_job(argv: list[str], job_id: int, trace: bool, timeout: float,
            env: dict, workdir: str) -> dict:
    """Run one job in a fresh worker and check its output. The record's
    'reason' is empty for a verified job and says why a job failed."""
    jobdir = tempfile.mkdtemp(prefix=f"job{job_id}-", dir=workdir)
    result_path = os.path.join(jobdir, "result.json")
    rec = {"id": job_id, "argv": argv, "reason": ""}
    cmd = [sys.executable, "-s", WORKER, SRC, result_path,
           "1" if trace else "0", str(job_id), "--", *argv]
    try:
        with open(os.path.join(jobdir, "stderr.txt"), "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=jobdir, env=env, stdout=err,
                                    stderr=err, start_new_session=True)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rec["reason"] = f"timeout after {timeout:.1f}s"
                return rec
        if proc.returncode != 0 or not os.path.exists(result_path):
            rec["reason"] = f"worker exit code {proc.returncode}"
            return rec
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        rec["setup_s"] = res["ready"] - t0
        rec["rss_mb"] = res["peak_rss_kb"] / 1024.0
        if not res["module"].startswith(SRC + os.sep):
            rec["reason"] = f"braidties imported from {res['module']}"
        elif "error" in res:
            rec["reason"] = "exception: " + res["error"].strip()[-300:]
        elif res["code"] != 0:
            rec["reason"] = f"exit code {res['code']}"
        else:
            try:
                rec["out_bytes"] = check_output(argv, jobdir)
            except (Mismatch, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                rec["reason"] = f"output mismatch: {exc!r}"
        rec["job_s"] = time.monotonic() - t0
        rec["trace"] = res.get("trace")
        rec["spans"] = res.get("spans", [])
        return rec
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)


class Runner:
    """Runs jobs one at a time, keeping the run inside its time limit."""

    def __init__(self, job_timeout: float, workdir: str):
        self.job_timeout = job_timeout
        self.workdir = workdir
        self.env = worker_env()
        self.start = time.monotonic()
        self.next_id = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def can_start(self) -> bool:
        return self.elapsed() < RUN_LIMIT_S

    def run(self, argv: list[str], trace: bool = False) -> dict:
        self.next_id += 1
        timeout = min(self.job_timeout, RUN_LIMIT_S + 15.0 - self.elapsed())
        return run_job(argv, self.next_id, trace, max(timeout, 0.01),
                       self.env, self.workdir)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten jobs beyond."""
    xs = sorted(times)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(records: list[dict], wall: float) -> tuple[dict, list[str]]:
    ok = [r for r in records if not r["reason"]]
    times = [r["job_s"] for r in ok]
    setups = [r["setup_s"] for r in records if "setup_s" in r]
    rss = [r["rss_mb"] for r in records if "rss_mb" in r]
    metrics = {
        "jobs_per_s": (len(ok) / wall, "1/s", len(ok)),
        "job_s.p50": (statistics.median(times) if times else 0.0, "s",
                      len(times)),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s",
                    len(setups)),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB", len(rss)),
        "verified_share": (len(ok) / len(records), "ratio", len(records)),
    }
    notes = [f"failed_share {1 - len(ok) / len(records):.4f} ratio "
             f"(n={len(records)})"]
    if len(times) > 10:
        value, pct = tail(times)
        metrics["job_s.tail"] = (value, "s", len(times))
        notes.append(f"job_s.tail is p{pct:.1f} ({len(times) - 10 - 1} jobs "
                     f"below it, 10 beyond)")
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    mods = {m: {"calls": 0, "self_s": 0.0} for m in MODULES}
    groups = {g: {"calls": 0, "self_s": 0.0}
              for g in ("rf", "cyc", "op_products")}
    counts: dict[str, int] = {}
    kl_hits = kl_lookups = out_bytes = 0
    plain_s = traced_s = 0.0
    for plain, traced in pairs:
        plain_s += plain.get("job_s", 0.0)
        traced_s += traced.get("job_s", 0.0)
        out_bytes += traced.get("out_bytes", 0)
        t = traced.get("trace")
        if not t:
            continue
        for m, agg in t["modules"].items():
            mods[m]["calls"] += agg["calls"]
            mods[m]["self_s"] += agg["self_s"]
        for g, agg in t["groups"].items():
            groups[g]["calls"] += agg["calls"]
            groups[g]["self_s"] += agg["self_s"]
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
        kl_hits += t["kl_lift_hits"]
        kl_lookups += t["kl_lift_lookups"]
    c = lambda k: counts.get(k, 0)  # noqa: E731
    metrics = {}
    for m in MODULES:
        metrics[f"{m}.self_s"] = (mods[m]["self_s"], "s")
        metrics[f"{m}.calls"] = (mods[m]["calls"], "count")
    metrics.update({
        "scalars.rf_ops": (groups["rf"]["calls"], "count"),
        "scalars.rf_self_s": (groups["rf"]["self_s"], "s"),
        "scalars.cyc_ops": (groups["cyc"]["calls"], "count"),
        "scalars.cyc_self_s": (groups["cyc"]["self_s"], "s"),
        "linalg.echelon_inserts": (c("echelon_inserts"), "count"),
        "linalg.echelon_useful_ratio":
            (_ratio(c("echelon_pivots"), c("echelon_inserts")), "ratio"),
        "linalg.modp_rows": (c("modp_rows"), "count"),
        "linalg.modp_useful_ratio":
            (_ratio(c("modp_pivots"), c("modp_rows")), "ratio"),
        "linalg.modp_cells": (c("modp_cells"), "count"),
        "finite_model.points": (c("points"), "count"),
        "finite_model.op_products": (groups["op_products"]["calls"], "count"),
        "coxeter.rows": (c("rows"), "count"),
        "cli.output_bytes": (out_bytes, "bytes"),
        "btalg.kl_lift.lookups": (kl_lookups, "count"),
        "btalg.kl_lift.hit_ratio": (_ratio(kl_hits, kl_lookups), "ratio"),
        "trace.overhead_ratio": (_ratio(traced_s, plain_s), "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def cycle_count(workload: str, seconds: float) -> int:
    w = WORKLOADS[workload]
    return max(math.ceil(seconds / w.cycle_s),
               math.ceil(MIN_JOBS / len(w.slots)))


def untraced_run(workload: str, seed: int, seconds: float,
                 runner: Runner, max_jobs: int = 0) -> tuple[list, float]:
    """The run's whole cycles (or its first max_jobs jobs, when given);
    stops early only at the run time limit."""
    records = []
    stream = itertools.islice(cycles(workload, seed),
                              cycle_count(workload, seconds))
    for argv in itertools.chain.from_iterable(stream):
        if not runner.can_start() or (max_jobs and len(records) >= max_jobs):
            break
        records.append(runner.run(argv))
    return records, runner.elapsed()


def traced_run(workload: str, seed: int, runner: Runner,
               max_jobs: int = 0) -> list[tuple[dict, dict]]:
    """The first cycle, each job untraced and then traced."""
    batch = next(cycles(workload, seed))
    if max_jobs:
        batch = batch[:max_jobs]
    pairs = []
    for argv in batch:
        if not runner.can_start():
            break
        pairs.append((runner.run(argv), runner.run(argv, trace=True)))
    return pairs


def write_spans(path: str, pairs: list[tuple[dict, dict]]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for _, traced in pairs:
            for span in traced["spans"]:
                fh.write(json.dumps(span) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            job_timeout: float = JOB_TIMEOUT_S, max_jobs: int = 0,
            spans_path: str = "") -> tuple[dict, list[str], list[dict]]:
    """One benchmark run; returns (result object, report lines, records)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        return _measure(Runner(job_timeout, workdir), workload, seed,
                        seconds, trace, max_jobs, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def _measure(runner: Runner, workload: str, seed: int, seconds: float,
             trace: bool, max_jobs: int, spans_path: str):
    if trace:
        pairs = traced_run(workload, seed, runner, max_jobs)
        records = [r for pair in pairs for r in pair]
        if spans_path:
            write_spans(spans_path, pairs)
        metrics = {k: (v, u, len(pairs))
                   for k, (v, u) in per_layer(pairs).items()}
        notes = []
    else:
        records, wall = untraced_run(workload, seed, seconds, runner,
                                     max_jobs)
        metrics, notes = end_to_end(records, wall)
    failed = sum(1 for r in records if r["reason"])
    lines = [f"{name} {value:.6g} {unit} (n={count})"
             for name, (value, unit, count) in metrics.items()] + notes
    lines += [f"FAILED job {r['id']}: {' '.join(r['argv'])}: {r['reason']}"
              for r in records if r["reason"]]
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    return result, lines, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dry-run", action="store_true",
                        help="print the run's job list and exit")
    args = parser.parse_args(argv)

    if args.dry_run:
        stream = cycles(args.workload, args.seed)
        for c in range(cycle_count(args.workload, args.seconds)):
            for job in next(stream):
                print(f"cycle {c}: braidties {' '.join(job)}")
        return 0
    if not os.path.exists(os.path.join(SRC, "braidties", "cli.py")):
        print(f"error: no braidties sources under {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    spans_path = os.path.join(
        OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    result, lines, _ = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), spans_path=spans_path)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

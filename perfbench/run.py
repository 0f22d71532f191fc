"""Outside-in benchmark of nilrep: end-to-end and per-layer timings.

    python3 perfbench/run.py --workload filiform|freenilp|rebased \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A run generates its inputs from the seed, times ``import nilrep``
in fresh interpreters, then starts one worker process (worker.py) that runs
the workload's jobs one after another, a closed loop with one client, for at
least S seconds of whole batches.  Every job record is checked (check.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload
all`` runs every workload untraced and traced and also prints the tracing
overhead.  The exit code is 0 only when every job passed its checks, and 2
without a result line when the program or the inputs cannot be set up.

Scratch files and a per-run record (environment, metrics, failures and, when
traced, every span) go to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0  # a run's worker is killed past this; the job it ran fails
SETUP_STARTS = 9

import check  # noqa: E402  (this directory is sys.path[0])
import jobs  # noqa: E402

END_TO_END = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, span summed for it, or None for a count)
PER_LAYER = {
    "catalog.build_s": ("s", "catalog.build"),
    "catalog.table_nnz": ("count", None),
    "fileio.load_s": ("s", "fileio.load"),
    "fileio.save_s": ("s", "fileio.save"),
    "fileio.bytes_written": ("bytes", None),
    "liealg.adapted_basis_s": ("s", "liealg.adapted_basis"),
    "regular.module_s": ("s", "regular.module"),
    "uea.monomials": ("count", None),
    "regular.active": ("count", None),
    "regular.pruned_ratio": ("ratio", None),
    "regular.call_s": ("s", "regular.call"),
    "dual.call_s": ("s", "dual.call"),
    "dual.dim": ("count", None),
    "quotient.call_s": ("s", "quotient.call"),
    "quotient.rounds": ("count", None),
    "quotient.w_total": ("count", None),
    "affine.call_s": ("s", "affine.call"),
    "affine.attempts": ("count", None),
    "affine.deepest_step": ("count", None),
    "affine.success_ratio": ("ratio", None),
    "representation.homomorphism_s": ("s", "representation.homomorphism"),
    "representation.faithful_s": ("s", "representation.faithful"),
    "representation.nilpotent_s": ("s", "representation.nilpotent"),
    "representation.matrix_nnz": ("count", None),
    "job.self_s": ("s", None),
    "job.p50_s": ("s", None),
    "trace.batch_s": ("s", None),
}


class SetupError(RuntimeError):
    """The program or the benchmark inputs could not be set up; no result."""


def measure_setup(env, deadline) -> float:
    """Median time from starting a fresh interpreter until `import nilrep` returns."""
    code = "import time, nilrep; print(time.monotonic()); print(nilrep.__file__)"
    times = []
    for k in range(SETUP_STARTS + 1):  # the first start only fills the bytecode cache
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            raise SetupError("import nilrep did not return within the run's time limit")
        if proc.returncode != 0:
            raise SetupError("cannot import nilrep from %s:\n%s" % (SRC, proc.stderr))
        stamp, origin = proc.stdout.split()[:2]
        if not origin.startswith(SRC + os.sep):
            raise SetupError("nilrep was imported from %s, not from %s" % (origin, SRC))
        if k:
            times.append(float(stamp) - t0)
    return statistics.median(times)


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out or "unknown"


def per_layer(result) -> dict:
    """Summed span durations and counts, per batch."""
    spans = result["spans"]
    busy = defaultdict(float)
    covered = defaultdict(float)
    for name, start, end, parent, _job in spans:
        busy[name] += end - start
        if parent is not None:
            covered[parent] += end - start
    self_s = sum(end - start - covered[k]
                 for k, (name, start, end, _p, _j) in enumerate(spans) if name == "job")
    records = [r for b in result["batches"] for r in b["records"] if "error" not in r]
    results = [(alg, res) for r in records for alg, res in r["results"].items()]
    affine = [res for alg, res in results if alg == "affine"]
    attempts = sum(res["attempts"] for res in affine)
    monomials = sum(r["monomials"] for r in records)
    totals = {
        "catalog.table_nnz": sum(r["table_nnz"] for r in records),
        "fileio.bytes_written": sum(res.get("bytes", 0) for _alg, res in results),
        "uea.monomials": monomials,
        "regular.active": sum(r["active"] for r in records),
        "dual.dim": sum(res["dim"] for alg, res in results if alg == "dual"),
        "quotient.rounds": sum(len(r.get("w_dims", ())) for r in records),
        "quotient.w_total": sum(sum(r.get("w_dims", ())) for r in records),
        "affine.attempts": attempts,
        "affine.deepest_step": sum(res["deepest_step"] for res in affine),
        "representation.matrix_nnz": sum(res.get("nnz", 0) for _alg, res in results),
        "job.self_s": self_s,
    }
    n = len(result["batches"])
    values = {}
    for name, (_unit, span) in PER_LAYER.items():
        values[name] = (busy[span] if span else totals.get(name, 0)) / n
    values["regular.pruned_ratio"] = (
        sum(r["removed"] for r in records) / monomials if monomials else 0.0)
    successes = sum(1 for res in affine if not res.get("affine_fail"))
    values["affine.success_ratio"] = successes / attempts if attempts else 0.0
    values["job.p50_s"] = job_p50(result)
    values["trace.batch_s"] = statistics.median(b["batch_s"] for b in result["batches"])
    return values


def job_p50(result) -> float:
    """Median job wall time.  Reported, but not bounded: with 5 to 8 jobs per
    batch it is the time of one or two jobs, and on a shared 2-CPU machine a
    single job's time spread by 30% across runs where the batch spread by 10%."""
    return statistics.median(r["job_s"] for b in result["batches"] for r in b["records"])


def run_workload(workload, seed, seconds, trace) -> dict:
    """Run one workload once; returns its metrics, failures and environment."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = os.path.join(WORK, "%s-%d-%d-%d" % (workload, seed, trace, os.getpid()))
    input_dir = os.path.join(run_dir, "inputs")
    out_dir = os.path.join(run_dir, "outputs")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result = None
    crash = None
    try:
        if workload == "rebased":
            try:
                jobs.write_rebased_inputs(seed, input_dir)
            except jobs.GeneratorError as exc:
                raise SetupError("input generator: %s" % exc)
        env = dict(os.environ, PYTHONPATH=SRC)
        setup_s = measure_setup(env, deadline)
        specs = jobs.workload_jobs(workload, seed, input_dir)
        jobs_path = os.path.join(run_dir, "jobs.json")
        result_path = os.path.join(run_dir, "result.json")
        with open(jobs_path, "w") as fh:
            json.dump(specs, fh)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), jobs_path, out_dir,
               result_path, str(trace), str(seconds)]
        try:
            subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
            with open(result_path) as fh:
                result = json.load(fh)
        except subprocess.TimeoutExpired:
            crash = "worker killed after %.0f s" % RUN_LIMIT_S
        except subprocess.CalledProcessError as exc:
            crash = "worker exited with code %d" % exc.returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if result is None:
        attempted = len(specs)
        failures = [(spec["id"], [crash]) for spec in specs]
    else:
        attempted, failures = check.check_batches(specs, result["batches"], check.load_golden())
    summary = {
        "workload": workload,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "env": {
            "python": platform.python_version(),
            "backend": result["backend"] if result else "unknown",
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "seed": seed,
            "jobs": len(specs),
            "batches": len(result["batches"]) if result else 0,
        },
        "metrics": {},
    }
    if result is not None:
        if trace:
            summary["metrics"] = {name: {"value": value, "unit": PER_LAYER[name][0]}
                                  for name, value in per_layer(result).items()}
        else:
            summary["job_s_p50"] = job_p50(result)
            values = {
                "batch_s": statistics.median(b["batch_s"] for b in result["batches"]),
                "setup_s": setup_s,
                "peak_rss_mb": result["peak_rss_mb"],
            }
            summary["metrics"] = {name: {"value": values[name], "unit": unit}
                                  for name, unit in END_TO_END.items()}
    record = dict(summary, spans=result["spans"] if result else [],
                  batches=result["batches"] if result else [])
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    return summary


def print_report(summary):
    print("== %s (%s), environment %s" % (
        summary["workload"], "traced" if summary["trace"] else "untraced",
        json.dumps(summary["env"], sort_keys=True)))
    for name, m in summary["metrics"].items():
        print("  %-32s %16.6f %s" % (name, m["value"], m["unit"]))
    if "job_s_p50" in summary:
        print("  %-32s %16.6f s  (median of %d jobs; not bounded)"
              % ("job_s_p50", summary["job_s_p50"], summary["attempted"]))
    attempted, failed = summary["attempted"], summary["failed"]
    print("  %-32s %16.6f ratio  (%d failed of %d jobs)"
          % ("failed_ratio", failed / attempted, failed, attempted))
    for job_id, problems in summary["failures"]:
        print("  FAILED %s: %s" % (job_id, "; ".join(problems)))


def result_line(summaries, metrics) -> str:
    failed = sum(s["failed"] for s in summaries)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark of nilrep.")
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nilrep", "__init__.py")):
        print("no nilrep sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    summaries = []
    metrics = {}
    try:
        for workload in workloads:
            for trace in traces:
                summary = run_workload(workload, args.seed, args.seconds, trace)
                print_report(summary)
                summaries.append(summary)
                prefix = "" if args.workload != "all" else workload + "."
                for name, m in summary["metrics"].items():
                    metrics[prefix + name] = m
            if args.workload == "all" and summaries[-1]["metrics"] and summaries[-2]["metrics"]:
                overhead = (summaries[-1]["metrics"]["trace.batch_s"]["value"]
                            - summaries[-2]["metrics"]["batch_s"]["value"])
                metrics[workload + ".trace_overhead_s"] = {"value": overhead, "unit": "s"}
                print("  %-32s %16.6f s" % ("tracing overhead", overhead))
    except SetupError as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2
    print(result_line(summaries, metrics))
    return 0 if all(s["failed"] == 0 for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())

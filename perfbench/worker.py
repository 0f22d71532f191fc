"""Run one workload's jobs in a fresh process and record what each call did.

    python3 perfbench/worker.py JOBS.json OUT_DIR RESULT.json TRACE SECONDS

Each job calls nilrep's public API the way a `nilrep tables` row followed by
`nilrep compute --out` does: build or load the algebra, compute the adapted
basis, build one pruned module shared by the algorithms, run the algorithms,
verify every result and save it.  Whole batches of jobs run one after another
until SECONDS have passed (at least one batch).  With TRACE=1 every call is
wrapped in a span kept in memory; the spans are written to RESULT.json with
the per-job records when the batch ends.  run.py starts this worker and
checks its records; the worker itself judges nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import nilrep
from nilrep import (
    GF,
    QQ,
    AffineFail,
    algorithm_affine,
    algorithm_dual,
    algorithm_quotient,
    algorithm_regular,
    build_pruned_module,
    catalog,
    fileio,
    homomorphism_failure,
    is_faithful,
    verify_report,
)
from nilrep.linalg import is_nilpotent

AFFINE_RETRIES = 10
AFFINE_BUDGET_S = 60.0  # past this, algorithm_affine raises and the job fails


class Tracer:
    """Spans as [name, start, end, parent span index or None, job id]."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, job):
        record = [name, None, None, self._open[-1] if self._open else None, job]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


class NoTracer:
    """Tracing off: every span is the same empty context."""

    enabled = False
    spans = ()
    _null = nullcontext()

    def span(self, name, job):
        return self._null


def matrices_digest(rep) -> str:
    """SHA-256 over the exact nonzero entries of every matrix; provenance excluded."""
    h = hashlib.sha256()
    to_str = rep.field.to_str
    for l, mat in enumerate(rep.matrices):
        h.update(b"matrix %d %d %d\n" % (l, mat.nrows, mat.ncols))
        for j in sorted(mat.cols):
            col = mat.cols[j]
            for i in sorted(col):
                if col[i] != 0:
                    h.update(b"%d %d %s\n" % (i, j, to_str(col[i]).encode()))
    return h.hexdigest()


def verify(rep, tracer, job) -> dict:
    """verify_report, or, when tracing, its three public parts in their own spans."""
    if not tracer.enabled:
        return verify_report(rep)
    with tracer.span("representation.homomorphism", job):
        failure = homomorphism_failure(rep)
    with tracer.span("representation.faithful", job):
        faithful = is_faithful(rep)
    with tracer.span("representation.nilpotent", job):
        nilpotent = all(is_nilpotent(m) for m in rep.matrices)
    return {
        "homomorphism": "ok" if failure is None else "fail(%d,%d)" % failure,
        "faithful": faithful,
        "nilpotent_matrices": nilpotent,
        "ok": failure is None and faithful and nilpotent,
    }


def run_job(spec, out_dir, tracer) -> dict:
    job = spec["id"]
    span = tracer.span
    algs = spec["algorithms"]
    if "file" in spec:
        with span("fileio.load", job):
            g = fileio.load_algebra(spec["file"])
    else:
        ch = spec["characteristic"]
        with span("catalog.build", job):
            g = catalog.from_name(spec["catalog"], GF(ch) if ch else QQ)
    with span("liealg.adapted_basis", job):
        adapted = g.adapted_basis()
    with span("regular.module", job):
        module = build_pruned_module(g, adapted=adapted)
    reps = {}
    with span("regular.call", job):
        reps["regular"] = algorithm_regular(g, module=module)
    if "dual" in algs:
        with span("dual.call", job):
            reps["dual"] = algorithm_dual(g, module=module)
    if "quotient" in algs:
        with span("quotient.call", job):
            reps["quotient"] = algorithm_quotient(g, regular_rep=reps["regular"])
    if "affine" in algs:
        deadline = time.monotonic() + AFFINE_BUDGET_S
        with span("affine.call", job):
            reps["affine"] = algorithm_affine(
                g, seed=spec["affine_seed"], retries=AFFINE_RETRIES, deadline=deadline
            )
    results = {}
    for alg, rep in reps.items():
        if isinstance(rep, AffineFail):
            results[alg] = {"affine_fail": True, "deepest_step": rep.deepest_step,
                            "attempts": rep.attempts}
        else:
            results[alg] = {"dim": rep.dim, "verify": verify(rep, tracer, job)}
    for alg, rep in reps.items():
        if isinstance(rep, AffineFail):
            continue
        path = os.path.join(out_dir, "%s.%s.json" % (job.replace(",", "-"), alg))
        with span("fileio.save", job):
            fileio.save_representation(rep, path)
        res = results[alg]
        res["bytes"] = os.path.getsize(path)
        res["nnz"] = sum(m.nnz() for m in rep.matrices)
        if alg == "affine":
            res["attempts"] = rep.provenance["attempt"] + 1
            res["deepest_step"] = g.dim
        else:
            res["digest"] = matrices_digest(rep)
    record = {
        "id": job,
        "algebra_dim": g.dim,
        "table_nnz": sum(len(terms) for terms in g.table.values()),
        "monomials": len(module.uea.monomials),
        "active": module.dim,
        "removed": len(module.state.removed),
        "results": results,
    }
    if "quotient" in reps:
        record["w_dims"] = list(reps["quotient"].provenance["w_dims"])
    return record


def run_batch(specs, out_dir, tracer) -> tuple:
    """(records, batch wall time) for one pass over the jobs."""
    records = []
    start = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        try:
            with tracer.span("job", spec["id"]):
                record = run_job(spec, out_dir, tracer)
        except Exception:  # a failed job is recorded and the batch goes on
            record = {"id": spec["id"], "error": traceback.format_exc()}
        record["job_s"] = time.perf_counter() - t0
        records.append(record)
    return records, time.perf_counter() - start


def main(argv) -> int:
    jobs_path, out_dir, result_path, trace, seconds = argv
    with open(jobs_path) as fh:
        specs = json.load(fh)
    tracer = Tracer() if trace == "1" else NoTracer()
    batches = []
    start = time.perf_counter()
    while not batches or time.perf_counter() - start < float(seconds):
        records, batch_s = run_batch(specs, out_dir, tracer)
        batches.append({"batch_s": batch_s, "records": records})
    result = {
        "batches": batches,
        "spans": list(tracer.spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": type(nilrep.QQ.one).__module__,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

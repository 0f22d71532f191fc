"""Output checks on the worker's job records.

A job passes when it raised nothing, ran every algorithm of its workload,
every result verified, every dimension matches the reference column copied
into jobs.py, every Regular/Dual/Quotient matrix digest of a catalog job
matches golden.json, and, on rebased inputs, Dual and Quotient are no larger
than Regular.  Affine must succeed with dimension dim(g)+1 where the
reference run succeeded; elsewhere an AffineFail is accepted.
"""

from __future__ import annotations

import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
DIGESTED = ("regular", "dual", "quotient")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_job(spec, record, golden) -> list:
    """Every problem found with one job's record; empty means the job passed."""
    if "error" in record:
        return ["raised %s" % record["error"].strip().splitlines()[-1]]
    problems = []
    results = record["results"]
    if sorted(results) != sorted(spec["algorithms"]):
        problems.append("ran %s, expected %s" % (sorted(results), sorted(spec["algorithms"])))
    expect = spec["expect"]
    if "dim" in expect and record["algebra_dim"] != expect["dim"]:
        problems.append("dim(g) = %d, reference %d" % (record["algebra_dim"], expect["dim"]))
    refs = golden.get(spec["id"], {})
    for alg, res in sorted(results.items()):
        if res.get("affine_fail"):
            if spec["affine"] == "must_succeed":
                problems.append("affine failed at step %d after %d attempts"
                                % (res["deepest_step"], res["attempts"]))
            continue
        if not res["verify"]["ok"]:
            problems.append("%s does not verify: %s" % (alg, res["verify"]))
        want = record["algebra_dim"] + 1 if alg == "affine" else expect.get(alg)
        if want is not None and res["dim"] != want:
            problems.append("%s dim %d, reference %d" % (alg, res["dim"], want))
        if alg in DIGESTED and not spec.get("rebased"):
            if alg not in refs:
                problems.append("%s has no golden digest" % alg)
            elif res["digest"] != refs[alg]:
                problems.append("%s matrices differ from the golden digest" % alg)
    if spec.get("rebased") and "regular" in results:
        reg = results["regular"]["dim"]
        for alg in ("dual", "quotient"):
            if alg in results and results[alg]["dim"] > reg:
                problems.append("dim %s %d > dim regular %d" % (alg, results[alg]["dim"], reg))
    return problems


def check_batches(specs, batches, golden) -> tuple:
    """(attempted, failures) over every job record; a failure is (job id, problems)."""
    by_id = {spec["id"]: spec for spec in specs}
    attempted = 0
    failures = []
    for batch in batches:
        for record in batch["records"]:
            attempted += 1
            problems = check_job(by_id[record["id"]], record, golden)
            if problems:
                failures.append((record["id"], problems))
    return attempted, failures

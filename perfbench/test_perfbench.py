"""Tests of the benchmark itself: input generation, digests, failure accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from nilrep import QQ, algorithm_regular, catalog, fileio  # noqa: E402


def _read_all(paths):
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def _spec(workload, job_id, seed=0, input_dir=None):
    return next(s for s in jobs.workload_jobs(workload, seed, input_dir) if s["id"] == job_id)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = _read_all(jobs.write_rebased_inputs(11, str(tmp_path / "a")))
    second = _read_all(jobs.write_rebased_inputs(11, str(tmp_path / "b")))
    other = _read_all(jobs.write_rebased_inputs(12, str(tmp_path / "c")))
    assert first == second
    assert first != other
    assert len(first) == len(jobs.REBASED)


def test_rebased_inputs_are_denser_than_the_catalog_tables(tmp_path):
    jobs.write_rebased_inputs(5, str(tmp_path))
    g = fileio.load_algebra(str(tmp_path / "f14-Q.json"))
    base = catalog.filiform_f(14)
    assert not g.check_jacobi()
    assert sum(map(len, g.table.values())) > sum(map(len, base.table.values()))


def test_rebase_keeps_every_move_inside_the_filtration():
    g = catalog.upper_triangular(5, QQ)
    obj = jobs.rebase(g, random.Random(3))
    h = fileio.algebra_from_json(obj)
    assert [s.dim for s in h.lower_central_series()] == [
        s.dim for s in g.lower_central_series()
    ]


def test_rebased_digests_repeat_for_a_fixed_seed(tmp_path):
    jobs.write_rebased_inputs(4, str(tmp_path / "in"))
    spec = _spec("rebased", "U6-F2", seed=4, input_dir=str(tmp_path / "in"))
    os.makedirs(tmp_path / "out")
    first = worker.run_job(spec, str(tmp_path / "out"), worker.NoTracer())
    second = worker.run_job(spec, str(tmp_path / "out"), worker.NoTracer())
    assert check.check_job(spec, first, {}) == []
    for alg in check.DIGESTED:
        assert first["results"][alg]["digest"] == second["results"][alg]["digest"]


def test_catalog_job_passes_and_matches_its_golden_digests(tmp_path):
    spec = _spec("freenilp", "N_2,5")
    record = worker.run_job(spec, str(tmp_path), worker.NoTracer())
    assert check.check_job(spec, record, check.load_golden()) == []


def test_tampered_matrix_entry_is_counted_as_failed(tmp_path):
    spec = dict(_spec("freenilp", "N_2,5"), algorithms=["regular"])
    golden = check.load_golden()
    g = catalog.from_name(spec["catalog"], QQ)
    rep = algorithm_regular(g)
    mat = next(m for m in rep.matrices if m.cols)
    col = next(iter(mat.cols.values()))
    row = next(iter(col))
    col[row] = col[row] + 1
    record = {
        "id": spec["id"],
        "algebra_dim": g.dim,
        "results": {"regular": {"dim": rep.dim, "verify": worker.verify(rep, worker.NoTracer(), "t"),
                                "digest": worker.matrices_digest(rep)}},
    }
    assert any("golden digest" in p for p in check.check_job(spec, record, golden))
    good = worker.run_job(spec, str(tmp_path), worker.NoTracer())
    attempted, failures = check.check_batches([spec], [{"records": [good, record]}], golden)
    assert attempted == 2
    assert [job_id for job_id, _problems in failures] == [spec["id"]]


def test_wrong_dimension_and_failed_affine_are_counted(tmp_path):
    spec = _spec("freenilp", "N_2,5")
    record = worker.run_job(spec, str(tmp_path), worker.NoTracer())
    wrong_dim = copy.deepcopy(record)
    wrong_dim["results"]["dual"]["dim"] += 1
    assert any("dual dim" in p for p in check.check_job(spec, wrong_dim, check.load_golden()))
    affine_fail = copy.deepcopy(record)
    affine_fail["results"]["affine"] = {"affine_fail": True, "deepest_step": 3, "attempts": 10}
    assert check.check_job(spec, affine_fail, check.load_golden())
    assert check.check_job(spec, {"id": spec["id"], "error": "Traceback\nValueError: x\n"}, {})


def test_trace_children_plus_self_time_equal_the_job_span(tmp_path):
    tracer = worker.Tracer()
    spec = _spec("freenilp", "N_2,5")
    records, batch_s = worker.run_batch([spec], str(tmp_path), tracer)
    result = {"batches": [{"batch_s": batch_s, "records": records}], "spans": tracer.spans}
    job = next(s for s in tracer.spans if s[0] == "job")
    kids = [(s, e) for _name, s, e, parent, _j in tracer.spans if parent is not None]
    assert all(job[1] <= s <= e <= job[2] for s, e in kids)
    assert all(e0 <= s1 for (_s0, e0), (s1, _e1) in zip(sorted(kids), sorted(kids)[1:]))
    children = sum(e - s for s, e in kids)
    values = run.per_layer(result)
    assert abs(children + values["job.self_s"] - (job[2] - job[1])) < 1e-9
    assert values["affine.success_ratio"] == 1.0
    assert set(values) == set(run.PER_LAYER)

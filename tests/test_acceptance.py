"""Acceptance suite: runs every acceptance criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run).  Dimension tolerances are exact integers.
Reference running times are never asserted -- they are 2008-era figures and
the suite records the speed ratios informationally (criterion 7).

Criterion 2's blanket claim (monomial count == the closed-form bound for
*every* catalog algebra) is mathematically unattainable: the bound counts
monomials only when every lower-central quotient from degree 2 on is a line.
The test asserts the claim as stated and therefore fails on the strictly
upper triangular and free nilpotent families; see the decisions ledger.
"""

import time
import warnings

import pytest

import nilrep as nr
from helpers import betti2, enumerate_monomials, intersect, nu, pfaff_check, regular_unpruned
from nilrep import catalog, fileio, tables
from nilrep.liealg import _generators
from nilrep.fields import GF, QQ
from nilrep.quotient import algorithm_quotient, reduce_once
from nilrep.regular import build_pruned_module
from nilrep.representation import (
    annihilated_subspace,
    center_image,
    is_faithful,
    is_homomorphism,
    kernel,
)

RECORD = []


def record(criterion, ok, detail):
    line = "ACCEPTANCE %-28s %s  %s" % (criterion, "PASS" if ok else "FAIL", detail)
    RECORD.append(line)
    print(line)


@pytest.fixture(scope="module")
def table1():
    return tables.run_table(1, seed=0, retries=10, affine_timeout=None)


@pytest.fixture(scope="module")
def table2_dims():
    return tables.run_table(2, skip_affine=True)


@pytest.fixture(scope="module")
def table3():
    return tables.run_table(3, seed=0, retries=10, affine_timeout=None)


# ---------------------------------------------------------------------------
# criterion 1: the Heisenberg pipeline, exact


def test_criterion_1_heisenberg_pipeline():
    t0 = time.monotonic()
    g = catalog.heisenberg(QQ)
    module = nr.build_pruned_module(g)
    unpruned = regular_unpruned(g)
    regular = nr.algorithm_regular(g, module=module)
    quotient = algorithm_quotient(g, regular_rep=regular)
    dual = nr.algorithm_dual(g, module=module)
    affine = nr.algorithm_affine(g, seed=0, retries=10)
    elapsed = time.monotonic() - t0
    dims = (unpruned.dim, regular.dim, quotient.dim, dual.dim)
    affine_ok = (
        not isinstance(affine, nr.AffineFail)
        and affine.dim == 4
        and is_homomorphism(affine)
        and is_faithful(affine)
    )
    ok = dims == (7, 3, 3, 3) and affine_ok
    record(
        "1 heisenberg-pipeline",
        ok,
        "unpruned/regular/quotient/dual = %s, affine dim 4 verified=%s, %.2fs"
        % (dims, affine_ok, elapsed),
    )
    assert dims == (7, 3, 3, 3)
    assert affine_ok


# ---------------------------------------------------------------------------
# criterion 2: the closed-form dimension formula


def _criterion2_cases():
    cases = [("heisenberg", catalog.heisenberg(QQ))]
    for n in (4, 5, 6, 7):
        cases.append(("utri:%d" % n, catalog.upper_triangular(n, QQ)))
    for n, c in ((2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 3), (4, 4)):
        cases.append(("freenilp:%d,%d" % (n, c), catalog.free_nilpotent(n, c, QQ)))
    for n in range(13, 21):
        cases.append(("filiform:%d" % n, catalog.filiform_f(n)))
    return cases


def test_criterion_2_nu_formula():
    assert nu(3, 2) == 7
    failures = []
    for name, g in _criterion2_cases():
        adapted = g.adapted_basis()
        count = len(enumerate_monomials(adapted.weights, adapted.nilpotency_class))
        bound = nu(g.dim, adapted.nilpotency_class)
        if count != bound:
            failures.append("%s: %d != nu(%d,%d) = %d"
                            % (name, count, g.dim, adapted.nilpotency_class, bound))
    ok = not failures
    record(
        "2 nu-formula",
        ok,
        "nu(3,2)=7 ok; %d/%d catalog algebras match the closed form"
        % (len(_criterion2_cases()) - len(failures), len(_criterion2_cases())),
    )
    assert not failures, (
        "the closed-form bound differs from the true monomial count on: "
        + "; ".join(failures)
        + "  (expected: the formula only counts monomials when every "
        "lower-central quotient from degree 2 on is one-dimensional; "
        "see the decisions ledger)"
    )


# ---------------------------------------------------------------------------
# criterion 3: table 1 (strictly upper triangular algebras)


def test_criterion_3_table1(table1):
    diffs, affine_dims = [], []
    for row in table1:
        for name in ("dim", "regular", "dual"):
            computed, reference, status = row.columns[name]
            if status != "MATCH":
                diffs.append("%s %s: %s vs %s" % (row.label, name, computed, reference))
        computed, reference, status = row.columns["affine"]
        affine_dims.append(computed)
        if status != "MATCH":
            diffs.append("%s affine: %s vs %s" % (row.label, computed, reference))
        if not row.verified:
            diffs.append("%s failed verification" % row.label)
    ok = not diffs
    record("3 table-1", ok, "12 rows, affine dims %s" % sorted(set(affine_dims)))
    assert not diffs, diffs
    assert sorted(set(affine_dims)) == [7, 11, 16, 22]


# ---------------------------------------------------------------------------
# criterion 4: table 2 (free nilpotent algebras)


def test_criterion_4_table2(table2_dims):
    diffs = []
    for row in table2_dims:
        for name in ("dim", "regular", "dual"):
            computed, reference, status = row.columns[name]
            if status != "MATCH":
                diffs.append("%s %s: %s vs %s" % (row.label, name, computed, reference))
        if not row.verified:
            diffs.append("%s failed verification" % row.label)
    solved = {(2, 5): 15, (2, 6): 24, (3, 4): 33, (4, 3): 31}
    affine_report = []
    for (n, c), want in solved.items():
        g = catalog.free_nilpotent(n, c, QQ)
        res = nr.algorithm_affine(g, seed=0, retries=10)
        if isinstance(res, nr.AffineFail):
            diffs.append("affine failed on solved row N_%d,%d" % (n, c))
        else:
            okrow = res.dim == want and is_homomorphism(res) and is_faithful(res)
            if not okrow:
                diffs.append("affine N_%d,%d: dim %d vs %d" % (n, c, res.dim, want))
            affine_report.append("N_%d,%d=%d" % (n, c, res.dim))
    ok = not diffs
    record("4 table-2", ok,
           "8 rows regular=dual + Witt dims; affine %s" % ", ".join(affine_report))
    assert not diffs, diffs


# ---------------------------------------------------------------------------
# criterion 5: table 3 (the filiform family)


def test_criterion_5_table3(table3):
    diffs, surprises = [], []
    for row in table3:
        for name in ("regular", "quotient", "dual"):
            computed, reference, status = row.columns[name]
            if status != "MATCH":
                diffs.append("%s %s: %s vs %s" % (row.label, name, computed, reference))
        computed, reference, status = row.columns["affine"]
        if status == "SURPRISE":
            surprises.append(row.label)
        if not row.verified:
            diffs.append("%s failed verification" % row.label)
    if surprises:
        message = (
            "REPORTABLE FINDING: Affine produced a faithful representation of "
            "dimension n+1 on %s; the underlying conjecture says none exists. "
            "Flagging loudly, not failing." % ", ".join(surprises)
        )
        print("!" * 78 + "\n" + message + "\n" + "!" * 78)
        warnings.warn(message)
    ok = not diffs
    record("5 table-3", ok,
           "8 rows regular/quotient/dual; affine %s"
           % ("all FAIL (conjecture-consistent)" if not surprises else "SURPRISE"))
    assert not diffs, diffs


# ---------------------------------------------------------------------------
# criterion 6: property suite


def test_criterion_6a_emitted_representations_verified():
    reps = []
    for g in (catalog.heisenberg(QQ), catalog.upper_triangular(5, GF(2)),
              catalog.free_nilpotent(2, 5, QQ), catalog.filiform_f(13)):
        module = build_pruned_module(g)
        regular = nr.algorithm_regular(g, module=module)
        reps.append(regular)
        reps.append(nr.algorithm_dual(g, module=module))
        reps.append(algorithm_quotient(g, regular_rep=regular))
        affine = nr.algorithm_affine(g, seed=0, retries=10)
        if not isinstance(affine, nr.AffineFail):
            reps.append(affine)
    bad = [r.provenance for r in reps
           if not (is_homomorphism(r) and kernel(r).dim == 0)]
    record("6a verified-representations", not bad, "%d representations checked" % len(reps))
    assert not bad, bad


def test_criterion_6b_jacobi_catalog():
    algebras = [catalog.heisenberg(QQ), catalog.heisenberg(GF(2))]
    algebras += [catalog.upper_triangular(n, fld)
                 for n in (4, 5, 6, 7) for fld in (GF(2), GF(3), QQ)]
    algebras += [catalog.free_nilpotent(n, c, QQ)
                 for n, c in ((2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 3), (4, 4))]
    algebras += [catalog.filiform_f(n) for n in range(13, 26)]
    bad = [g for g in algebras if g.check_jacobi() != []]
    record("6b jacobi", not bad, "%d catalog algebras including f_13..f_25" % len(algebras))
    assert not bad


def test_criterion_6c_pfaff_identities():
    bad = {n: pfaff_check(n) for n in range(13, 41)}
    bad = {n: fails for n, fails in bad.items() if fails}
    record("6c pfaff-identities", not bad, "n = 13..40, exact rational arithmetic")
    assert not bad, bad


def test_criterion_6d_betti_numbers():
    values = {n: betti2(catalog.filiform_f(n)) for n in range(13, 17)}
    ok = all(v == 2 for v in values.values())
    record("6d betti2", ok, "b2(f_n) = %s" % values)
    assert ok, values


def test_criterion_6e_dual_socle_structure():
    checked = 0
    for g in (catalog.heisenberg(QQ), catalog.upper_triangular(4, GF(2)),
              catalog.free_nilpotent(2, 5, QQ), catalog.filiform_f(13)):
        module = build_pruned_module(g)
        rep = nr.algorithm_dual(g, module=module)
        S = annihilated_subspace(rep, _generators(g)[1])
        assert S.dim == 1, g
        C = center_image(rep, g.center())
        assert C.dim >= 1 and all(not S.reduce(row) for row in C.sparse.values()), g
        checked += 1
    record("6e dual-socle", True, "%d dual modules: dim S = 1 and center image in S" % checked)


def test_criterion_6f_quotient_fixpoint():
    checked = 0
    for g in (catalog.heisenberg(QQ), catalog.upper_triangular(5, QQ),
              catalog.free_nilpotent(2, 5, QQ), catalog.filiform_f(13)):
        rep = algorithm_quotient(g)
        again, W = reduce_once(rep, g.center(), _generators(g)[1])
        assert W == [] and again is rep, g
        S = annihilated_subspace(rep, _generators(g)[1])
        C = center_image(rep, g.center())
        assert intersect(S, C) == S, g  # S subset of C restates W = 0
        checked += 1
    record("6f quotient-fixpoint", True, "%d quotient outputs are reduce_once fixpoints" % checked)


def test_criterion_6g_affine_reproducible(tmp_path):
    g = catalog.free_nilpotent(2, 4, QQ)
    blobs = []
    for k in range(2):
        rep = nr.algorithm_affine(g, seed=123, retries=10)
        assert not isinstance(rep, nr.AffineFail)
        path = tmp_path / ("run%d.json" % k)
        fileio.save_representation(rep, str(path))
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    # the failure trace exercises the randomised retries: it must replay too
    f13 = catalog.filiform_f(13)
    fails = [nr.algorithm_affine(f13, seed=9, retries=10) for _ in range(2)]
    ok = ok and all(isinstance(f, nr.AffineFail) for f in fails)
    ok = ok and fails[0].deepest_step == fails[1].deepest_step
    record("6g affine-reproducible", ok,
           "seed 123 twice: byte-identical output; seed 9 failure trace replays")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: timing, informational only


def test_criterion_7_timing_informational(table1, table2_dims, table3):
    # reference rows under a second are dominated by measurement noise; the
    # informal 100x mark is only meaningful where the reference did real work
    lines, below, slower = [], [], []
    for row in table1 + table2_dims + table3:
        ref = sum(s for s in row.reference_seconds.values() if s)
        if ref < 1.0:
            continue
        ratio = ref / row.elapsed if row.elapsed > 0 else float("inf")
        lines.append("%s: %.2fs vs reference %.0fs total (%.0fx faster)"
                     % (row.label, row.elapsed, ref, ratio))
        if ratio < 1:
            slower.append(row.label)
        elif ratio < 100:
            below.append(row.label)
    for line in lines:
        print("    " + line)
    note = "all past the informal 100x mark" if not below else \
        "below the informal 100x mark (verification included in our wall time): %s" % below
    record("7 timing-informational", True, "%d timed rows; %s" % (len(lines), note))
    if slower:
        warnings.warn("rows slower than the 2008 reference runs: %s" % slower)


def test_zz_acceptance_summary():
    print()
    print("=" * 78)
    for line in RECORD:
        print(line)
    print("=" * 78)

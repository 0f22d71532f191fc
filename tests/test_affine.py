import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import from_dense, rebased, subspace_kernel, to_dense
from nilrep import affine
from nilrep.fields import GF, QQ, rational
from nilrep.affine import (
    AffineFail,
    AffineTimeout,
    _assert_faithful,
    _bracket_solve,
    _cocycles,
    algorithm_affine,
)
from nilrep.fileio import save_representation
from nilrep.liealg import LieAlgebra, abelian_algebra
from nilrep.linalg import SparseMatrix, Subspace, is_nilpotent, lincomb, relations
from nilrep.representation import (
    Representation,
    is_faithful,
    is_homomorphism,
    kernel,
    verify_report,
)
from nilrep import catalog, tables

Q0, Q1 = rational(0), rational(1)


def row_maps(dense_mats):
    """The row maps ``{t: {u: x}}`` that the Z¹ builder reads."""
    return [from_dense(QQ, mat).transpose().cols for mat in dense_mats]


def dense_rows(rows, ambient):
    return [[row.get(j, Q0) for j in range(ambient)] for row in rows]


# ---------------------------------------------------------------------------
# cocycle spaces


def cocycles(fld, table, rows, n):
    """``_cocycles`` of one step, with the bracket solve of ``table`` for it."""
    k = len(rows)
    return _cocycles(fld, _bracket_solve(fld, table, k, min(n, k)), rows, n)


def test_cocycles_one_dim_abelian():
    Z = cocycles(QQ, {}, row_maps([[[Q0]]]), 1)
    assert len(Z) == 1  # all linear maps K -> K^1


def test_cocycles_two_dim_abelian_zero_module():
    zero = [[Q0, Q0], [Q0, Q0]]
    Z = cocycles(QQ, {}, row_maps([zero, zero]), 2)
    assert len(Z) == 4  # every linear map g -> K^2 is a cocycle


HEIS_STEP = [
    [[Q0, Q0, Q0], [Q1, Q0, Q0], [Q0, Q0, Q0]],
    [[Q0, Q0, Q0], [Q0, Q0, Q0], [Q1, Q0, Q0]],
    [[Q0, Q0, Q0], [Q0, Q0, Q0], [Q0, Q0, Q0]],
]


def test_cocycles_heisenberg_step(heis):
    # extend the 2-dim abelian image to the full Heisenberg algebra: with the
    # 3x3 faithful module of g/<z>, some cocycle takes a nonzero value on a_3
    ab = heis.adapted_basis()
    Z = cocycles(QQ, ab.algebra.table, row_maps(HEIS_STEP), 2)
    m = 3
    assert any(any(x != 0 for x in row[2 * m:3 * m]) for row in dense_rows(Z, m * m))


def test_cocycles_drop_the_bracket_terms_past_the_quotient(heis):
    # on a_1, a_2 alone [a_1, a_2] = a_3 is dropped: Z¹ of the abelian plane
    table = heis.adapted_basis().algebra.table
    zero = [[Q0, Q0], [Q0, Q0]]
    assert cocycles(QQ, table, row_maps([zero, zero]), 2) == cocycles(
        QQ, {}, row_maps([zero, zero]), 2)


def test_every_kernel_vector_satisfies_cocycle_identity(heis):
    ab = heis.adapted_basis()
    rho = HEIS_STEP
    q = ab.algebra
    Z = cocycles(QQ, q.table, row_maps(rho), 2)
    assert len(Z) > 0
    m = 3
    for row in dense_rows(Z, m * m):
        deltas = [row[j * m:(j + 1) * m] for j in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                lhs = [Q0] * m
                for k, c in q.table.get((a, b), {}).items():
                    lhs = [u + c * v for u, v in zip(lhs, deltas[k])]
                rhs = [Q0] * m
                for t in range(m):
                    rhs[t] = sum((rho[a][t][u] * deltas[b][u] for u in range(m)), Q0)
                    rhs[t] -= sum((rho[b][t][u] * deltas[a][u] for u in range(m)), Q0)
                assert [QQ.canon(u) for u in lhs] == [QQ.canon(v) for v in rhs]


def all_pairs_cocycles(fld, table, rows):
    """The Z¹ builder before it used only the generators: every pair j < l,
    and every row of every bracket-only condition."""
    k = len(rows)
    conditions = Subspace(fld, k * k)
    for j in range(k):
        for l in range(j + 1, k):
            terms = {s: c for s, c in table.get((j, l), {}).items() if s < k}
            rows_t = range(k) if terms else sorted(rows[j].keys() | rows[l].keys())
            for t in rows_t:
                row = {s * k + t: c for s, c in terms.items()}
                for u, x in rows[j].get(t, {}).items():
                    row[l * k + u] = -x
                for u, x in rows[l].get(t, {}).items():
                    row[j * k + u] = x
                conditions.add(row)
    return subspace_kernel(conditions)


def canonical_rows(rows):
    """The rows in their order, each as its pivot (smallest column) and its
    (column, value, type name) triples by column: equal values of another
    type, or the same rows in another order, read differently."""
    return [(min(row), sorted((c, x, type(x).__name__) for c, x in row.items()))
            for row in rows]


def checked_against_all_pairs_cocycles(steps, table):
    """A stand-in for ``_cocycles`` that asserts, at every step, the same
    canonical rows as ``all_pairs_cocycles`` on the adapted ``table`` and
    records the step's k."""
    def checked(fld, solve, rows, n):
        Z = _cocycles(fld, solve, rows, n)
        reference = all_pairs_cocycles(fld, table, rows).sparse
        assert canonical_rows(Z) == canonical_rows(reference.values())
        assert [min(row) for row in Z] == list(reference)
        steps.append(len(rows))
        return Z

    return checked


@pytest.mark.parametrize("g,seed,retries", [
    (catalog.upper_triangular(4, QQ), 0, 2),
    (catalog.upper_triangular(5, QQ), 1, 2),
    (catalog.heisenberg(QQ), 2, 2),
    (catalog.free_nilpotent(2, 4, QQ), 1, 2),
    (catalog.free_nilpotent(3, 4, QQ), 1, 1),
    (catalog.filiform_f(13), 1, 2),
    (catalog.upper_triangular(4, GF(2)), 1, 3),
    (catalog.upper_triangular(5, GF(2)), 2, 2),
    (catalog.heisenberg(GF(2)), 0, 2),
    (catalog.free_nilpotent(2, 4, GF(2)), 2, 2),
    (catalog.upper_triangular(4, GF(3)), 2, 2),
    (catalog.upper_triangular(5, GF(3)), 0, 2),
    (catalog.heisenberg(GF(3)), 1, 2),
    (catalog.free_nilpotent(2, 4, GF(3)), 0, 2),
    (rebased(catalog.upper_triangular(6, QQ), 1), 1, 2),
    (catalog.filiform_f(14), 1, 2),
    (catalog.filiform_f(15), 1, 2),
    (catalog.filiform_f(16), 1, 2),
    (catalog.filiform_f(17), 1, 2),
    (catalog.free_nilpotent(2, 5, QQ), 1, 1),
    (catalog.free_nilpotent(2, 6, QQ), 1, 1),
    (catalog.free_nilpotent(4, 3, QQ), 1, 1),
    (rebased(catalog.upper_triangular(6, GF(2)), 2), 1, 2),
    (rebased(catalog.upper_triangular(6, GF(3)), 3), 1, 2),
    (rebased(catalog.upper_triangular(7, GF(2)), 4), 1, 2),
    (rebased(catalog.upper_triangular(7, GF(3)), 5), 1, 2),
    (rebased(catalog.upper_triangular(7, QQ), 6), 1, 2),
], ids=["U4", "U5", "heisenberg", "N_2_4", "N_3_4", "f13", "U4_F2", "U5_F2",
        "heisenberg_F2", "N_2_4_F2", "U4_F3", "U5_F3", "heisenberg_F3", "N_2_4_F3",
        "U6_rebased", "f14", "f15", "f16", "f17", "N_2_5", "N_2_6", "N_4_3",
        "U6_F2_rebased", "U6_F3_rebased", "U7_F2_rebased", "U7_F3_rebased", "U7_rebased"])
def test_cocycles_match_the_all_pairs_builder(monkeypatch, g, seed, retries):
    # the level-by-level solve over the generator unknowns gives the canonical
    # rows of the solve over all k² unknowns and every pair, entry types and
    # pivot order included, at every step of seeded runs
    steps = []
    monkeypatch.setattr(affine, "_cocycles",
                        checked_against_all_pairs_cocycles(steps, g.adapted_basis().algebra.table))
    res = algorithm_affine(g, seed=seed, retries=retries)
    assert steps[0] == 2
    if not isinstance(res, AffineFail):
        assert steps[-1] == g.dim


REBASED_SOURCES = {
    "U5": catalog.upper_triangular(5, QQ),
    "U5_F2": catalog.upper_triangular(5, GF(2)),
    "U5_F3": catalog.upper_triangular(5, GF(3)),
    "N_2_4": catalog.free_nilpotent(2, 4, QQ),
    "N_2_4_F2": catalog.free_nilpotent(2, 4, GF(2)),
    "N_2_4_F3": catalog.free_nilpotent(2, 4, GF(3)),
    "f13": catalog.filiform_f(13),
}


@settings(max_examples=40)
@given(st.sampled_from(sorted(REBASED_SOURCES)), st.integers(0, 10**6), st.integers(0, 10**6))
def test_rebased_runs_match_the_all_pairs_builder(name, basis_seed, seed):
    # a seeded basis change of each source, over Q, F_2 and F_3; every run
    # ends in a verified representation or an AffineFail
    g = rebased(REBASED_SOURCES[name], basis_seed)
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(affine, "_cocycles",
                      checked_against_all_pairs_cocycles(steps, g.adapted_basis().algebra.table))
        res = algorithm_affine(g, seed=seed, retries=2)
    assert steps
    if isinstance(res, AffineFail):
        assert res.attempts == 2 and 1 <= res.deepest_step < g.dim
    else:
        assert res.dim == g.dim + 1 and verify_report(res)["ok"]


@pytest.mark.parametrize("table,rows,n,message", [
    # psi(a_0) swaps e_0 and e_1: no order makes it strictly triangular
    ({}, [{0: {1: Q1}, 1: {0: Q1}}, {}], 2, "not strictly triangular"),
    # Heisenberg in the basis x, y, 2x + z: [a_0, a_1] has a term on a_0
    ({(0, 1): {0: -2, 2: 1}, (1, 2): {0: 4, 2: -2}}, [{}, {}, {}], 2, "not adapted"),
    # two generators and no bracket: a_2 lies outside [q, q]
    ({}, [{}, {}, {}], 2, "not adapted"),
], ids=["cyclic_module", "bracket_on_a_generator", "bracket_span_too_small"])
def test_cocycles_reject_what_the_level_solve_cannot_use(table, rows, n, message):
    with pytest.raises(RuntimeError, match=message):
        cocycles(QQ, table, rows, n)


def test_n34_affine_makes_few_subspace_adds(monkeypatch):
    # the Subspace builder over all k² unknowns made 20 188 adds in this run;
    # the count includes the 741 adds of the adapted basis
    g = catalog.free_nilpotent(3, 4, QQ)
    calls = []
    add = Subspace.add

    def counted(self, row):
        calls.append(1)
        return add(self, row)

    monkeypatch.setattr(Subspace, "add", counted)
    assert algorithm_affine(g, seed=1, retries=10).dim == 33
    assert len(calls) < 6_000


def test_n34_affine_sifts_fewer_condition_rows(monkeypatch):
    # with every pair j < l and every bracket-only row, this run made 30 289 adds
    g = catalog.free_nilpotent(3, 4, QQ)
    calls = []
    add = Subspace.add

    def counted(self, row):
        calls.append(1)
        return add(self, row)

    monkeypatch.setattr(Subspace, "add", counted)
    assert algorithm_affine(g, seed=1, retries=10).dim == 33
    assert len(calls) < 25_000


# ---------------------------------------------------------------------------
# the inductive extension


def test_base_case_one_dimensional_algebra():
    g = abelian_algebra(QQ, 1)
    rep = algorithm_affine(g, seed=0, retries=1)
    assert rep.dim == 2
    assert to_dense(rep.matrices[0]) == [[Q0, Q0], [Q1, Q0]]
    assert is_faithful(rep)


@pytest.mark.parametrize("g,seed", [
    (catalog.heisenberg(QQ), 0),
    (catalog.upper_triangular(4, GF(2)), 1),
    (catalog.free_nilpotent(2, 4), 2),
    # Heisenberg in the basis x, y, 2x + z: the adapted basis is not the input one
    (LieAlgebra(QQ, 3, {(0, 1): {0: -2, 2: 1}, (1, 2): {0: 4, 2: -2}}), 3),
], ids=["heisenberg", "U4_F2", "N_2_4", "heisenberg_skew"])
def test_every_step_keeps_the_affine_block_form(g, seed):
    # step i >= 1 leaves psi(a_0..a_i) on the first i + 2 coordinates, and the
    # later steps only add columns, so the final matrices in the adapted basis
    # hold every step's block: zero last row and zero diagonal (strictly
    # triangular after reversing the coordinate order), nilpotent, zero for
    # the generators not adjoined yet, and a faithful representation of the
    # quotient by the terms past a_i
    rep = algorithm_affine(g, seed=seed, retries=10)
    ab = g.adapted_basis()
    fld, d = g.field, g.dim
    psi = [lincomb(fld, row, rep.matrices) for row in ab.matrix]
    for i in range(1, d):
        size = i + 2
        blocks = [SparseMatrix(fld, size, size, {c: col for c, col in mat.cols.items()
                                                 if c < size}) for mat in psi]
        for j, block in enumerate(blocks):
            mat = to_dense(block)
            if j > i:
                assert not block.cols
                continue
            assert all(x == 0 for x in mat[size - 1])  # zero last row
            assert all(mat[t][t] == 0 for t in range(size))  # zero diagonal
            assert is_nilpotent(block)
        table = {pair: {s: c for s, c in terms.items() if s <= i}
                 for pair, terms in ab.algebra.table.items() if pair[1] <= i}
        quotient = LieAlgebra(fld, i + 1, {pair: t for pair, t in table.items() if t})
        step = Representation(quotient, blocks[:i + 1])
        assert is_homomorphism(step) and is_faithful(step)


def test_faithfulness_guard_rejects_dependent_matrices():
    one = {1: {0: Q1}}  # [[0, 1], [0, 0]]
    # each verdict holds for the maps as given and for their transposes
    for flip in (False, True):
        def guard(maps):
            if flip:
                maps = [SparseMatrix(QQ, 2, 2, m).transpose().cols for m in maps]
            _assert_faithful(QQ, maps)

        guard([one, {0: {1: Q1}}])
        # a_2 acts as zero, so a_2 spans the kernel
        with pytest.raises(RuntimeError, match="lost faithfulness"):
            guard([one, {}])
        # both act as the same matrix, so a_1 - a_2 spans the kernel
        with pytest.raises(RuntimeError, match="lost faithfulness"):
            guard([one, dict(one)])


def test_affine_heisenberg(heis):
    rep = algorithm_affine(heis, seed=0, retries=10)
    assert rep.dim == 4
    assert is_homomorphism(rep) and is_faithful(rep)
    assert kernel(rep).dim == 0


def test_affine_abelian_plane():
    rep = algorithm_affine(abelian_algebra(QQ, 2), seed=0, retries=10)
    assert rep.dim == 3
    assert is_homomorphism(rep) and is_faithful(rep)


def test_affine_u5_f2():
    g = catalog.upper_triangular(5, GF(2))
    rep = algorithm_affine(g, seed=0, retries=10)
    assert not isinstance(rep, AffineFail)
    assert rep.dim == 11
    assert is_homomorphism(rep) and is_faithful(rep)


def test_affine_f13_fails(f13):
    res = algorithm_affine(f13, seed=0, retries=3)
    assert isinstance(res, AffineFail)
    assert res.attempts == 3
    assert 1 <= res.deepest_step < 13


def test_affine_seed_reproducible(tmp_path, heis):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        save_representation(algorithm_affine(heis, seed=7, retries=10), str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_affine_output_matrices_are_nilpotent(heis):
    rep = algorithm_affine(heis, seed=0, retries=10)
    assert all(is_nilpotent(m) for m in rep.matrices)


@pytest.mark.parametrize("retries", [0, -5])
def test_affine_rejects_retries_below_one(heis, retries):
    # both used to run one attempt, and a failure reported attempts=1
    with pytest.raises(ValueError, match="retries must be at least 1"):
        algorithm_affine(heis, seed=0, retries=retries)
    with pytest.raises(ValueError, match="retries must be at least 1"):
        tables.run_table(1, rows=[0], retries=retries)


@pytest.mark.parametrize("which, rows, message", [
    (3, [99], "rows 99 outside table 3's rows 0..7"),
    (3, [-1], "rows -1 outside table 3's rows 0..7"),
    (1, [0, 12, -2], "rows -2,12 outside table 1's rows 0..11"),
], ids=["99", "-1", "0,12,-2"])
def test_run_table_rejects_rows_outside_the_table(monkeypatch, which, rows, message):
    # both single rows used to return [] without an error; row 0 must not run
    monkeypatch.setattr(tables, "build_pruned_module", None)
    with pytest.raises(ValueError, match=re.escape(message)):
        tables.run_table(which, rows=rows)


# ---------------------------------------------------------------------------
# deadlines


@pytest.mark.parametrize("timeout", [float("nan"), 0, -1.0])
def test_run_table_rejects_an_affine_timeout_that_is_not_positive(timeout):
    # nan used to switch the Affine budget off, and a negative value timed out at once
    with pytest.raises(ValueError, match="affine_timeout must be positive"):
        tables.run_table(1, rows=[0], affine_timeout=timeout)


@pytest.mark.parametrize("skip_affine", [False, True])
def test_run_table_rejects_retries_below_one_before_any_row_runs(monkeypatch, skip_affine):
    # row 0's Regular and Dual used to run before Affine raised, and with
    # skip_affine nothing raised, although the CLI rejects --retries 0
    def unreachable(g):
        raise AssertionError("a row ran")

    monkeypatch.setattr(tables, "build_pruned_module", unreachable)
    with pytest.raises(ValueError, match="retries must be at least 1"):
        tables.run_table(1, rows=[0], retries=0, skip_affine=skip_affine)


def test_affine_raises_once_its_deadline_has_passed(heis):
    with pytest.raises(AffineTimeout):
        algorithm_affine(heis, seed=0, retries=10, deadline=time.monotonic() - 1)


def test_affine_column_reports_a_timeout_where_the_reference_failed(heis):
    notes = []
    cell = tables._affine_column(heis, None, seed=0, retries=10, timeout=-1, notes=notes)
    assert cell == ("TIMEOUT", None, "SKIP")
    assert notes == ["affine timed out; the reference run also failed here"]


def test_affine_column_flags_a_timeout_where_the_reference_succeeded(heis):
    notes = []
    cell = tables._affine_column(heis, 4, seed=0, retries=10, timeout=-1, notes=notes)
    assert cell == ("TIMEOUT", 4, "AFFINE-FAIL")
    assert notes == ["affine timed out"]


# the filiform rows' Affine reference: failed, and conjectured impossible


def test_affine_column_skips_a_timeout_under_the_conjecture(heis):
    notes = []
    cell = tables._affine_column(heis, tables.CONJECTURED_NONE, seed=0, retries=10,
                                 timeout=-1, notes=notes)
    assert cell == ("TIMEOUT", "FAIL", "SKIP")
    assert notes == ["affine timed out; the reference run also failed here"]


def test_affine_column_flags_a_success_against_the_conjecture(heis):
    notes = []
    cell = tables._affine_column(heis, tables.CONJECTURED_NONE, seed=0, retries=10,
                                 timeout=None, notes=notes)
    assert cell == (4, "FAIL", "SURPRISE")
    assert len(notes) == 1
    assert notes[0].startswith("UNEXPECTED: Affine found a faithful representation "
                               "of dimension 4") and "verified=True" in notes[0]


def test_affine_column_matches_a_failure_under_the_conjecture(heis, monkeypatch):
    monkeypatch.setattr(tables, "algorithm_affine",
                        lambda g, **kwargs: AffineFail(deepest_step=2, attempts=10))
    notes = []
    cell = tables._affine_column(heis, tables.CONJECTURED_NONE, seed=0, retries=10,
                                 timeout=None, notes=notes)
    assert cell == ("FAIL@2", "FAIL", "MATCH")
    assert notes == []


def test_affine_solves_each_steps_brackets_once_per_call(monkeypatch, f13):
    # the attempts reach steps 1..7 and used to solve k = 2..8 at every step
    # of every attempt
    ks = []
    solve = affine._bracket_solve

    def counted(fld, table, k, g):
        ks.append(k)
        return solve(fld, table, k, g)

    monkeypatch.setattr(affine, "_bracket_solve", counted)
    res = algorithm_affine(f13, seed=1, retries=3)
    assert isinstance(res, AffineFail) and res.attempts == 3
    assert ks == list(range(2, res.deepest_step + 2))


def stacked_span_dim(fld, maps, size):
    """The faithfulness guard as it was: the dimension of the span of the
    size x size matrices with column maps (or row maps) ``maps``, each
    stacked into one row of length size²."""
    span = Subspace(fld, size * size)
    for mat in maps:
        span.add({c * size + t: x for c, inner in mat.items() for t, x in inner.items()})
    return span.dim


@pytest.mark.parametrize("g,seed", [
    (catalog.free_nilpotent(2, 5, QQ), 1),
    (catalog.free_nilpotent(3, 4, QQ), 2),
    (catalog.upper_triangular(5, GF(3)), 3),
], ids=["N_2_5", "N_3_4", "U5_F3"])
def test_faithfulness_guard_matches_the_stacked_span(monkeypatch, g, seed):
    # at step i the guard sees psi(a_0..a_i), (i + 2) x (i + 2) matrices
    steps = []
    guard = affine._assert_faithful

    def checked(fld, rows):
        size = len(rows) + 1
        assert stacked_span_dim(fld, rows, size) == len(rows) - relations(fld, rows).dim
        dependent = rows + [rows[0]]
        assert stacked_span_dim(fld, dependent, size) == len(rows)
        assert relations(fld, dependent).dim == 1
        steps.append(len(rows))
        guard(fld, rows)

    monkeypatch.setattr(affine, "_assert_faithful", checked)
    assert algorithm_affine(g, seed=seed, retries=2).dim == g.dim + 1
    assert steps == list(range(2, g.dim + 1))  # one guard per step, in one attempt

import gc
import re

import pytest

from helpers import betti2, quotient, rebased, span, subspace_kernel, to_dense
from nilrep import catalog, liealg
from nilrep.affine import AffineFail, algorithm_affine
from nilrep.fields import GF, QQ, rational
from nilrep.liealg import LieAlgebra, NotNilpotentError, abelian_algebra
from nilrep.linalg import Subspace
from nilrep.regular import build_pruned_module

Q1 = rational(1)
Q0 = rational(0)


def vec(*xs):
    return [rational(x) for x in xs]


def dense(row, ambient, field=QQ):
    return [row.get(j, field.zero) for j in range(ambient)]


def dense_bracket(g, x, y):
    """Reference: the bilinear extension of the table to dense vectors."""
    out = [g.field.zero] * g.dim
    for (i, j), terms in g.table.items():
        f = x[i] * y[j] - x[j] * y[i]
        for k, c in terms.items():
            out[k] = g.field.canon(out[k] + f * c)
    return out


def coord_span(indices, ambient, field=QQ):
    vecs = []
    for i in indices:
        v = [field.zero] * ambient
        v[i] = field.one
        vecs.append(v)
    return span(field, ambient, vecs)


# ---------------------------------------------------------------------------
# brackets


def test_heisenberg_bracket(heis):
    assert heis.bracket({0: Q1}, {1: Q1}) == {2: Q1}  # [x, y] = z
    assert heis.bracket({1: Q1}, {0: Q1}) == {2: -Q1}  # antisymmetry
    v = {0: rational(2), 1: rational(3), 2: -Q1}
    assert heis.bracket(v, v) == {}
    # [2x + 3y - z, x + 5y] = 10 z - 3 z
    assert heis.bracket(v, {0: Q1, 1: rational(5)}) == {2: rational(7)}
    assert dense_bracket(heis, vec(2, 3, -1), vec(1, 5, 0)) == vec(0, 0, 7)


def test_bracket_dimension_mismatch(heis):
    with pytest.raises(ValueError):
        heis.bracket({3: Q1}, {1: Q1})
    with pytest.raises(ValueError):
        heis.bracket({0: Q1}, {-1: Q1})


def test_jacobi_heisenberg_ok(heis):
    assert heis.check_jacobi() == []


def test_jacobi_f13_ok(f13):
    assert f13.check_jacobi() == []


def test_jacobi_violation_reported():
    # Inject [x, z] = x into the Heisenberg table.  Expanding by hand:
    # [[x,y],z] = [z,z] = 0, [[y,z],x] = 0, [[z,x],y] = [-x, y] = -z != 0.
    # (Injecting [x, z] = y instead would still satisfy Jacobi: all three
    # cyclic terms vanish termwise, so that table is a genuine Lie algebra.)
    bad = LieAlgebra(QQ, 3, {(0, 1): {2: Q1}, (0, 2): {0: Q1}})
    assert bad.check_jacobi() == [(0, 1, 2)]


@pytest.mark.parametrize("field, bad", [(QQ, "1"), (QQ, 0.5), (QQ, True), (QQ, None),
                                        (GF(3), 2.5), (GF(3), rational(1, 2)), (GF(3), True)])
def test_structure_constants_take_only_field_scalars(field, bad):
    # a string used to be stored as is, and floats and bools ran or failed late
    with pytest.raises(ValueError, match="does not belong"):
        LieAlgebra(field, 3, {(0, 1): {2: bad}})
    assert LieAlgebra(field, 3, {(0, 1): {2: 4}}).table == {(0, 1): {2: field.canon(4)}}


@pytest.mark.parametrize("dim, table, message", [
    (-1, {}, "dimension must be nonnegative"),
    (3, {(1, 1): {2: Q1}}, "bad bracket index pair (1, 1)"),
    (3, {(0, 3): {2: Q1}}, "bad bracket index pair (0, 3)"),
    (3, {(0, 1): {3: Q1}}, "bad bracket target index 3"),
], ids=["negative_dim", "pair_not_increasing", "pair_past_dim", "target_past_dim"])
def test_constructor_rejects_bad_dimensions_and_indices(dim, table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LieAlgebra(QQ, dim, table)


def test_integral_structure_constants_are_stored_as_ints():
    # an integral backend rational (Fraction(2, 1)) used to be kept as is, so
    # the table ran on rational arithmetic instead of int arithmetic
    backend = type(rational(1, 2))
    g = LieAlgebra(QQ, 3, {(0, 1): {2: backend(2, 1), 0: backend(0, 1)}})
    assert g.table == {(0, 1): {2: 2}} and type(g.table[(0, 1)][2]) is int
    assert type(LieAlgebra(QQ, 3, {(0, 1): {2: rational(1, 2)}}).table[(0, 1)][2]) is backend
    assert LieAlgebra(GF(3), 3, {(0, 1): {2: 5, 1: 3}}).table == {(0, 1): {2: 2}}


# ---------------------------------------------------------------------------
# lower central series, center


def test_lcs_heisenberg(heis):
    series = heis.lower_central_series()
    assert [s.dim for s in series] == [3, 1, 0]
    assert series[1] == coord_span([2], 3)
    assert len(series) - 1 == 2


def test_lcs_strictly_decreasing_and_nested(u4, f13):
    for g in (u4, f13):
        series = g.lower_central_series()
        for a, b in zip(series, series[1:]):
            assert b.dim < a.dim
            assert all(not a.reduce(row) for row in b.sparse.values())


def test_lcs_abelian():
    g = abelian_algebra(QQ, 3)
    assert [s.dim for s in g.lower_central_series()] == [3, 0]
    assert len(g.lower_central_series()) - 1 == 1


def test_lcs_u4_via_elementary_matrix_oracle(u4):
    # independent oracle: commutators of elementary matrices E_ij (i<j), n=4
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    idx = {p: t for t, p in enumerate(pairs)}

    def comm(p, q):
        (a, b), (c, d) = p, q
        out = {}
        if b == c:
            out[(a, d)] = out.get((a, d), 0) + 1
        if d == a:
            out[(c, b)] = out.get((c, b), 0) - 1
        return {k: v for k, v in out.items() if v}

    for p in range(6):
        for q in range(p + 1, 6):
            expected = {idx[k]: rational(v) for k, v in comm(pairs[p], pairs[q]).items()}
            assert u4.bracket({p: Q1}, {q: Q1}) == expected
    assert [s.dim for s in u4.lower_central_series()] == [6, 3, 1, 0]
    assert len(u4.lower_central_series()) - 1 == 3


def test_lcs_hands_no_empty_bracket_to_the_subspace(monkeypatch):
    # most brackets [row, e_j] vanish; sifting them would only cost time
    seen = []
    add = Subspace.add

    def counted(self, row):
        seen.append(len(row))
        return add(self, row)

    monkeypatch.setattr(Subspace, "add", counted)
    for g in (catalog.free_nilpotent(3, 4, QQ), catalog.upper_triangular(5, GF(2)),
              catalog.filiform_f(13)):
        before = len(seen)
        series = g.lower_central_series()
        assert len(seen) > before and series[-1].dim == 0
    assert 0 not in seen


def all_basis_series(g):
    """The lower central series before it used only the generators: every
    row of g^m bracketed with every basis vector."""
    cur = Subspace.full_space(g.field, g.dim)
    series = [cur]
    while cur.dim > 0:
        nxt = Subspace(g.field, g.dim)
        for row in cur.sparse.values():
            for j in range(g.dim):
                entry = g.bracket(row, {j: g.field.one})
                if entry:
                    nxt.add(entry)
        assert nxt.dim < cur.dim
        series.append(nxt)
        cur = nxt
    return series


SERIES_CASES = [
    catalog.heisenberg(QQ), catalog.upper_triangular(4, QQ), catalog.upper_triangular(7, QQ),
    catalog.free_nilpotent(2, 5, QQ), catalog.free_nilpotent(2, 7, QQ),
    catalog.free_nilpotent(3, 4, QQ), catalog.free_nilpotent(4, 3, QQ), catalog.filiform_f(13),
    abelian_algebra(QQ, 3), catalog.upper_triangular(4, GF(2)),
    catalog.upper_triangular(7, GF(2)), catalog.free_nilpotent(2, 5, GF(2)),
    catalog.free_nilpotent(3, 3, GF(2)), catalog.heisenberg(GF(3)),
    catalog.upper_triangular(7, GF(3)), catalog.free_nilpotent(2, 5, GF(3)),
    rebased(catalog.upper_triangular(6, QQ), 1), rebased(catalog.upper_triangular(6, GF(2)), 2),
    rebased(catalog.upper_triangular(6, GF(3)), 3), rebased(catalog.free_nilpotent(2, 5, QQ), 4),
    rebased(catalog.filiform_f(13), 5),
]


@pytest.mark.parametrize("g", SERIES_CASES, ids=[
    "heisenberg", "U4", "U7", "N_2_5", "N_2_7", "N_3_4", "N_4_3", "f13", "abelian3", "U4_F2",
    "U7_F2", "N_2_5_F2", "N_3_3_F2", "heisenberg_F3", "U7_F3", "N_2_5_F3", "U6_rebased",
    "U6_F2_rebased", "U6_F3_rebased", "N_2_5_rebased", "f13_rebased"])
def test_series_from_generators_matches_all_basis_series(g):
    assert g.lower_central_series() == all_basis_series(g)


def test_n35_series_brackets_only_with_generators(monkeypatch):
    # bracketing every row of g^m with all 80 basis vectors took 27 600 calls
    calls = []
    bracket = liealg._bracket

    def counted(g, x, y):
        calls.append(1)
        return bracket(g, x, y)

    monkeypatch.setattr(liealg, "_bracket", counted)
    series = catalog.free_nilpotent(3, 5, QQ).lower_central_series()
    assert [s.dim for s in series] == [80, 77, 74, 66, 48, 0]
    assert len(calls) < 2000


NON_NILPOTENT = [
    # sl_2 + K: [g, g] = sl_2, and the complement K generates only itself
    LieAlgebra(QQ, 4, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
    LieAlgebra(QQ, 2, {(0, 1): {1: 1}}),  # [x, y] = y
    LieAlgebra(GF(3), 2, {(0, 1): {1: 1}}),
]


@pytest.mark.parametrize("g", NON_NILPOTENT, ids=["sl2+K", "xy=y", "xy=y_F3"])
def test_non_nilpotent_inputs_raise(g):
    assert g.check_jacobi() == []
    with pytest.raises(NotNilpotentError, match="generates a subalgebra"):
        g.lower_central_series()
    with pytest.raises(NotNilpotentError):
        g.adapted_basis()


def test_a_generated_non_nilpotent_algebra_stabilises():
    # [a, b] = c, [a, c] = c: the complement a, b of [g, g] = <c> generates g,
    # and [g², V] = <c> again
    g = LieAlgebra(QQ, 3, {(0, 1): {2: 1}, (0, 2): {2: 1}})
    assert g.check_jacobi() == []
    with pytest.raises(NotNilpotentError, match="stabilises at dimension 1"):
        g.lower_central_series()


def test_non_nilpotent_rejected():
    # sl_2: [h,e] = 2e, [h,f] = -2f, [e,f] = h; [g, g] = g, so no complement generates g
    two = rational(2)
    sl2 = LieAlgebra(QQ, 3, {(0, 1): {1: two}, (0, 2): {2: -two}, (1, 2): {0: Q1}})
    with pytest.raises(NotNilpotentError):
        sl2.lower_central_series()


def test_center_heisenberg(heis):
    assert heis.center() == coord_span([2], 3)


def test_center_abelian():
    g = abelian_algebra(QQ, 4)
    assert g.center().dim == 4


def test_center_f13(f13):
    assert f13.center() == coord_span([12], 13)


# ---------------------------------------------------------------------------
# adapted basis


def test_adapted_heisenberg_identity(heis):
    ab = heis.adapted_basis()
    assert ab.weights == (1, 1, 2)
    assert ab.central_flags == (False, False, True)
    assert ab.matrix == ({0: Q1}, {1: Q1}, {2: Q1})
    assert ab.inverse == ab.matrix
    assert ab.algebra == heis


def test_the_adapted_basis_is_built_once_per_algebra(monkeypatch):
    # Regular's module build and Affine read the adapted basis their caller
    # built; each call still returns the basis of the algebra it is asked on
    calls = []
    build = liealg._adapted_basis

    def counted(g):
        calls.append(g)
        return build(g)

    monkeypatch.setattr(liealg, "_adapted_basis", counted)
    g = catalog.free_nilpotent(2, 4, QQ)
    adapted = g.adapted_basis()
    build_pruned_module(g)
    build_pruned_module(g, adapted=adapted)
    assert not isinstance(algorithm_affine(g, seed=0, retries=1), AffineFail)
    assert g.adapted_basis() == adapted and g.adapted_basis().source is g
    assert calls == [g]
    # an equal algebra is another object and builds its own
    twin = LieAlgebra(g.field, g.dim, g.table)
    assert twin.adapted_basis() == adapted._replace(source=twin)
    assert calls == [g, twin]


def test_an_algebra_with_its_adapted_basis_leaves_nothing_for_the_collector():
    # a memo that held the AdaptedBasis, whose ``source`` is the algebra,
    # would be a reference cycle that lives until a collection runs
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = catalog.upper_triangular(5, GF(2))
        g.adapted_basis()
        del g
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_adapted_abelian_all_central():
    ab = abelian_algebra(QQ, 3).adapted_basis()
    assert ab.weights == (1, 1, 1)
    assert ab.central_flags == (True, True, True)


def test_adapted_u4_weights(u4):
    ab = u4.adapted_basis()
    assert ab.weights == (1, 1, 1, 2, 2, 3)
    assert sum(ab.central_flags) == 1


def test_adapted_spans_match_series(u4):
    ab = u4.adapted_basis()
    series = u4.lower_central_series()
    for m in range(1, 4):
        vecs = [dense(row, 6) for row, w in zip(ab.matrix, ab.weights) if w >= m]
        assert span(QQ, 6, vecs) == series[m - 1]
    central = [dense(row, 6) for row, z in zip(ab.matrix, ab.central_flags) if z]
    assert span(QQ, 6, central) == u4.center()


# Heisenberg in the basis x, y, c = 2x + z: [x, y] = c - 2x, [y, c] = 4x - 2c.
# Its g^2 = span(z) holds no basis vector, so the adapted basis is x, y, x - c/2.
HEIS_REBASED = LieAlgebra(QQ, 3, {(0, 1): {0: rational(-2), 2: Q1},
                                  (1, 2): {0: rational(4), 2: rational(-2)}})


@pytest.mark.parametrize("g", [catalog.upper_triangular(5, GF(3)),
                               catalog.free_nilpotent(3, 3, QQ), HEIS_REBASED],
                         ids=["U_5/F3", "N_3,3/Q", "heisenberg-rebased/Q"])
def test_adapted_structure_constants_match_a_dense_bracket(g):
    # sum_k c'_{ij}^k a_k = [a_i, a_j] for the rewritten constants c'
    ab = g.adapted_basis()
    fld, d = g.field, g.dim
    rows = [dense(row, d, fld) for row in ab.matrix]
    for i in range(d):
        for j in range(i + 1, d):
            lhs = [fld.zero] * d
            for k, c in ab.algebra.table.get((i, j), {}).items():
                lhs = [fld.canon(x + c * y) for x, y in zip(lhs, rows[k])]
            assert lhs == dense_bracket(g, rows[i], rows[j])
    for l, inv_row in enumerate(ab.inverse):  # e_l = sum_k inverse[l][k] a_k
        back = [fld.zero] * d
        for k, c in inv_row.items():
            back = [fld.canon(x + c * y) for x, y in zip(back, rows[k])]
        assert back == [fld.one if t == l else fld.zero for t in range(d)]


# ---------------------------------------------------------------------------
# refined central series


def assert_one_dimensional_central_steps(g):
    """The adapted basis a_1..a_d refines the lower central series into a
    central series with one-dimensional steps: g_i = span(a_{i+1}, ..., a_d)
    has [g, g_i] in g_{i+1}, i.e. every term x_k of a rewritten bracket
    [x_i, x_j] has k > max(i, j).  Affine's Z¹ builder relies on it when it
    drops the bracket terms past the quotient it solves on."""
    ab = g.adapted_basis()
    assert ab.algebra.table  # not vacuous
    for (i, j), terms in ab.algebra.table.items():
        assert min(terms) > max(i, j), (i, j, terms)
    return ab


def test_refined_series_heisenberg(heis):
    ab = assert_one_dimensional_central_steps(heis)
    assert ab.matrix == ({0: Q1}, {1: Q1}, {2: Q1})  # a_1 = x, a_2 = y, a_3 = z
    assert ab.algebra.table == {(0, 1): {2: Q1}}


def test_refined_series_u4(u4):
    ab = assert_one_dimensional_central_steps(u4)
    assert ab.weights == (1, 1, 1, 2, 2, 3)


def test_refined_series_one_dimensional():
    ab = abelian_algebra(QQ, 1).adapted_basis()
    assert ab.matrix == ({0: Q1},) and not ab.algebra.table


def test_refined_series_f13_is_standard_basis(f13):
    ab = assert_one_dimensional_central_steps(f13)
    for i, row in enumerate(ab.matrix):
        assert row == {i: Q1}
    assert ab.algebra == f13


# ---------------------------------------------------------------------------
# quotients by ideals (``helpers.quotient``, which generates test inputs)


def test_quotient_by_whole_algebra(heis):
    q, proj = quotient(heis, Subspace.full_space(QQ, 3))
    assert q.dim == 0 and not q.table
    assert (proj.nrows, proj.ncols) == (0, 3) and not proj.cols


def test_quotient_heisenberg_by_center(heis):
    q, proj = quotient(heis, coord_span([2], 3))
    assert q.dim == 2 and not q.table
    # projection is a Lie homomorphism: pi([x, y]) = [pi x, pi y] = 0
    assert to_dense(proj) == [[Q1, Q0, Q0], [Q0, Q1, Q0]]


def test_quotient_by_zero(heis):
    q, proj = quotient(heis, Subspace(QQ, 3))
    assert q == heis
    assert to_dense(proj) == [[Q1 if j == i else Q0 for j in range(3)] for i in range(3)]


def test_quotient_requires_ideal(heis):
    with pytest.raises(ValueError):
        quotient(heis, coord_span([0], 3))  # span{x} is not an ideal


def test_ideal_check_brackets_only_with_the_generators(heis):
    # [x, y] = z leaves span{x}, and y is one of the generators x, y
    with pytest.raises(ValueError, match="not an ideal"):
        quotient(heis, coord_span([0], 3))
    # span{y, z} is an ideal: [x, y] = z
    q, _proj = quotient(heis, coord_span([1, 2], 3))
    assert q.dim == 1


def test_quotient_by_a_lower_central_term_brackets_with_the_generators(monkeypatch):
    # N_{3,4} / g³: 15 brackets for the quotient table, 3 x 26 for the ideal
    # check and at most 14 x 3 to see that the 3 generators generate g; with
    # all 32 basis vectors the ideal check alone made 832
    g = catalog.free_nilpotent(3, 4, QQ)
    ideal = g.lower_central_series()[2]
    calls = []
    bracket = liealg._bracket

    def counted(g, x, y):
        calls.append(1)
        return bracket(g, x, y)

    monkeypatch.setattr(liealg, "_bracket", counted)
    q, _proj = quotient(g, ideal)
    assert (ideal.dim, q.dim) == (26, 6)
    assert len(calls) < 150


def test_quotient_of_a_non_nilpotent_algebra_raises():
    # sl_2 + K: the complement K of [g, g] = sl_2 does not generate g
    with pytest.raises(NotNilpotentError, match="generates a subalgebra") as info:
        quotient(NON_NILPOTENT[0], Subspace(QQ, 4))
    assert isinstance(info.value, ValueError)


def test_quotient_projection_is_homomorphism(u4):
    series = u4.lower_central_series()
    q, proj = quotient(u4, series[1])
    p = to_dense(proj)

    def project(v):
        return [sum((r[t] * v[t] for t in range(6)), Q0) for r in p]

    for i in range(6):
        for j in range(i + 1, 6):
            ei = [Q1 if t == i else Q0 for t in range(6)]
            ej = [Q1 if t == j else Q0 for t in range(6)]
            lhs = project(dense_bracket(u4, ei, ej))
            rhs = dense_bracket(q, project(ei), project(ej))
            assert lhs == rhs
            assert proj.apply_sparse(u4.bracket({i: Q1}, {j: Q1})) == q.bracket(
                proj.apply_sparse({i: Q1}), proj.apply_sparse({j: Q1})
            )


# ---------------------------------------------------------------------------
# betti2 (``helpers.betti2``, which acceptance criterion 6d reads)


def test_betti2_abelian():
    for n in (2, 3, 4, 5):
        assert betti2(abelian_algebra(QQ, n)) == n * (n - 1) // 2


def test_betti2_monotone_under_abelian_summand(heis):
    # g + abelian K: betti2 grows (empirical sanity check on a small example)
    table = {k: dict(v) for k, v in heis.table.items()}
    g4 = LieAlgebra(QQ, 4, table)
    assert betti2(g4) >= betti2(heis)


def sl2():
    # e, f, h with [e, f] = h, [h, e] = 2e, [h, f] = -2f: not nilpotent
    return LieAlgebra(QQ, 3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})


@pytest.mark.parametrize("build, expected", [
    (lambda: catalog.heisenberg(QQ), 2),
    # Kostant: dim H²(U_5) is the number of permutations of length 2 in S_5
    (lambda: catalog.upper_triangular(5, GF(3)), 9),
    (lambda: catalog.upper_triangular(5, QQ), 9),
    # H²(N_{n,c}) is the degree-(c+1) part of the free Lie algebra (Witt's formula)
    (lambda: catalog.free_nilpotent(2, 5, QQ), 9),
    (lambda: catalog.free_nilpotent(3, 3, GF(2)), 18),
    (lambda: catalog.filiform_f(13, QQ), 2),
    (lambda: catalog.filiform_f(14, QQ), 2),
    # Whitehead: H²(sl_2) = 0; nilpotency is not needed
    (sl2, 0),
])
def test_betti2_matches_the_known_values(build, expected):
    assert betti2(build()) == expected


# ---------------------------------------------------------------------------
# the center against the stacked adjoint rows


def reference_center(g):
    """The center as it was built here: for each basis j and target k the
    row sum_i z_i c_{ij}^k = 0, sifted in sorted (j, k) order."""
    constraints = Subspace(g.field, g.dim)
    rows = {}
    for (i, j), terms in g.table.items():
        for k, c in terms.items():
            rows.setdefault((j, k), {})[i] = c
            rows.setdefault((i, k), {})[j] = g.field.neg(c)
    for key in sorted(rows):
        constraints.add(rows[key])
    return subspace_kernel(constraints)


def _catalog_algebras():
    out = []
    for fld in (QQ, GF(2), GF(3)):
        out.append(("heisenberg/%r" % fld, lambda fld=fld: catalog.heisenberg(fld)))
        out += [("U_%d/%r" % (n, fld), lambda n=n, fld=fld: catalog.upper_triangular(n, fld))
                for n in (4, 5, 6, 7)]
        out += [("N_%d_%d/%r" % (n, c, fld),
                 lambda n=n, c=c, fld=fld: catalog.free_nilpotent(n, c, fld))
                for n, c in ((2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 3), (4, 4))]
    out += [("f_%d" % n, lambda n=n: catalog.filiform_f(n)) for n in range(13, 21)]
    return out


@pytest.mark.parametrize("build", [b for _name, b in _catalog_algebras()],
                         ids=[name for name, _b in _catalog_algebras()])
def test_center_matches_the_stacked_adjoint_rows(build):
    g = build()
    assert g.center().sparse == reference_center(g).sparse


@pytest.mark.parametrize("g", NON_NILPOTENT, ids=["sl2+K", "xy=y", "xy=y_F3"])
def test_center_of_a_non_nilpotent_algebra_matches_the_stacked_adjoint_rows(g):
    assert g.center().sparse == reference_center(g).sparse

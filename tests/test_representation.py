import random
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    annihilated_subspace,
    center_image,
    from_dense,
    intersect,
    matmul,
    regular_unpruned,
    span,
    subspace_kernel,
)
from nilrep import catalog
from nilrep.fields import GF, QQ, field_from_characteristic, rational
from nilrep.liealg import LieAlgebra, _generators, abelian_algebra
from nilrep.linalg import SparseMatrix, Subspace, invert, is_nilpotent, lincomb
from nilrep.regular import algorithm_regular
from nilrep.representation import (
    Representation,
    homomorphism_failure,
    is_faithful,
    is_homomorphism,
    kernel,
    verify_report,
)
from nilrep.dual import algorithm_dual
from nilrep.quotient import algorithm_quotient

Q0, Q1 = rational(0), rational(1)


def coord_span(indices, ambient):
    vecs = []
    for i in indices:
        v = [Q0] * ambient
        v[i] = Q1
        vecs.append(v)
    return span(QQ, ambient, vecs)


def zero_rep(g, dim):
    return Representation(g, [SparseMatrix(g.field, dim, dim) for _ in range(g.dim)])


@pytest.fixture(scope="module")
def heis_unpruned(heis):
    # minus right multiplication on all monomials of weight <= 2 over the
    # layer-reversed basis y, x, z, in the order 1, x, y, z, x^2, yx, y^2
    return regular_unpruned(heis)


def test_unpruned_heisenberg_is_homomorphism(heis_unpruned):
    assert is_homomorphism(heis_unpruned)
    assert heis_unpruned.dim == 7


def test_zero_rep_is_homomorphism_but_not_faithful(heis):
    rep = zero_rep(heis, 3)
    assert is_homomorphism(rep)
    assert not is_faithful(rep)
    assert kernel(rep).dim == 3


def test_corrupted_matrix_fails_at_first_pair(heis_unpruned, heis):
    mats = list(heis_unpruned.matrices)
    mats[2] = SparseMatrix(QQ, 7, 7)  # breaks [M_x, M_y] = M_z
    assert homomorphism_failure(Representation(heis, mats)) == (0, 1)


def test_kernel_of_regular_is_trivial(heis_unpruned):
    assert kernel(heis_unpruned).dim == 0


def test_kernel_extended_by_zero(heis):
    # a faithful rho on g/<z> (3x3 affine form), extended by M_z = 0, has
    # kernel exactly <z> = <a_d>
    mats = [
        from_dense(QQ, [[Q0, Q0, Q0], [Q1, Q0, Q0], [Q0, Q0, Q0]]),  # x
        from_dense(QQ, [[Q0, Q0, Q0], [Q0, Q0, Q0], [Q1, Q0, Q0]]),  # y
        SparseMatrix(QQ, 3, 3),  # z := 0
    ]
    rep = Representation(heis, mats)
    assert is_homomorphism(rep)
    assert kernel(rep) == coord_span([2], 3)


def test_annihilated_subspace_heisenberg(heis_unpruned):
    # S = <z, x^2, yx, y^2>: every weight-2 monomial times a generator has
    # weight 3 > c, while for a x + b y + e 1 the product with y is
    # a (yx + z) + b y^2 + e y, zero only when a = b = e = 0
    S = annihilated_subspace(heis_unpruned, _generators(heis_unpruned.algebra)[1])
    assert S == coord_span([3, 4, 5, 6], 7)


def test_annihilated_subspace_zero_rep(heis):
    assert annihilated_subspace(zero_rep(heis, 4), _generators(heis)[1]).dim == 4


def test_center_image_heisenberg(heis_unpruned):
    # C = <z>: 1*z = z and every other monomial times z has weight > 2
    assert center_image(heis_unpruned, heis_unpruned.algebra.center()) == coord_span([3], 7)


def test_center_image_zero_rep():
    g = abelian_algebra(QQ, 2)
    assert center_image(zero_rep(g, 3), g.center()).dim == 0


def test_center_image_dual_module(heis):
    # z acts on the 3-dim dual module with image spanned by psi_1 (dual of 1)
    dual = algorithm_dual(heis)
    C = center_image(dual, heis.center())
    assert C.dim == 1
    S = annihilated_subspace(dual, _generators(heis)[1])
    assert S.dim == 1
    assert intersect(S, C) == C


def test_kernel_invariant_under_conjugation(heis):
    rep = algorithm_regular(heis)
    rng = random.Random(5)
    n = rep.dim
    while True:
        rows = [{j: rational(rng.randint(-3, 3)) for j in range(n)} for _ in range(n)]
        try:
            inv = invert(rows, QQ)
            break
        except ValueError:
            continue
    P = from_dense(QQ, [[row[j] for j in range(n)] for row in rows])
    Pinv = from_dense(QQ, [[row.get(j, Q0) for j in range(n)] for row in inv])
    conjugated = [matmul(matmul(Pinv, m), P) for m in rep.matrices]
    assert kernel(Representation(heis, conjugated)) == kernel(rep)


def test_faithful_iff_center_kernel_trivial(heis):
    # faithful <=> kernel meets the center trivially, both directions
    faithful = algorithm_regular(heis)
    k = kernel(faithful)
    assert k.dim == 0 and intersect(k, heis.center()).dim == 0
    unfaithful = zero_rep(heis, 2)
    k2 = kernel(unfaithful)
    assert k2.dim > 0
    assert intersect(k2, heis.center()).dim > 0


def test_verify_report(heis):
    rep = algorithm_regular(heis)
    report = verify_report(rep)
    assert report == {
        "homomorphism": "ok",
        "faithful": True,
        "nilpotent_matrices": True,
        "ok": True,
    }


# ---------------------------------------------------------------------------
# the verification checks against plain references, kept here only as oracles


def reference_is_nilpotent(mat):
    """Whole-matrix image chain V ⊇ MV ⊇ M²V ⊇ …, which hits 0 iff M is nilpotent."""
    basis = [col for _j, col in sorted(mat.cols.items())]
    seen_dim = None
    while True:
        image = Subspace(mat.field, mat.nrows)
        for v in basis:
            image.add(v)
        if image.dim == 0:
            return True
        if seen_dim is not None and image.dim >= seen_dim:
            return False
        seen_dim = image.dim
        basis = [mat.apply_sparse(v) for v in image.sparse.values()]


def reference_homomorphism_failure(rep):
    """First pair whose commutator minus the bracket's matrices is nonzero."""
    g, mats = rep.algebra, rep.matrices
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            # commutator minus sum_k c_ij^k M_k, with M_k at index 2 + k
            bracket = {2 + k: g.field.neg(c) for k, c in g.table.get((i, j), {}).items()}
            lhs = lincomb(g.field, {0: g.field.one, 1: g.field.neg(g.field.one), **bracket},
                          [matmul(mats[i], mats[j]), matmul(mats[j], mats[i])] + mats)
            if lhs.cols:
                return (i, j)
    return None


def test_a_pair_with_a_bracket_is_checked_when_its_products_vanish(heis):
    # M_x = M_y = 0, so both products of (x, y) vanish by support, but
    # [x, y] = z and M_z != 0; the support skip applies only without a bracket
    zero = SparseMatrix(QQ, 2, 2)
    rep = Representation(heis, [zero, zero, from_dense(QQ, [[Q0, Q0], [Q1, Q0]])])
    assert homomorphism_failure(rep) == reference_homomorphism_failure(rep) == (0, 1)


@pytest.mark.parametrize("c, lam", [(rational(1), 6), (rational(3, 4), 18)])
@pytest.mark.parametrize("perturbed, first_failure", [
    (None, None),
    ((2, 0, 2), (0, 1)),  # M_z at E_13: the bracket of x and y changes
    ((0, 1, 0), (0, 2)),  # M_x at E_21 still commutes with M_y, not with M_z
    ((1, 2, 1), (1, 2)),  # M_y at E_32 still commutes with M_x, not with M_z
])
def test_homomorphism_check_scales_unlike_denominators(c, lam, perturbed, first_failure):
    # [x, y] = c z on M_x = a E_12, M_y = b E_23, M_z = (ab/c) E_13, whose
    # entries have the denominator lcm lam; one entry moves by 1/lam^2, which
    # vanishes if the scaled entries are rounded to integers
    g = LieAlgebra(QQ, 3, {(0, 1): {2: c}})
    a, b = rational(1, 2), rational(2, 3)
    cols = [{1: {0: a}}, {2: {1: b}}, {2: {0: a * b / c}}]
    if perturbed:
        l, i, j = perturbed
        col = cols[l].setdefault(j, {})
        col[i] = col.get(i, 0) + rational(1, lam * lam)
    rep = Representation(g, [SparseMatrix(QQ, 3, 3, col) for col in cols])
    assert homomorphism_failure(rep) == reference_homomorphism_failure(rep) == first_failure


@pytest.mark.parametrize("p", [2, 3, 5])
def test_entries_shifted_by_p_still_verify(p):
    # every stored entry moved by p, and a stored p on a diagonal: the same
    # matrices over F_p, so every check still passes
    g = catalog.upper_triangular(4, GF(p))
    rep = algorithm_regular(g)
    mats = [SparseMatrix(g.field, rep.dim, rep.dim,
                         {j: {i: x + p for i, x in col.items()} for j, col in m.cols.items()})
            for m in rep.matrices]
    mats[0].cols.setdefault(0, {})[0] = p
    shifted = Representation(g, mats)
    assert homomorphism_failure(shifted) is None
    assert verify_report(shifted) == verify_report(rep) == {
        "homomorphism": "ok", "faithful": True, "nilpotent_matrices": True, "ok": True,
    }


ALGORITHMS = {"regular": algorithm_regular, "dual": algorithm_dual,
              "quotient": algorithm_quotient}


@lru_cache(maxsize=None)
def small_result(characteristic, name, algorithm):
    field = field_from_characteristic(characteristic)
    g = catalog.heisenberg(field) if name == "heisenberg" else catalog.upper_triangular(4, field)
    return ALGORITHMS[algorithm](g)


def scalars(field):
    """Scalars of the field, zero included; over Q, n/d with |n| <= 3 and d <= 3."""
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.builds(rational, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def perturbed_conjugates(draw):
    """P⁻¹ M_l P for a Heisenberg or U_4 result, then maybe one entry moved.

    P = L U with unit-diagonal triangular factors is invertible and mixes the
    triangular supports of the results into cyclic ones.
    """
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    rep = small_result(field.characteristic, draw(st.sampled_from(["heisenberg", "utri4"])),
                       draw(st.sampled_from(sorted(ALGORITHMS))))
    n = rep.dim
    mats = rep.matrices
    if draw(st.booleans()):
        lower = [[field.one if i == j else draw(scalars(field)) if i > j else field.zero
                  for j in range(n)] for i in range(n)]
        upper = [[field.one if i == j else draw(scalars(field)) if i < j else field.zero
                  for j in range(n)] for i in range(n)]
        p = matmul(from_dense(field, lower), from_dense(field, upper))
        p_rows = p.transpose().cols
        inv_rows = invert([p_rows.get(i, {}) for i in range(n)], field)
        p_inv = SparseMatrix(field, n, n, dict(enumerate(inv_rows))).transpose()
        mats = [matmul(matmul(p_inv, m), p) for m in mats]
    mats = [SparseMatrix(field, n, n, {j: dict(col) for j, col in m.cols.items()}) for m in mats]
    if draw(st.booleans()):
        l = draw(st.integers(0, len(mats) - 1))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        delta = draw(scalars(field).filter(lambda x: field.canon(x) != 0))
        col = mats[l].cols.setdefault(j, {})
        col[i] = field.canon(col.get(i, field.zero) + delta)
        if col[i] == 0:
            del col[i]
    return Representation(rep.algebra, mats)


@given(perturbed_conjugates())
def test_verification_matches_the_references(rep):
    assert [is_nilpotent(m) for m in rep.matrices] == \
        [reference_is_nilpotent(m) for m in rep.matrices]
    assert homomorphism_failure(rep) == reference_homomorphism_failure(rep)


# ---------------------------------------------------------------------------
# kernel against the stacked entry rows


def reference_kernel(rep):
    """The kernel as it was built here: one row (M_l[i][j])_l per position
    (i, j), sifted in sorted order until they span g."""
    g = rep.algebra
    rows = {}
    for l, mat in enumerate(rep.matrices):
        for j, col in mat.cols.items():
            for i, v in col.items():
                rows.setdefault((i, j), {})[l] = v
    constraints = Subspace(g.field, g.dim)
    for key in sorted(rows):
        constraints.add(rows[key])
        if constraints.dim == g.dim:
            break
    return subspace_kernel(constraints)


@pytest.mark.parametrize("g", [
    catalog.heisenberg(QQ), catalog.upper_triangular(4, GF(2)),
    catalog.upper_triangular(5, GF(3)), catalog.upper_triangular(5, QQ),
    catalog.free_nilpotent(2, 4, QQ), catalog.filiform_f(13),
], ids=["heisenberg", "U_4/F2", "U_5/F3", "U_5/Q", "N_2_4", "f_13"])
def test_kernel_matches_the_stacked_entry_rows(g):
    regular = algorithm_regular(g)
    for rep in (regular, algorithm_dual(g), algorithm_quotient(g, regular_rep=regular)):
        assert kernel(rep).sparse == reference_kernel(rep).sparse == {}
        # the last matrix replaced by the sum of the first two: a relation
        fld = g.field
        mats = rep.matrices[:-1] + [lincomb(fld, {0: fld.one, 1: fld.one}, rep.matrices)]
        broken = Representation(g, mats)
        assert kernel(broken).dim == 1
        assert kernel(broken).sparse == reference_kernel(broken).sparse

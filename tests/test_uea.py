import pytest

from nilrep.fields import QQ, rational
from nilrep.liealg import LieAlgebra, abelian_algebra
from nilrep.regular import build_truncated_uea, nu
from nilrep.uea import TruncatedUEA, enumerate_monomials, monomial_weight
from nilrep import catalog

Q1 = rational(1)


def heis_uea():
    g = catalog.heisenberg(QQ)
    return build_truncated_uea(g)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_heisenberg_monomials():
    mons = enumerate_monomials((1, 1, 2), 2)
    # 1, x, y, z, x^2, xy, y^2 as exponent tuples
    assert set(mons) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
    }
    assert len(mons) == 7 == nu(3, 2)


def test_enumerate_cutoff_zero():
    assert enumerate_monomials((1, 3, 2), 0) == [(0, 0, 0)]


def test_enumerate_simplex_count():
    assert len(enumerate_monomials((1, 1), 3)) == 10


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_monomials((1, 1), -1)
    with pytest.raises(ValueError):
        enumerate_monomials((0, 1), 2)


def test_enumerate_order_weight_then_lex():
    mons = enumerate_monomials((1, 1, 2), 2)
    keyed = [(monomial_weight(m, (1, 1, 2)), m) for m in mons]
    assert keyed == sorted(keyed)


def test_count_equals_nu_exactly_when_deep_layers_are_lines():
    # the closed form counts the monomials when dim(g^m/g^{m+1}) = 1 for m >= 2
    for g, thin in (
        (catalog.heisenberg(QQ), True),
        (catalog.filiform_f(13), True),
        (abelian_algebra(QQ, 4), True),
        (catalog.upper_triangular(4, QQ), False),
        (catalog.free_nilpotent(2, 5, QQ), False),
    ):
        ab = g.adapted_basis()
        count = len(enumerate_monomials(ab.weights, ab.nilpotency_class))
        bound = nu(g.dim, ab.nilpotency_class)
        assert count <= bound
        assert (count == bound) == thin


# ---------------------------------------------------------------------------
# right multiplication on the Heisenberg algebra, by hand
#
# heis_uea() is the unreversed adapted basis x = x1, y = x2, z = x3 with
# [x, y] = z, weights (1, 1, 2) and cutoff c = 2.  Straightening m * x_i back
# to ascending order uses y x = x y + [y, x] = xy - z; every product of weight
# above 2 is zero.


def test_truncated_uea_validates_input():
    g = catalog.heisenberg(QQ)
    with pytest.raises(ValueError, match="one weight per basis vector"):
        TruncatedUEA(g, (1, 1), 2)
    with pytest.raises(ValueError, match="non-decreasing"):
        TruncatedUEA(g, (1, 2, 1), 2)


def test_rejects_structure_constants_that_are_not_weight_adapted():
    # [x1, x2] = x3 with weights (1, 1, 1): the bracket of two weight-1
    # vectors must have weight >= 2, so this table is not weight-adapted
    g = LieAlgebra(QQ, 3, {(0, 1): {2: Q1}})
    with pytest.raises(ValueError, match="structure constants are not weight-adapted"):
        TruncatedUEA(g, (1, 1, 1), 2)


def test_right_product_worked_example():
    uea = heis_uea()
    x, y, z = (uea.index[m] for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    xy = uea.index[(1, 1, 0)]
    # y . x = xy - z
    assert uea.right_product_ids(y, 0) == {xy: Q1, z: -Q1}
    # x . y = xy is already ascending
    assert uea.right_product_ids(x, 1) == {xy: Q1}
    # xy . x has weight 3 > c = 2
    assert uea.right_product_ids(xy, 0) == {}
    # 1 . z = z
    assert uea.right_product_ids(uea.unit, 2) == {z: Q1}


def test_right_action_matrix_respects_active_set():
    uea = heis_uea()
    one, x, y = uea.unit, uea.index[(1, 0, 0)], uea.index[(0, 1, 0)]
    restricted = uea.restrict([one, x, y])
    pos = {mid: p for p, mid in enumerate(restricted.active)}
    # times x: 1 -> x stays; x -> x^2 and y -> xy - z leave the active set
    assert restricted.right_action_matrix(0).cols == {pos[one]: {pos[x]: Q1}}


def test_action_matrix_central_generator():
    uea = heis_uea()
    mat = uea.right_action_matrix(2)  # 1 -> z; anything else times z has weight > 2
    pos = {mid: p for p, mid in enumerate(uea.active)}
    expected = {pos[uea.unit]: {pos[uea.index[(0, 0, 1)]]: Q1}}
    assert mat.cols == expected


def test_action_matrix_y_columns():
    uea = heis_uea()
    pos = {mid: p for p, mid in enumerate(uea.active)}
    xy, z, y, yy = (uea.index[m] for m in ((1, 1, 0), (0, 0, 1), (0, 1, 0), (0, 2, 0)))
    x, xx, one = uea.index[(1, 0, 0)], uea.index[(2, 0, 0)], uea.unit
    # times y: 1 -> y, x -> xy, y -> y^2; the rest has weight > 2
    mat = uea.right_action_matrix(1)
    assert mat.cols == {pos[one]: {pos[y]: Q1}, pos[x]: {pos[xy]: Q1}, pos[y]: {pos[yy]: Q1}}
    # times x: 1 -> x, x -> x^2, y -> xy - z
    mat = uea.right_action_matrix(0)
    assert mat.cols == {
        pos[one]: {pos[x]: Q1},
        pos[x]: {pos[xx]: Q1},
        pos[y]: {pos[xy]: Q1, pos[z]: -Q1},
    }


def test_abelian_action_matrix_cutoff_one():
    # 1 * x1 = x1; every other product has weight 2 > c = 1
    uea = TruncatedUEA(abelian_algebra(QQ, 2), (1, 1), 1)
    mat = uea.right_action_matrix(0)
    pos = {mid: p for p, mid in enumerate(uea.active)}
    assert mat.cols == {pos[uea.unit]: {pos[uea.index[(1, 0)]]: Q1}}


def test_weight_additivity_of_products():
    g = catalog.upper_triangular(4, QQ)
    uea = build_truncated_uea(g)
    for mid in range(len(uea.monomials)):
        for i in range(g.dim):
            target = uea.weights[i] + uea.weight_of[mid]
            for t in uea.right_product_ids(mid, i):
                assert uea.weight_of[t] >= target


def test_action_matrices_nilpotent_of_index_class_plus_one():
    # m -> m * x_i raises the weight by at least 1, and weight > c is zero
    g = catalog.heisenberg(QQ)
    uea = build_truncated_uea(g)
    c = uea.cutoff
    for i in range(3):
        mat = uea.right_action_matrix(i)
        power = mat
        for _ in range(c):
            power = power.matmul(mat)
        assert power.is_zero_matrix()  # index at most c + 1


def test_monomial_formatting():
    uea = heis_uea()
    assert uea.format_monomial(uea.unit) == "1"
    assert uea.format_monomial(uea.index[(1, 1, 0)]) == "x1*x2"
    assert uea.format_monomial(uea.index[(0, 2, 0)]) == "x2^2"


# ---------------------------------------------------------------------------
# right multiplication (the benchmark convention): oracle and consistency


def straighten_word_right_oracle(uea, word):
    """Bubble-sort straightening in the free associative algebra, truncated."""
    g = uea.algebra
    acc = {}

    def rec(w, coeff):
        if sum(uea.weights[k] for k in w) > uea.cutoff:
            return
        for t in range(len(w) - 1):
            if w[t] > w[t + 1]:
                i, j = w[t], w[t + 1]
                rec(w[:t] + (j, i) + w[t + 2:], coeff)
                for k, cv in g.table.get((j, i), {}).items():
                    rec(w[:t] + (k,) + w[t + 2:], -coeff * cv)
                return
        acc[w] = acc.get(w, 0) + coeff

    rec(word, Q1)
    out = {}
    for w, cv in acc.items():
        if cv == 0:
            continue
        exps = [0] * g.dim
        for k in w:
            exps[k] += 1
        key = uea.index[tuple(exps)]
        out[key] = out.get(key, 0) + cv
    return {k: v for k, v in out.items() if v != 0}


def test_right_products_against_word_oracle():
    g = catalog.upper_triangular(4, QQ)
    uea = build_truncated_uea(g)
    for mid in range(0, len(uea.monomials), 3):
        mono = uea.monomials[mid]
        word = tuple(k for k, a in enumerate(mono) for _ in range(a))
        for i in range(g.dim):
            got = uea.right_product_ids(mid, i)
            want = straighten_word_right_oracle(uea, word + (i,))
            assert got == want, (mono, i)


def test_heisenberg_right_products_against_word_oracle():
    # every product on the Heisenberg algebra, including the worked example
    # y . x = xy - z, agrees with bubble-sort straightening of the word
    uea = heis_uea()
    xy, z = uea.index[(1, 1, 0)], uea.index[(0, 0, 1)]
    assert straighten_word_right_oracle(uea, (1, 0)) == {xy: Q1, z: -Q1}
    for mid, mono in enumerate(uea.monomials):
        word = tuple(k for k, a in enumerate(mono) for _ in range(a))
        for i in range(3):
            assert uea.right_product_ids(mid, i) == straighten_word_right_oracle(uea, word + (i,))


def test_unpruned_action_is_homomorphism_and_nilpotent():
    # R_i: m -> m * x_i satisfies [R_i, R_j] m = m (x_j x_i - x_i x_j)
    # = -R_{[x_i, x_j]} m, so M_i = -R_i is a homomorphism:
    # [M_i, M_j] = [R_i, R_j] = -R_{[x_i, x_j]} = sum_k c_ij^k M_k
    from nilrep.linalg import is_nilpotent

    for g in (catalog.heisenberg(QQ), catalog.upper_triangular(4, QQ)):
        uea = build_truncated_uea(g)
        ga = uea.algebra
        mats = [uea.right_action_matrix(i).scaled(QQ.neg(Q1)) for i in range(g.dim)]
        for i in range(g.dim):
            assert is_nilpotent(mats[i])
            for j in range(i + 1, g.dim):
                lhs = mats[i].commutator(mats[j])
                for k, c in ga.table.get((i, j), {}).items():
                    lhs = lhs.add_scaled(mats[k], QQ.neg(c))
                assert lhs.is_zero_matrix()


def test_masks_match_products():
    g = catalog.heisenberg(QQ)
    uea = build_truncated_uea(g)
    right = uea.right_support_masks()
    for i in range(3):
        for mid in range(7):
            assert right[i][mid] == sum(1 << t for t in uea.right_product_ids(mid, i))

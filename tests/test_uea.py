import math

import pytest
from hypothesis import given, settings

from helpers import free_nilpotent_quotients, matmul, product_dicts, rebased
from nilrep.fields import Field, QQ, rational
from nilrep.liealg import LieAlgebra, abelian_algebra
from nilrep.fields import GF
from nilrep.regular import _reversed_model, nu
from nilrep import uea as uea_module
from nilrep.uea import TruncatedUEA, enumerate_monomials
from nilrep import catalog

Q1 = rational(1)


def truncated_uea(g):
    """The full truncated UEA over g's adapted basis, in its given order."""
    ad = g.adapted_basis()
    return TruncatedUEA(ad.algebra, ad.weights, ad.nilpotency_class)


def heis_uea():
    return truncated_uea(catalog.heisenberg(QQ))


def weight(mono, weights):
    return sum(a * w for a, w in zip(mono, weights))


def value_of(uea, products, mid, i):
    """monomial(mid) * x_i with exact coefficients: numerator N at t stands
    for N / mu^(|mid| + 1 - |t|), |.| the number of factors."""
    top = sum(uea.monomials[mid]) + 1
    return {
        t: rational(n, uea.mu ** (top - sum(uea.monomials[t])))
        for t, n in products[mid].get(i, {}).items()
    }


def every(uea):
    """All monomial ids, in order: the unpruned module."""
    return range(len(uea.monomials))


def right_matrices(uea, active=None):
    """Right multiplication by each generator on ``active`` (default: every monomial)."""
    if active is None:
        active = every(uea)
    return uea.right_action_matrices(uea.right_products(), active)


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
    weights = (1, 1, 2)
    mons = enumerate_monomials(weights, 2)
    keyed = [(weight(m, weights), m) for m in mons]
    assert keyed == sorted(keyed)
    # the UEA numbers its monomials in that order, with their weights
    uea = heis_uea()
    assert uea.monomials == mons
    assert uea.weight_of == [weight(m, weights) for m in uea.monomials]


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


def test_negative_generator_index_raises_and_never_wraps():
    uea = heis_uea()
    products = product_dicts(uea.right_products())
    # a row keys generator indices; a negative one must not wrap around to
    # the last generator z
    assert -1 not in products[uea.unit] and 3 not in products[uea.unit]
    with pytest.raises(KeyError):
        products[uea.unit][-1]
    with pytest.raises(KeyError):
        uea.degree_one_mid(-1)
    with pytest.raises(KeyError):
        uea.degree_one_mid(3)
    assert len(right_matrices(uea)) == 3
    assert products[uea.unit][2] == {uea.degree_one_mid(2): Q1}
    assert uea.degree_one_mid(2) == uea.index[(0, 0, 1)]


def test_rejects_structure_constants_that_are_not_weight_adapted():
    # [x1, x2] = x3 with weights (1, 1, 1): the bracket of two weight-1
    # vectors must have weight >= 2, so this table is not weight-adapted
    g = LieAlgebra(QQ, 3, {(0, 1): {2: Q1}})
    with pytest.raises(ValueError, match="structure constants are not weight-adapted"):
        TruncatedUEA(g, (1, 1, 1), 2)


def test_right_product_worked_example():
    uea = heis_uea()
    products = product_dicts(uea.right_products())
    assert uea.mu == 1  # integral constants: the numerators are the values
    x, y, z = (uea.index[m] for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    xy = uea.index[(1, 1, 0)]
    # y . x = xy - z
    assert products[y][0] == {xy: Q1, z: -Q1}
    # x . y = xy is already ascending
    assert products[x][1] == {xy: Q1}
    # xy . x has weight 3 > c = 2: no entry
    assert 0 not in products[xy]
    # 1 . z = z
    assert products[uea.unit][2] == {z: Q1}
    # one row per monomial, keyed by the generators with a nonzero product
    assert len(products) == 7
    assert all(set(row) <= {0, 1, 2} and all(row.values()) for row in products)


def test_right_action_matrix_respects_active_set():
    uea = heis_uea()
    one, x, y = uea.unit, uea.index[(1, 0, 0)], uea.index[(0, 1, 0)]
    active = [one, x, y]
    pos = {mid: p for p, mid in enumerate(active)}
    # times x: 1 -> x stays; x -> x^2 and y -> xy - z leave the active set
    assert right_matrices(uea, active)[0].cols == {pos[one]: {pos[x]: Q1}}


def test_action_matrix_central_generator():
    uea = heis_uea()
    mat = right_matrices(uea)[2]  # 1 -> z; anything else times z has weight > 2
    pos = {mid: p for p, mid in enumerate(every(uea))}
    expected = {pos[uea.unit]: {pos[uea.index[(0, 0, 1)]]: Q1}}
    assert mat.cols == expected


def test_action_matrix_y_columns():
    uea = heis_uea()
    pos = {mid: p for p, mid in enumerate(every(uea))}
    xy, z, y, yy = (uea.index[m] for m in ((1, 1, 0), (0, 0, 1), (0, 1, 0), (0, 2, 0)))
    x, xx, one = uea.index[(1, 0, 0)], uea.index[(2, 0, 0)], uea.unit
    mats = right_matrices(uea)
    # times y: 1 -> y, x -> xy, y -> y^2; the rest has weight > 2
    mat = mats[1]
    assert mat.cols == {pos[one]: {pos[y]: Q1}, pos[x]: {pos[xy]: Q1}, pos[y]: {pos[yy]: Q1}}
    # times x: 1 -> x, x -> x^2, y -> xy - z
    mat = mats[0]
    assert mat.cols == {
        pos[one]: {pos[x]: Q1},
        pos[x]: {pos[xx]: Q1},
        pos[y]: {pos[xy]: Q1, pos[z]: -Q1},
    }


def test_abelian_action_matrix_cutoff_one():
    # 1 * x1 = x1; every other product has weight 2 > c = 1
    uea = TruncatedUEA(abelian_algebra(QQ, 2), (1, 1), 1)
    mat = right_matrices(uea)[0]
    pos = {mid: p for p, mid in enumerate(every(uea))}
    assert mat.cols == {pos[uea.unit]: {pos[uea.index[(1, 0)]]: Q1}}


def test_weight_additivity_of_products():
    g = catalog.upper_triangular(4, QQ)
    uea = truncated_uea(g)
    products = product_dicts(uea.right_products())
    assert len(products) == len(uea.monomials)
    for mid, row in enumerate(products):
        assert set(row) <= set(range(g.dim))
        for i, prod in row.items():
            target = uea.weights[i] + uea.weight_of[mid]
            for t in prod:
                assert uea.weight_of[t] >= target


def test_action_matrices_nilpotent_of_index_class_plus_one():
    # m -> m * x_i raises the weight by at least 1, and weight > c is zero
    g = catalog.heisenberg(QQ)
    uea = truncated_uea(g)
    c = uea.cutoff
    for mat in right_matrices(uea):
        power = mat
        for _ in range(c):
            power = matmul(power, mat)
        assert not power.cols  # index at most c + 1


# ---------------------------------------------------------------------------
# right multiplication (the benchmark convention): oracle and consistency


def straighten_word_right_oracle(uea, word):
    """Bubble-sort straightening in the free associative algebra, truncated."""
    g = uea.algebra
    fld = uea.field
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

    rec(word, fld.one)
    out = {}
    for w, cv in acc.items():
        exps = [0] * g.dim
        for k in w:
            exps[k] += 1
        key = uea.index[tuple(exps)]
        out[key] = out.get(key, 0) + cv
    return fld.clean(out)


def check_products_against_word_oracle(uea, step=1):
    products = product_dicts(uea.right_products())
    for mid in range(0, len(uea.monomials), step):
        mono = uea.monomials[mid]
        word = tuple(k for k, a in enumerate(mono) for _ in range(a))
        for i in range(uea.algebra.dim):
            want = straighten_word_right_oracle(uea, word + (i,))
            assert value_of(uea, products, mid, i) == want, (mono, i)


def test_right_products_against_word_oracle():
    check_products_against_word_oracle(truncated_uea(catalog.upper_triangular(4, QQ)), step=3)


@pytest.mark.parametrize(
    "g",
    [catalog.upper_triangular(4, GF(3)), catalog.free_nilpotent(2, 4, QQ)],
    ids=["U4_F3", "N_2_4"],
)
def test_layer_reversed_model_products_against_word_oracle(g):
    # the model build_pruned_module multiplies in: the adapted basis with
    # every weight layer reversed, over F_p as well as Q
    uea = _reversed_model(g.adapted_basis())[0]
    check_products_against_word_oracle(uea)


def test_heisenberg_right_products_against_word_oracle():
    # every product on the Heisenberg algebra, including the worked example
    # y . x = xy - z, agrees with bubble-sort straightening of the word
    uea = heis_uea()
    xy, z = uea.index[(1, 1, 0)], uea.index[(0, 0, 1)]
    assert straighten_word_right_oracle(uea, (1, 0)) == {xy: Q1, z: -Q1}
    check_products_against_word_oracle(uea)


def test_non_integral_products_against_word_oracle():
    # rational structure constants, so mu > 1 and the numerators carry
    # powers of mu: the layer-reversed model of f_13, and N_{2,3} rescaled
    # to [x1, x2] = 1/2 x3, [x1, x3] = 2/3 x4, [x2, x3] = 3/5 x5
    f13 = _reversed_model(catalog.filiform_f(13).adapted_basis())[0]
    assert f13.mu > 1
    check_products_against_word_oracle(f13, step=3)
    r = rational
    g = LieAlgebra(
        QQ, 5, {(0, 1): {2: r(1, 2)}, (0, 2): {3: r(2, 3)}, (1, 2): {4: r(3, 5)}}
    )
    assert g.check_jacobi() == []
    uea = TruncatedUEA(g, (1, 1, 2, 3, 3), 3)
    assert uea.mu == 30
    check_products_against_word_oracle(uea)
    # x2 * x1 = x1 x2 - 1/2 x3: numerators -15 over mu^1 and 1 over mu^0
    x1, x2, x3 = (uea.degree_one_mid(k) for k in range(3))
    x1x2 = uea.index[(1, 1, 0, 0, 0)]
    assert product_dicts(uea.right_products())[x2][0] == {x1x2: 1, x3: -15}
    assert value_of(uea, product_dicts(uea.right_products()), x2, 0) == {x1x2: Q1, x3: r(-1, 2)}


def test_unpruned_action_is_homomorphism_and_nilpotent():
    # R_i: m -> m * x_i satisfies [R_i, R_j] m = m (x_j x_i - x_i x_j)
    # = -R_{[x_i, x_j]} m, so M_i = -R_i is a homomorphism:
    # [M_i, M_j] = [R_i, R_j] = -R_{[x_i, x_j]} = sum_k c_ij^k M_k
    from nilrep.linalg import is_nilpotent, lincomb

    for g in (catalog.heisenberg(QQ), catalog.upper_triangular(4, QQ)):
        uea = truncated_uea(g)
        ga = uea.algebra
        right = right_matrices(uea)
        mats = [lincomb(QQ, {i: QQ.neg(Q1)}, right) for i in range(g.dim)]
        for i in range(g.dim):
            assert is_nilpotent(mats[i])
            for j in range(i + 1, g.dim):
                # commutator minus sum_k c_ij^k M_k, with M_k at index 2 + k
                bracket = {2 + k: QQ.neg(c) for k, c in ga.table.get((i, j), {}).items()}
                lhs = lincomb(QQ, {0: Q1, 1: QQ.neg(Q1), **bracket},
                              [matmul(mats[i], mats[j]), matmul(mats[j], mats[i])] + mats)
                assert not lhs.cols



def reference_scaled_table(g):
    """``(mu, table)`` as they were built here: mu the lcm of the structure
    constants' denominators (1 over F_p), then each constant times it."""
    fld = g.field
    mu = 1 if fld.characteristic else math.lcm(
        1, *{int(c.denominator) for terms in g.table.values() for c in terms.values()
             if type(c) is not int})
    return mu, {key: {s: fld.mul(c, mu) for s, c in terms.items()}
                for key, terms in g.table.items()}


@pytest.mark.parametrize("build", [
    lambda: catalog.heisenberg(QQ),
    lambda: catalog.upper_triangular(4, GF(2)),
    lambda: catalog.upper_triangular(5, GF(3)),
    lambda: catalog.filiform_f(13, QQ),
    lambda: rebased(catalog.upper_triangular(5, QQ), 2),
    lambda: rebased(catalog.upper_triangular(5, GF(2)), 3),
    lambda: rebased(catalog.upper_triangular(5, GF(3)), 4),
    lambda: rebased(catalog.filiform_f(13, QQ), 1),
], ids=["heisenberg", "utri4-F2", "utri5-F3", "f13", "rebased-utri5", "rebased-utri5-F2",
        "rebased-utri5-F3", "rebased-f13"])
def test_mu_and_the_integer_table_equal_the_hand_scaled_ones(build, monkeypatch):
    # the table is scaled once, for both mu and the products
    ad = build().adapted_basis()
    mu, table = reference_scaled_table(ad.algebra)
    scaled = []
    integral_maps = Field.integral_maps

    def recorded(self, maps):
        scaled.append(integral_maps(self, maps))
        return scaled[-1]

    monkeypatch.setattr(Field, "integral_maps", recorded)
    uea = TruncatedUEA(ad.algebra, ad.weights, ad.nilpotency_class)
    assert uea.mu == mu
    uea.right_products()
    assert scaled == [([table], mu)]
    assert ([type(c) for terms in scaled[0][0][0].values() for c in terms.values()]
            == [type(c) for terms in table.values() for c in terms.values()])


# ---------------------------------------------------------------------------
# the table layout against the one-dict-per-product table


def reference_right_products(uea):
    """``TruncatedUEA.right_products`` as it was with one dict ``{t: N}`` per
    product, appends included."""
    fld = uea.field
    d = uea.algebra.dim
    weights, cutoff, index = uea.weights, uea.cutoff, uea.index
    table = uea._table
    rows = [{} for _ in uea.monomials]
    rest = [[] for _ in range(cutoff + 1)]
    for mid, mono in enumerate(uea.monomials):
        k = max((j for j in range(d) if mono[j]), default=0)
        room = cutoff - uea.weight_of[mid]
        row = rows[mid]
        for i in range(k, d):
            if weights[i] > room:
                break
            row[i] = {index[mono[:i] + (mono[i] + 1,) + mono[i + 1:]]: 1}
        if k and weights[0] <= room:
            shorter = index[mono[:k] + (mono[k] - 1,) + mono[k + 1:]]
            rest[sum(mono)].append((mid, k, shorter, room))
    for layer in rest:
        for mid, k, shorter, room in layer:
            row, srow = rows[mid], rows[shorter]
            for i in range(k):
                if weights[i] > room:
                    break
                acc = {}
                for t, a in srow.get(i, {}).items():
                    for u, b in rows[t].get(k, {}).items():
                        acc[u] = acc.get(u, 0) + a * b
                for s, c in table.get((i, k), {}).items():
                    for t, a in srow.get(s, {}).items():
                        acc[t] = acc.get(t, 0) - c * a
                prod = fld.clean(acc)
                if prod:
                    row[i] = prod
    return rows


def check_table_against_reference(g):
    uea = _reversed_model(g.adapted_basis())[0]
    rows, want = uea.right_products(), reference_right_products(uea)
    assert product_dicts(rows) == want
    assert uea_module._EMPTY == {}  # the shared empty row took no entry
    # exactly the products {t: 1} are bare ids, and the ids are the table's own
    for row, want_row in zip(rows, want):
        for i, prod in row.items():
            assert (type(prod) is int) == (list(want_row[i].values()) == [1])
            if type(prod) is int:
                assert prod in want_row[i] and 0 <= prod < len(uea.monomials)


@pytest.mark.parametrize("build", [
    lambda: catalog.heisenberg(QQ),
    lambda: catalog.upper_triangular(5, GF(2)),
    lambda: catalog.upper_triangular(5, GF(3)),
    lambda: catalog.upper_triangular(5, QQ),
    lambda: catalog.free_nilpotent(2, 5, QQ),
    lambda: catalog.free_nilpotent(3, 3, GF(2)),
    lambda: catalog.filiform_f(13, QQ),
    lambda: catalog.filiform_f(15, QQ),
    lambda: rebased(catalog.upper_triangular(5, GF(3)), 4),
    lambda: rebased(catalog.filiform_f(13, QQ), 1),
], ids=["heisenberg", "utri5-F2", "utri5-F3", "utri5", "N_2_5", "N_3_3-F2", "f13", "f15",
        "rebased-utri5-F3", "rebased-f13"])
def test_table_matches_the_one_dict_per_product_table(build):
    check_table_against_reference(build())


@settings(max_examples=25)
@given(free_nilpotent_quotients())
def test_table_matches_the_one_dict_per_product_table_on_quotients(g):
    check_table_against_reference(g)

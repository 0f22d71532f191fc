import random

import pytest

from helpers import from_dense
from nilrep.fields import QQ, rational
from nilrep.liealg import abelian_algebra
from nilrep.linalg import SparseMatrix, Subspace, intersect, invert
from nilrep.regular import algorithm_regular, regular_unpruned
from nilrep.representation import (
    Representation,
    annihilated_subspace,
    center_image,
    homomorphism_failure,
    is_faithful,
    is_homomorphism,
    kernel,
    verify_report,
)
from nilrep.dual import algorithm_dual

Q0, Q1 = rational(0), rational(1)


def coord_span(indices, ambient):
    vecs = []
    for i in indices:
        v = [Q0] * ambient
        v[i] = Q1
        vecs.append(v)
    return Subspace.from_vectors(QQ, ambient, vecs)


def zero_rep(g, dim):
    return Representation(g, [SparseMatrix.zero(g.field, dim, dim) for _ in range(g.dim)])


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
    mats[2] = SparseMatrix.zero(QQ, 7, 7)  # breaks [M_x, M_y] = M_z
    assert homomorphism_failure(Representation(heis, mats)) == (0, 1)


def test_kernel_of_regular_is_trivial(heis_unpruned):
    assert kernel(heis_unpruned).dim == 0


def test_kernel_extended_by_zero(heis):
    # a faithful rho on g/<z> (3x3 affine form), extended by M_z = 0, has
    # kernel exactly <z> = <a_d>
    mats = [
        from_dense(QQ, [[Q0, Q0, Q0], [Q1, Q0, Q0], [Q0, Q0, Q0]]),  # x
        from_dense(QQ, [[Q0, Q0, Q0], [Q0, Q0, Q0], [Q1, Q0, Q0]]),  # y
        SparseMatrix.zero(QQ, 3, 3),  # z := 0
    ]
    rep = Representation(heis, mats)
    assert is_homomorphism(rep)
    assert kernel(rep) == coord_span([2], 3)


def test_annihilated_subspace_heisenberg(heis_unpruned):
    # S = <z, x^2, yx, y^2>: every weight-2 monomial times a generator has
    # weight 3 > c, while for a x + b y + e 1 the product with y is
    # a (yx + z) + b y^2 + e y, zero only when a = b = e = 0
    S = annihilated_subspace(heis_unpruned)
    assert S == coord_span([3, 4, 5, 6], 7)


def test_annihilated_subspace_zero_rep(heis):
    assert annihilated_subspace(zero_rep(heis, 4)).dim == 4


def test_center_image_heisenberg(heis_unpruned):
    # C = <z>: 1*z = z and every other monomial times z has weight > 2
    assert center_image(heis_unpruned) == coord_span([3], 7)


def test_center_image_zero_rep():
    g = abelian_algebra(QQ, 2)
    assert center_image(zero_rep(g, 3)).dim == 0


def test_center_image_dual_module(heis):
    # z acts on the 3-dim dual module with image spanned by psi_1 (dual of 1)
    dual = algorithm_dual(heis)
    C = center_image(dual)
    assert C.dim == 1
    S = annihilated_subspace(dual)
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
    conjugated = [Pinv.matmul(m).matmul(P) for m in rep.matrices]
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

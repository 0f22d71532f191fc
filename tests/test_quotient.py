import pytest

from helpers import intersect, matmul, rebased, regular_unpruned
from nilrep import catalog, liealg, quotient, representation
from nilrep.fields import GF, QQ, rational
from nilrep.liealg import LieAlgebra, _generators
from nilrep.linalg import SparseMatrix, Subspace
from nilrep.quotient import algorithm_quotient, reduce_once
from nilrep.regular import algorithm_regular
from nilrep.representation import (
    Representation,
    annihilated_subspace,
    center_image,
    is_faithful,
    is_homomorphism,
)

Q1 = rational(1)


def test_reduce_once_heisenberg_worked_example(heis):
    # The 7-dim module on the layer-reversed basis y, x, z acts by minus right
    # multiplication; its monomial order is 1, x, y, z, x^2, yx, y^2.  Every
    # weight-2 monomial times a generator has weight 3 > c, while x*y = yx + z
    # and y*y = y^2 are nonzero, so S = <z, x^2, yx, y^2> (positions 3-6).
    # C = z*V = <z>.  Sifting the echelon basis e3..e6 of S into C skips e3
    # (already in C), so W = <x^2, yx, y^2>, new dim 4
    rep = regular_unpruned(heis)
    center, gens = heis.center(), _generators(heis)[1]
    new_rep, W = reduce_once(rep, center, gens)
    assert W == [{4: Q1}, {5: Q1}, {6: Q1}]
    assert new_rep.dim == 4
    assert is_homomorphism(new_rep) and is_faithful(new_rep)
    # second application on 1, x, y, z: y*x = yx and y*y = y^2 are now zero,
    # x*y = z is not, so S = <y, z>, C = <z>, W = <y>, dim 3
    rep3, W2 = reduce_once(new_rep, center, gens)
    assert len(W2) == 1 and rep3.dim == 3
    assert is_homomorphism(rep3) and is_faithful(rep3)
    # fixpoint: W = 0 and the representation is returned unchanged
    rep_same, W3 = reduce_once(rep3, center, gens)
    assert W3 == [] and rep_same is rep3


def test_reduce_once_respects_termination_condition(heis):
    rep = algorithm_quotient(heis)
    gens = _generators(heis)[1]
    assert annihilated_subspace(rep, gens).dim > 0
    S = annihilated_subspace(rep, gens)
    C = center_image(rep, heis.center())
    assert intersect(S, C) == S  # S subset of C, i.e. W = 0


def test_algorithm_quotient_heisenberg(heis):
    rep = algorithm_quotient(heis)
    assert rep.dim == 3
    assert is_homomorphism(rep) and is_faithful(rep)
    assert rep.provenance["algorithm"] == "quotient"


def test_quotient_le_regular(u4):
    reg = algorithm_regular(u4)
    quo = algorithm_quotient(u4, regular_rep=reg)
    assert quo.dim <= reg.dim
    assert is_homomorphism(quo) and is_faithful(quo)


def test_quotient_strictly_decreases(heis):
    rep = regular_unpruned(heis)
    dims = [rep.dim]
    while True:
        new_rep, W = reduce_once(rep, heis.center(), _generators(heis)[1])
        if not W:
            break
        assert new_rep.dim < rep.dim
        rep = new_rep
        dims.append(rep.dim)
    assert dims == [7, 4, 3]


def test_quotient_leaves_its_regular_input_alone(heis):
    # Regular on Heisenberg (dim 3) is already a Quotient fixpoint, so no
    # round shrinks it; the result must still be a new Representation
    reg = algorithm_regular(heis)
    before = dict(reg.provenance)
    quo = algorithm_quotient(heis, regular_rep=reg)
    assert quo is not reg
    assert reg.provenance == before and reg.provenance["algorithm"] == "regular"
    assert quo.provenance["algorithm"] == "quotient"
    assert quo.dim == reg.dim == 3 and quo.matrices == reg.matrices


def test_quotient_computes_the_center_once(monkeypatch, f13):
    # the center does not change between rounds, so the loop reads it once;
    # Regular runs first because its adapted basis reads the center too
    reg = algorithm_regular(f13)
    calls = []
    center = LieAlgebra.center

    def counted(self):
        calls.append(self)
        return center(self)

    monkeypatch.setattr(LieAlgebra, "center", counted)
    quo = algorithm_quotient(f13, regular_rep=reg)
    assert len(quo.provenance["w_dims"]) > 1
    assert calls == [f13]


def test_quotient_computes_the_generators_once(monkeypatch):
    # V and its closure check do not change between rounds either: the loop
    # reads them once however many rounds the rebased f_14 needs
    g = rebased(catalog.filiform_f(14), 1)
    reg = algorithm_regular(g)
    calls = []
    generators = liealg._generators

    def counted(h):
        calls.append(h)
        return generators(h)

    for module in (liealg, representation, quotient):
        if hasattr(module, "_generators"):
            monkeypatch.setattr(module, "_generators", counted)
    quo = algorithm_quotient(g, regular_rep=reg)
    assert len(quo.provenance["w_dims"]) > 1
    assert calls == [g]


def test_quotient_rejects_a_regular_rep_of_another_algebra(heis, u4):
    with pytest.raises(ValueError, match="another algebra"):
        algorithm_quotient(heis, regular_rep=algorithm_regular(u4))
    reg = algorithm_regular(catalog.heisenberg(QQ))
    assert reg.algebra is not heis and algorithm_quotient(heis, regular_rep=reg).dim == 3


def _complement_of_s_cap_c(rep):
    """The greedy complement of M = S ∩ C in S, built from M itself: S's
    echelon rows independent of M plus the rows before them."""
    S = annihilated_subspace(rep, _generators(rep.algebra)[1])
    grown = intersect(S, center_image(rep, rep.algebra.center()))
    m_dim = grown.dim
    W = Subspace(rep.field, rep.dim)
    for row in S.sparse.values():
        if grown.add(row) is not None:
            W.add(row)
    assert W.dim + m_dim == S.dim
    return W


# Heisenberg on the basis x, y, c = 2x + z: [x, y] = c - 2x, [y, c] = 4x - 2c
HEIS_REBASED = LieAlgebra(QQ, 3, {(0, 1): {0: rational(-2), 2: Q1},
                                  (1, 2): {0: rational(4), 2: rational(-2)}})


@pytest.mark.parametrize("g, unpruned", [
    (catalog.heisenberg(QQ), False), (catalog.heisenberg(GF(3)), False),
    (catalog.heisenberg(QQ), True), (catalog.upper_triangular(4, GF(2)), False),
    (catalog.upper_triangular(5, GF(3)), False), (catalog.filiform_f(13), False),
    (HEIS_REBASED, False), (HEIS_REBASED, True),
], ids=["heisenberg/Q", "heisenberg/F3", "heisenberg-unpruned/Q", "U_4/F2", "U_5/F3",
        "f_13/Q", "heisenberg-rebased/Q", "heisenberg-rebased-unpruned/Q"])
def test_each_round_removes_the_complement_of_s_cap_c(g, unpruned):
    # sifting S into C instead of into S ∩ C keeps the same rows of S
    rep = regular_unpruned(g) if unpruned else algorithm_regular(g)
    gens = _generators(g)[1]
    while True:
        new_rep, W = reduce_once(rep, g.center(), gens)
        assert W == list(_complement_of_s_cap_c(rep).sparse.values())
        # W ⊆ S, its rows are independent, W ∩ C = 0 and W + (S ∩ C) = S
        S, C = annihilated_subspace(rep, gens), center_image(rep, g.center())
        w, grown = Subspace(rep.field, rep.dim), intersect(S, C)
        for row in W:
            assert not S.reduce(row)
            w.add(row)
            grown.add(row)
        assert w.dim == len(W) and intersect(w, C).dim == 0 and grown == S
        if not W:
            break
        rep = new_rep


# ---------------------------------------------------------------------------
# the projection against the rational projection matrix


def reference_projection(sub):
    """``(kept, P)``: the greedy coordinate complement of ``sub`` and the
    rational projection matrix onto it, each dropped column read off the
    canonical echelon form of ``sub`` with the column order reversed."""
    fld, n = sub.field, sub.ambient
    rev = Subspace(fld, n)
    for row in sub.sparse.values():
        rev.add({n - 1 - j: x for j, x in row.items()})
    dropped = {n - 1 - pc: row for pc, row in rev.sparse.items()}
    kept = [k for k in range(n) if k not in dropped]
    pos = {k: t for t, k in enumerate(kept)}
    cols = {k: {t: fld.one} for t, k in enumerate(kept)}
    for j, row in dropped.items():
        col = {pos[n - 1 - c]: fld.neg(x) for c, x in row.items() if c != n - 1 - j}
        if col:
            cols[j] = col
    return kept, SparseMatrix(fld, len(kept), n, cols)


def reference_reduce_once(rep):
    """A Quotient round that multiplies P into every restricted matrix."""
    fld = rep.field
    C = center_image(rep, rep.algebra.center())
    W = Subspace(fld, rep.dim)
    for row in annihilated_subspace(rep, _generators(rep.algebra)[1]).sparse.values():
        if C.add(row) is not None:
            W.add(row)
    if W.dim == 0:
        return rep, W
    kept, proj = reference_projection(W)
    new_mats = []
    for mat in rep.matrices:
        restricted = {t: mat.cols[k] for t, k in enumerate(kept) if k in mat.cols}
        new_mats.append(matmul(proj, SparseMatrix(fld, rep.dim, len(kept), restricted)))
    return Representation(rep.algebra, new_mats, dict(rep.provenance)), W


def typed_entries(rep):
    return [{j: {i: (x, type(x)) for i, x in col.items()} for j, col in mat.cols.items()}
            for mat in rep.matrices]


@pytest.mark.parametrize("build", [
    lambda: catalog.filiform_f(13), lambda: catalog.filiform_f(14),
    lambda: catalog.filiform_f(15), lambda: catalog.filiform_f(16),
    lambda: catalog.filiform_f(17), lambda: catalog.upper_triangular(5, GF(3)),
    lambda: catalog.upper_triangular(6, GF(2)), lambda: catalog.upper_triangular(6, QQ),
    lambda: rebased(catalog.filiform_f(13), 1),
    lambda: rebased(catalog.upper_triangular(6, QQ), 2),
    lambda: rebased(catalog.upper_triangular(5, GF(3)), 3),
], ids=["f_13", "f_14", "f_15", "f_16", "f_17", "U_5/F3", "U_6/F2", "U_6/Q",
        "rebased-f_13/Q", "rebased-U_6/Q", "rebased-U_5/F3"])
def test_rounds_match_the_projection_matrix(build):
    g = build()
    reg = algorithm_regular(g)
    rep, ref, w_dims = reg, reg, []
    while True:
        new_rep, W = reduce_once(rep, g.center(), _generators(g)[1])
        ref_rep, ref_W = reference_reduce_once(ref)
        assert W == list(ref_W.sparse.values())
        assert typed_entries(new_rep) == typed_entries(ref_rep)
        assert (new_rep.dim, new_rep.algebra) == (ref_rep.dim, ref_rep.algebra)
        if not W:
            break
        w_dims.append(len(W))
        rep, ref = new_rep, ref_rep
    quo = algorithm_quotient(g, regular_rep=reg)
    assert quo.provenance["w_dims"] == w_dims
    assert typed_entries(quo) == typed_entries(ref)

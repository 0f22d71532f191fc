"""Work from the generators: S, Z(g) ∩ g^m and the adapted basis against
the references they replaced.

S (``helpers.annihilated_subspace``, and the S of every Quotient round)
reads only the matrices of a complement V of [g, g], ``_adapted_basis``
takes Z(g) ∩ g^m from residuals against g^m, and it walks the layers top
weight first through one span that only grows.  Each is checked against the
old computation (every matrix's rows stacked; Zassenhaus' intersection; a
fresh span per layer seeded with g^{m+1}) on catalog algebras over Q, F_2
and F_3, on f_13 to f_17, on rebased inputs and on random quotients of free
nilpotent algebras, and a count of the rows sifted pins down that
``algorithm_quotient`` reads S off the generators alone.
"""

import pytest
from hypothesis import given, settings

import helpers
from helpers import (
    annihilated_subspace,
    free_nilpotent_quotients,
    intersect,
    iterated_quotient,
    rebased,
    subspace_kernel,
)
from nilrep import catalog, liealg
from nilrep.dual import algorithm_dual
from nilrep.fields import GF, QQ
from nilrep.liealg import AdaptedBasis, LieAlgebra, NotNilpotentError
from nilrep.linalg import SparseMatrix, Subspace, invert
from nilrep.quotient import algorithm_quotient
from nilrep.regular import algorithm_regular, build_pruned_module
from nilrep.representation import Representation


def stacked_annihilated_subspace(rep, _gens):
    """The kernel of the rows of every matrix stacked in one subspace; the
    generators are not read."""
    stacked = Subspace(rep.field, rep.dim)
    for mat in rep.matrices:
        for _i, row in sorted(mat.transpose().cols.items()):
            stacked.add(row)
    return subspace_kernel(stacked)


def per_layer_adapted_basis(g):
    """The adapted basis built one layer at a time, weight ascending, each
    layer sifted into a fresh span seeded with the echelon rows of g^{m+1}."""
    fld = g.field
    series = g.lower_central_series()
    center = g.center()
    ordered = []
    for m in range(1, len(series)):
        gm = series[m - 1]
        spanned = Subspace(fld, g.dim)
        for row in series[m].sparse.values():
            spanned.add(row)
        for row in liealg._central_part(center, gm).sparse.values():
            if spanned.add(row) is not None:
                ordered.append((m, row, True))
        for idx in range(g.dim):
            row = {idx: fld.one}
            if not gm.reduce(row) and spanned.add(row) is not None:
                ordered.append((m, row, False))
        for row in gm.sparse.values():
            if spanned.add(row) is not None:
                ordered.append((m, row, False))
    matrix = tuple(dict(vec) for (_m, vec, _z) in ordered)
    inverse = invert(matrix, fld)
    to_new = SparseMatrix(fld, g.dim, g.dim, dict(enumerate(inverse)))
    return AdaptedBasis(matrix, inverse, tuple(m for (m, _v, _z) in ordered),
                        tuple(z for (_m, _v, z) in ordered), g.rewritten(matrix, to_new), g)


def check_against_references(g):
    center = g.center()
    for gm in g.lower_central_series():
        assert liealg._central_part(center, gm).sparse == intersect(center, gm).sparse
    adapted = g.adapted_basis()
    reference = per_layer_adapted_basis(g)
    for name in ("matrix", "inverse", "weights", "central_flags", "algebra", "source"):
        assert getattr(adapted, name) == getattr(reference, name), name
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liealg, "_central_part", intersect)
        # a copy of g: g keeps the adapted basis it built
        assert adapted.matrix == LieAlgebra(g.field, g.dim, g.table).adapted_basis().matrix

    module = build_pruned_module(g, adapted)
    regular = algorithm_regular(g, module=module)
    gens = liealg._generators(g)[1]
    for r in (regular, algorithm_dual(g, module=module)):
        assert annihilated_subspace(r, gens).sparse == stacked_annihilated_subspace(r, gens).sparse
    # the paper's rounds with S from every matrix stacked
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpers, "annihilated_subspace", stacked_annihilated_subspace)
        ref_quo = iterated_quotient(regular)
    quo = algorithm_quotient(g, regular_rep=regular)
    assert quo.matrices == ref_quo.matrices and quo.provenance == ref_quo.provenance


CATALOG = [
    (name, build, field)
    for name, build in [
        ("heisenberg", catalog.heisenberg),
        ("U_4", lambda f: catalog.upper_triangular(4, f)),
        ("U_5", lambda f: catalog.upper_triangular(5, f)),
        ("N_2_4", lambda f: catalog.free_nilpotent(2, 4, f)),
        ("N_3_3", lambda f: catalog.free_nilpotent(3, 3, f)),
    ]
    for field in (QQ, GF(2), GF(3))
]


@pytest.mark.parametrize("name, build, field", CATALOG,
                         ids=["%s-%r" % (name, field) for name, _b, field in CATALOG])
def test_catalog_algebras_match_the_references(name, build, field):
    check_against_references(build(field))


@pytest.mark.parametrize("n", range(13, 18))
def test_filiform_algebras_match_the_references(n):
    check_against_references(catalog.filiform_f(n))


REBASED = [
    ("U_5-Q", lambda: catalog.upper_triangular(5, QQ), 1),
    ("U_5-F3", lambda: catalog.upper_triangular(5, GF(3)), 2),
    ("N_2_4-F2", lambda: catalog.free_nilpotent(2, 4, GF(2)), 3),
    ("f_13", lambda: catalog.filiform_f(13), 4),
]


@pytest.mark.parametrize("name, build, seed", REBASED, ids=[name for name, _b, _s in REBASED])
def test_rebased_algebras_match_the_references(name, build, seed):
    check_against_references(rebased(build(), seed))


@settings(max_examples=25)
@given(free_nilpotent_quotients())
def test_random_nilpotent_quotients_match_the_references(g):
    check_against_references(g)


def _generator_indices(g):
    derived = Subspace(g.field, g.dim)
    for terms in g.table.values():
        derived.add(terms)
    return [j for j in range(g.dim) if j not in derived.pivots]


def test_annihilated_subspace_sifts_only_the_generator_rows(f13, monkeypatch):
    rep = algorithm_regular(f13)
    gens = _generator_indices(f13)
    assert len(gens) == 2
    generators = liealg._generators(f13)[1]
    assert generators == [{j: f13.field.one} for j in gens]
    generator_rows = sum(len(set().union(*rep.matrices[j].cols.values())) for j in gens)
    # every Subspace made is kept alive, so that no id is reused
    made, adds, kerneled = [], {}, []
    add, kernel_vectors = Subspace.add, Subspace.kernel_vectors

    def counted_add(self, row):
        made.append(self)
        adds[id(self)] = adds.get(id(self), 0) + 1
        return add(self, row)

    def recorded_kernel_vectors(self):
        kerneled.append(self)
        return kernel_vectors(self)

    monkeypatch.setattr(Subspace, "add", counted_add)
    monkeypatch.setattr(Subspace, "kernel_vectors", recorded_kernel_vectors)
    quo = algorithm_quotient(f13, regular_rep=rep)
    assert quo.provenance["w_dims"]
    # the first round's S is the kernel of the one space on K^dim(V) whose
    # kernel vectors are read, and the rows sifted into it are generator rows
    (stacked,) = [space for space in kerneled if space.ambient == rep.dim]
    assert stacked.dim < rep.dim  # S > 0
    assert adds[id(stacked)] <= generator_rows


def test_annihilated_subspace_rejects_a_non_nilpotent_algebra():
    # [x, y] = y: the complement x of [g, g] = <y> generates only <x>, so the
    # generators do not cover g, and Quotient, which reads them for S, stops
    g = LieAlgebra(QQ, 2, {(0, 1): {1: 1}})
    rep = Representation(g, [SparseMatrix(QQ, 1, 1) for _ in range(g.dim)])
    with pytest.raises(NotNilpotentError, match="generates a subalgebra"):
        algorithm_quotient(g, regular_rep=rep)

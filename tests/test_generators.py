"""Work from the generators: S and Z(g) ∩ g^m against the references they
replaced.

``annihilated_subspace`` reads only the matrices of a complement V of
[g, g], and ``_adapted_basis`` takes Z(g) ∩ g^m from residuals against g^m.
Each is checked against the old computation (every matrix's rows stacked;
Zassenhaus' intersection) on catalog algebras over Q, F_2 and F_3, on f_13 to
f_17, on rebased inputs and on random quotients of free nilpotent algebras,
and a count of the rows sifted pins down that S reads the generators alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import intersect, rebased
from nilrep import catalog, liealg, quotient
from nilrep.dual import algorithm_dual
from nilrep.fields import GF, QQ
from nilrep.liealg import LieAlgebra, NotNilpotentError
from nilrep.linalg import SparseMatrix, Subspace
from nilrep.quotient import algorithm_quotient
from nilrep.regular import algorithm_regular, build_pruned_module
from nilrep.representation import Representation, annihilated_subspace


def stacked_annihilated_subspace(rep):
    """The kernel of the rows of every matrix stacked in one subspace."""
    stacked = Subspace(rep.field, rep.dim)
    for mat in rep.matrices:
        for _i, row in sorted(mat.transpose().cols.items()):
            stacked.add(row)
    return stacked.kernel()


def check_against_references(g):
    center = g.center()
    for gm in g.lower_central_series():
        assert liealg._central_part(center, gm).sparse == intersect(center, gm).sparse
    adapted = g.adapted_basis()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liealg, "_central_part", intersect)
        assert adapted.matrix == g.adapted_basis().matrix

    module = build_pruned_module(g, adapted)
    regular = algorithm_regular(g, module=module)
    for r in (regular, algorithm_dual(g, module=module)):
        assert annihilated_subspace(r).sparse == stacked_annihilated_subspace(r).sparse
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotient, "annihilated_subspace", stacked_annihilated_subspace)
        ref_quo = algorithm_quotient(g, regular_rep=regular)
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


@st.composite
def free_nilpotent_quotients(draw):
    """N_{n,c} over Q, F_2 or F_3 modulo the ideal generated by random
    combinations of its degree-k Hall basis vectors, through
    ``LieAlgebra.quotient``; the ideal is the closure of their span under
    the brackets with the degree-one vectors."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    n, c = draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]))
    g = catalog.free_nilpotent(n, c, field)
    one = field.one
    series = g.lower_central_series()
    degree = [sum(1 for gm in series if not gm.reduce({i: one})) for i in range(g.dim)]
    k = draw(st.integers(2, c))
    layer = [i for i in range(g.dim) if degree[i] == k]
    ideal = Subspace(field, g.dim)
    todo = []
    for _ in range(draw(st.integers(1, 2))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(layer), max_size=len(layer)))
        vec = field.clean({i: field.from_int(x) for i, x in zip(layer, coeffs)})
        if vec and ideal.add(vec) is not None:
            todo.append(vec)
    while todo:
        x = todo.pop()
        for j in range(g.dim):
            if degree[j] == 1:
                y = g.bracket(x, {j: one})
                if y and ideal.add(y) is not None:
                    todo.append(y)
    return g.quotient(ideal)[0]


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
    generator_rows = sum(len(set().union(*rep.matrices[j].cols.values())) for j in gens)
    # every Subspace made is kept alive, so that no id is reused
    made, adds, kerneled = [], {}, []
    add, kernel = Subspace.add, Subspace.kernel

    def counted_add(self, row):
        made.append(self)
        adds[id(self)] = adds.get(id(self), 0) + 1
        return add(self, row)

    def recorded_kernel(self):
        kerneled.append(self)
        return kernel(self)

    monkeypatch.setattr(Subspace, "add", counted_add)
    monkeypatch.setattr(Subspace, "kernel", recorded_kernel)
    S = annihilated_subspace(rep)
    assert S.dim > 0
    (stacked,) = kerneled  # the rows sifted are those of the space whose kernel is S
    assert adds[id(stacked)] <= generator_rows


def test_annihilated_subspace_rejects_a_non_nilpotent_algebra():
    # [x, y] = y: the complement x of [g, g] = <y> generates only <x>, so the
    # generators do not cover g
    g = LieAlgebra(QQ, 2, {(0, 1): {1: 1}})
    rep = Representation(g, [SparseMatrix(QQ, 1, 1) for _ in range(g.dim)])
    with pytest.raises(NotNilpotentError, match="generates a subalgebra"):
        annihilated_subspace(rep)

"""Properties of every algorithm on generated nilpotent algebras.

The catalog fixes a few hand-picked algebras; these properties run on random
quotients of free nilpotent algebras over Q, F_2 and F_3
(``helpers.free_nilpotent_quotients``) and on random central extensions of
them by 2-cocycles (``helpers.central_extensions``): Regular, Dual and
Quotient return verified representations, Dual and Quotient are no larger
than Regular, the results of Dual and Quotient are fixpoints of Quotient's
round, and Affine returns a verified representation of dimension dim(g) + 1
or an ``AffineFail``.  Regular's pruned module is often a Quotient fixpoint
already on these small algebras, so Quotient also starts from the unpruned
module, where it runs rounds.  On the pruned module, Quotient's result is
the negated transpose of Dual's, with the socle layers of Dual's annihilator
as its ``w_dims`` (see ``test_quotient_is_the_negated_transpose_of_dual``).
"""

import pytest
from hypothesis import given, settings

from helpers import (
    central_extensions,
    free_nilpotent_quotients,
    intersect,
    rebased,
    rebased_generated,
    regular_unpruned,
)
from nilrep import catalog
from nilrep.affine import AffineFail, algorithm_affine
from nilrep.dual import algorithm_dual, center_dual_generators, dual_action_matrices
from nilrep.fields import GF, QQ
from nilrep.liealg import _generators
from nilrep.linalg import Subspace, closure, coordinate_projection, relations
from nilrep.quotient import algorithm_quotient, reduce_once
from nilrep.regular import algorithm_regular, build_pruned_module
from nilrep.representation import verify_report


def check_every_algorithm(g):
    module = build_pruned_module(g)
    regular = algorithm_regular(g, module=module)
    dual = algorithm_dual(g, module=module)
    for rep in (regular, dual):
        assert verify_report(rep)["ok"], rep
    assert dual.dim <= regular.dim
    center, gens = g.center(), _generators(g)[1]
    again, W = reduce_once(dual, center, gens)
    assert W == [] and again is dual
    for start in (regular, regular_unpruned(g)):
        quo = algorithm_quotient(g, regular_rep=start)
        assert verify_report(quo)["ok"] and quo.dim <= start.dim
        again, W = reduce_once(quo, center, gens)
        assert W == [] and again is quo

    aff = algorithm_affine(g, seed=0, retries=2)
    if isinstance(aff, AffineFail):
        assert aff.attempts == 2 and 1 <= aff.deepest_step < g.dim
    else:
        assert aff.dim == g.dim + 1 and verify_report(aff)["ok"]


@settings(max_examples=25)
@given(free_nilpotent_quotients())
def test_every_algorithm_on_random_nilpotent_quotients(g):
    check_every_algorithm(g)


@settings(max_examples=25)
@given(central_extensions())
def test_every_algorithm_on_random_central_extensions(g):
    assert g.check_jacobi() == []
    check_every_algorithm(g)


# ---------------------------------------------------------------------------
# Quotient on the pruned module against Dual


def socle_series(rep) -> list:
    """soc^0 = 0 ⊂ soc^1 ⊂ … ⊂ soc^r = V: soc^r is the kernel of every
    v -> M_l v modulo soc^(r-1), the relations among the columns of the
    matrices projected by ``coordinate_projection``."""
    fld, n = rep.field, rep.dim
    series = [Subspace(fld, n)]
    while series[-1].dim < n:
        _kept, project = coordinate_projection(fld, n, series[-1].sparse.values())
        series.append(relations(fld, [
            {l: image for l, mat in enumerate(rep.matrices)
             if j in mat.cols and (image := project(mat.cols[j]))}
            for j in range(n)]))
    return series


def negated_transpose(fld, mat) -> dict:
    cols: dict = {}
    for j, col in mat.cols.items():
        for i, x in col.items():
            cols.setdefault(i, {})[j] = fld.neg(x)
    return cols


def check_quotient_is_the_negated_transpose_of_dual(g):
    module = build_pruned_module(g)
    regular = algorithm_regular(g, module=module)
    dual = algorithm_dual(g, module=module)
    quo = algorithm_quotient(g, regular_rep=regular)
    assert quo.dim == dual.dim
    assert [mat.cols for mat in quo.matrices] == [
        negated_transpose(g.field, mat) for mat in dual.matrices]
    # the rounds' W dimensions are the socle layers of F^⊥, F Dual's spin
    spin = closure(g.field, module.dim, center_dual_generators(module),
                   [mat for mat, _lam in dual_action_matrices(module)])
    annihilator = spin.kernel()
    dims = [intersect(annihilator, layer).dim for layer in socle_series(regular)]
    assert dims[-1] == annihilator.dim == regular.dim - dual.dim
    layers = [b - a for a, b in zip(dims, dims[1:])]
    while layers and layers[-1] == 0:
        layers.pop()
    assert quo.provenance["w_dims"] == layers


@pytest.mark.parametrize("build", [
    lambda: catalog.heisenberg(GF(3)),
    lambda: catalog.upper_triangular(5, QQ),
    lambda: catalog.upper_triangular(5, GF(2)),
    lambda: catalog.upper_triangular(6, GF(3)),
    lambda: catalog.free_nilpotent(2, 5, QQ),
    lambda: catalog.free_nilpotent(3, 3, GF(2)),
    lambda: catalog.filiform_f(13),
    lambda: catalog.filiform_f(15),
    lambda: rebased(catalog.upper_triangular(5, GF(2)), 1),
    lambda: rebased(catalog.upper_triangular(5, GF(3)), 2),
    lambda: rebased(catalog.free_nilpotent(2, 4, QQ), 2),
    lambda: rebased(catalog.filiform_f(13), 3),
], ids=["heis-F3", "U5", "U5-F2", "U6-F3", "N25", "N33-F2", "f13", "f15", "U5-F2-rebased",
        "U5-F3-rebased", "N24-rebased", "f13-rebased"])
def test_quotient_is_the_negated_transpose_of_dual(build):
    """Quotient on the pruned module returns -D_l^T for Dual's matrices D_l,
    entry for entry, and its ``w_dims`` are the layers
    dim(F^⊥ ∩ soc^r V) - dim(F^⊥ ∩ soc^(r-1) V), F ⊂ V* Dual's spin of the
    ψ_i.  The layers are a conjecture; the identity has a proof sketch when
    Z(g) = g^c, as for f_n, U_n and N_{n,c} and their rebased forms:

    1. The central generators x_z span g^c and act as m -> -m x_z, which is
       zero unless m = 1.  So the center image C is the span of the unit
       vectors e_z of the central-generator monomials, and they lie in S.
       S's canonical RREF then holds each e_z as a row, every W row vanishes
       on them, and a W vector is killed by g and by every ψ_i: W ⊆ F^⊥.
       The same holds in each later round on V/W, so W_total ⊆ F^⊥.
    2. At the fixpoint S ⊆ C, so the socle lies in C, where no nonzero
       vector is killed by every ψ_i.  F^⊥ is a submodule, and its image in
       V/W_total would meet the socle if it were nonzero: F^⊥ ⊆ W_total.
    3. So V/W_total = V/F^⊥, the dual of F.  By matroid duality the kept
       coordinates, a greedy complement of F^⊥, are the pivot columns of F's
       RREF, the coordinates Dual's basis is indexed by, and the projected
       action there is -D_l^T.
    """
    check_quotient_is_the_negated_transpose_of_dual(build())


@settings(max_examples=25)
@given(free_nilpotent_quotients())
def test_quotient_is_the_negated_transpose_of_dual_on_random_quotients(g):
    check_quotient_is_the_negated_transpose_of_dual(g)


@settings(max_examples=25)
@given(central_extensions())
def test_quotient_is_the_negated_transpose_of_dual_on_random_central_extensions(g):
    check_quotient_is_the_negated_transpose_of_dual(g)


@settings(max_examples=25)
@given(rebased_generated())
def test_quotient_is_the_negated_transpose_of_dual_on_rebased_generated_algebras(g):
    check_quotient_is_the_negated_transpose_of_dual(g)

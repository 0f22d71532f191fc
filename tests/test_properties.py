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
module, where it runs rounds.
"""

from hypothesis import given, settings

from helpers import central_extensions, free_nilpotent_quotients
from nilrep.affine import AffineFail, algorithm_affine
from nilrep.dual import algorithm_dual
from nilrep.liealg import _generators
from nilrep.quotient import algorithm_quotient, reduce_once
from nilrep.regular import algorithm_regular, build_pruned_module, regular_unpruned
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

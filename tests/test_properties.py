"""Properties of every algorithm on generated nilpotent algebras.

The catalog fixes a few hand-picked algebras; these properties run on random
quotients of free nilpotent algebras over Q, F_2 and F_3
(``helpers.free_nilpotent_quotients``), on random central extensions of
them by 2-cocycles (``helpers.central_extensions``) and on the direct sums
of ``DIRECT_SUMS``: Regular, Dual and Quotient return verified
representations, Dual and Quotient are no larger than Regular, the results
of Dual and Quotient are fixpoints of the paper's Quotient round
(``helpers.reduce_once``), and Affine returns a verified representation of
dimension dim(g) + 1 or an ``AffineFail``.  Regular's pruned module is often a Quotient fixpoint
already on these small algebras, so Quotient also starts from the unpruned
module, where it runs rounds.  On the pruned module, Quotient's result is
the negated transpose of Dual's, with the socle layers of Dual's annihilator
as its ``w_dims`` (see ``test_quotient_is_the_negated_transpose_of_dual``).
"""

import pytest
from hypothesis import example, given, settings

from helpers import (
    as_fractions,
    central_extensions,
    direct_sum,
    free_nilpotent_quotients,
    intersect,
    rebased,
    rebased_generated,
    reduce_once,
    regular_unpruned,
    subspace_kernel,
)
from nilrep import catalog
from nilrep.affine import AffineFail, algorithm_affine
from nilrep.dual import algorithm_dual, center_dual_generators, dual_action_matrices
from nilrep.fields import GF, QQ, rational
from nilrep.fileio import save_representation
from nilrep.liealg import LieAlgebra, _generators, abelian_algebra
from nilrep.linalg import SparseMatrix, Subspace, closure, coordinate_projection, relations
from nilrep.quotient import algorithm_quotient
from nilrep.regular import algorithm_regular, build_pruned_module
from nilrep.representation import Representation, kernel, verify_report


SUMMANDS = {
    "H": catalog.heisenberg,
    "ab": lambda fld: abelian_algebra(fld, 2),
    "U4": lambda fld: catalog.upper_triangular(4, fld),
    "U5": lambda fld: catalog.upper_triangular(5, fld),
    "N23": lambda fld: catalog.free_nilpotent(2, 3, fld),
    "N24": lambda fld: catalog.free_nilpotent(2, 4, fld),
    "f13": lambda fld: catalog.filiform_f(13, fld),
}


def _summed(x: str, y: str, fld):
    return lambda: direct_sum(SUMMANDS[x](fld), SUMMANDS[y](fld))


# id -> builder of a direct sum whose center Z(g) is larger than g^c: H⊕ab
# (ab the abelian plane), H⊕H, U_4⊕H, U_5⊕N_{2,3}, N_{2,4}⊕N_{2,3} and
# U_5⊕ab over Q, F_2 and F_3, and f_13⊕H over Q, each in both orders (H⊕H,
# the same algebra both ways, once)
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
DIRECT_SUMS = {
    "%s+%s-%s" % (x, y, name): _summed(x, y, FIELDS[name])
    for a, b, names in [("H", "ab", FIELDS), ("H", "H", FIELDS), ("U4", "H", FIELDS),
                        ("U5", "N23", FIELDS), ("N24", "N23", FIELDS), ("U5", "ab", FIELDS),
                        ("f13", "H", ["Q"])]
    for name in names for x, y in ((a, b), (b, a))
}


def with_direct_sums(test):
    """``test`` with every algebra of ``DIRECT_SUMS`` as an explicit example."""
    for build in DIRECT_SUMS.values():
        test = example(build())(test)
    return test


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
@with_direct_sums
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
             if j in mat.cols and (image := fld.divided(*project(mat.cols[j])))}
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
    annihilator = subspace_kernel(spin)
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
    *DIRECT_SUMS.values(),
], ids=["heis-F3", "U5", "U5-F2", "U6-F3", "N25", "N33-F2", "f13", "f15", "U5-F2-rebased",
        "U5-F3-rebased", "N24-rebased", "f13-rebased", *DIRECT_SUMS])
def test_quotient_is_the_negated_transpose_of_dual(build):
    """Quotient on the pruned module returns -D_l^T for Dual's matrices D_l,
    entry for entry, and its ``w_dims`` are the layers
    dim(F^⊥ ∩ soc^r V) - dim(F^⊥ ∩ soc^(r-1) V), F ⊂ V* Dual's spin of the
    ψ_i.  Both are proven below when Z(g) = g^c, as for f_n, U_n and N_{n,c}
    and their rebased forms; the general case is open.  The direct sums of
    ``DIRECT_SUMS``, whose center is larger than g^c, hold too, without a
    proof.

    The central generators x_z span g^c and act as m -> -m x_z, which is
    zero unless m = 1.  So the center image C is the span of the unit
    vectors e_z of the central-generator monomials, each e_z is killed by g,
    and ψ_i reads coordinate z_i: F^⊥, the largest submodule of V on which
    every ψ_i vanishes, is the largest submodule inside
    Z0 = {v : v_z = 0 for every z}.  Let W_{≤r} be the kernel of V -> V_r,
    the projection onto the module after r rounds.

    (a) The W_r are exactly S_r's canonical rows other than the e_z.  A unit
        vector in S_r is its canonical row, so those rows are the e_z, and
        the others vanish on every z and enlarge C.  So span W_r = S_r ∩ Z0,
        no coordinate z is ever dropped, the projection leaves every v_z as
        it is, and C = span{e_z} ⊆ S in every round.
    (b) W_{≤r} is a submodule inside Z0, by (a), so it lies in F^⊥.  And
        g·W_{≤r} ⊆ W_{≤r-1}, since W_r ⊆ S_r, so it lies in soc^r V.
    (c) Take v ∈ F^⊥ ∩ soc^r V.  By induction on r,
        g·v ⊆ F^⊥ ∩ soc^(r-1) V = W_{≤r-1}, so v's image in V_{r-1} lies in
        S_r ∩ Z0 = span W_r, and v ∈ W_{≤r}.

    Hence W_{≤r} = F^⊥ ∩ soc^r V, whose layers are the ``w_dims``.  Once a
    layer is zero the series F^⊥ ∩ soc^r V stays put, by (c), and the action
    is nilpotent, so the socle series reaches V: the rounds stop at
    W_total = F^⊥.  So V/W_total = V/F^⊥, the dual of F.  By matroid duality
    the kept coordinates, a greedy complement of F^⊥, are the pivot columns
    of F's RREF, the coordinates Dual's basis is indexed by, and the
    projected action there is -D_l^T.
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


# ---------------------------------------------------------------------------
# integral rationals given as ints or as backend rationals


INTEGRAL_INPUTS = {
    "heisenberg": lambda: catalog.heisenberg(QQ),
    "U5": lambda: catalog.upper_triangular(5, QQ),
    "N25": lambda: catalog.free_nilpotent(2, 5, QQ),
    "f13": lambda: catalog.filiform_f(13),
    "U5-rebased": lambda: rebased(catalog.upper_triangular(5, QQ), 1),
    "f13+H": DIRECT_SUMS["f13+H-Q"],
}


def saved(result, path) -> object:
    """The bytes ``save_representation`` writes for a Representation, and
    an ``AffineFail`` itself."""
    if isinstance(result, AffineFail):
        return result
    save_representation(result, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("build", INTEGRAL_INPUTS.values(), ids=list(INTEGRAL_INPUTS))
def test_integral_structure_constants_as_rationals_give_the_same_files(build, tmp_path):
    # a table given with integral backend rationals (Fraction(n, 1)) is
    # normalised to ints on construction, so Regular, Dual and a seeded
    # Affine write the same bytes as from the table of ints
    g = build()
    backend = type(rational(1, 2))
    alt = LieAlgebra(QQ, g.dim, {pair: {k: backend(c, 1) for k, c in terms.items()}
                                 for pair, terms in g.table.items()})
    assert alt.table == g.table
    for run in (algorithm_regular, algorithm_dual,
                lambda h: algorithm_affine(h, seed=3, retries=2)):
        assert saved(run(alt), tmp_path / "alt.json") == saved(run(g), tmp_path / "int.json")


def entry_types(space) -> list:
    return [{c: (x, type(x)) for c, x in row.items()} for row in space.sparse.values()]


@pytest.mark.parametrize("build", INTEGRAL_INPUTS.values(), ids=list(INTEGRAL_INPUTS))
def test_integral_entries_as_rationals_verify_and_save_the_same(build, tmp_path):
    # verification, the kernel and the file bytes do not depend on whether a
    # representation's integral entries are ints or Fraction(n, 1); the
    # Regular module with its last matrix zeroed fails verification and has
    # a kernel, so the failing paths are compared too
    g = build()
    reg = algorithm_regular(g)
    cut = Representation(g, reg.matrices[:-1] + [SparseMatrix(QQ, reg.dim, reg.dim)],
                         dict(reg.provenance))
    for rep in (reg, algorithm_dual(g), cut):
        alt = as_fractions(rep)
        assert verify_report(alt) == verify_report(rep)
        assert entry_types(kernel(alt)) == entry_types(kernel(rep))
        assert saved(alt, tmp_path / "alt.json") == saved(rep, tmp_path / "int.json")
    assert kernel(cut).dim == 1 and not verify_report(cut)["ok"]

import pytest

from helpers import product_dicts, rebased
from nilrep.fields import GF, QQ
from nilrep.liealg import abelian_algebra
from nilrep.linalg import SparseMatrix
from nilrep.regular import (
    _reverse_layers,
    _reversed_model,
    algorithm_regular,
    build_pruned_module,
    nu,
    partitions,
    prune,
    regular_unpruned,
)
from nilrep.representation import is_faithful, is_homomorphism
from nilrep.uea import TruncatedUEA
from nilrep import catalog


def test_partitions():
    assert [partitions(j) for j in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    with pytest.raises(ValueError):
        partitions(-1)


def test_nu_values():
    assert nu(3, 2) == 7
    assert nu(5, 0) == 1 and nu(9, 0) == 1
    assert nu(6, 3) == 41  # direct evaluation with p = (1, 1, 2, 3)
    with pytest.raises(ValueError):
        nu(2, 3)


# ---------------------------------------------------------------------------
# pruning on the Heisenberg algebra, by hand
#
# The module basis is the layer-reversed adapted basis x1 = y, x2 = x, x3 = z
# ([x, y] = z, so [x2, x1] = z), weights (1, 1, 2), c = 2.  Monomial ids in
# (weight, lex) order: 1, x2, x1, z, x2^2, x1x2, x1^2.  A monomial is removed
# when its product with every generator lies in the discarded span:
#   - x1^2, x1x2, x2^2: every product has weight 3 > c;
#   - z is central, hence protected;
#   - x1: x1*x1 = x1^2, x1*x2 = x1x2, x1*z = 0 are all discarded;
#   - x2: x2*x1 = x1x2 + [x2, x1] = x1x2 + z hits the protected z, so x2 stays.
# One pass over the ids in descending order removes x1^2, x1x2, x2^2, then
# x1: the kept monomials are 1, x2 = x and z.


def heis_state():
    module = build_pruned_module(catalog.heisenberg(QQ))
    return module.uea, module.state


def test_prune_heisenberg_reaches_one_x_z():
    uea, state = heis_state()
    kept = {uea.monomials[mid] for mid in state.active}
    assert kept == {(0, 0, 0), (0, 1, 0), (0, 0, 1)}  # 1, x, z


def test_prune_heisenberg_removal_order():
    # the weight-2 monomials x1^2, x1x2, x2^2 go first, then x1 = y
    uea, state = heis_state()
    removed = [uea.monomials[mid] for mid in state.removed]
    assert removed[:3] == [(2, 0, 0), (1, 1, 0), (0, 2, 0)]
    assert removed[3] == (1, 0, 0)
    assert len(removed) == 4


def test_prune_never_removes_protected():
    uea, state = heis_state()
    assert uea.unit in state.active
    assert uea.index[(0, 0, 1)] in state.active  # the central generator z


def test_prune_abelian_line_keeps_everything():
    ad = abelian_algebra(QQ, 1).adapted_basis()
    uea = TruncatedUEA(ad.algebra, ad.weights, ad.nilpotency_class)
    state = prune(uea, [0], uea.right_products())
    assert len(state.active) == 2  # {1, x}: x is central, nothing removable


# ---------------------------------------------------------------------------
# the regular modules


def test_regular_unpruned_dims():
    heis = catalog.heisenberg(QQ)
    rep = regular_unpruned(heis)
    assert rep.dim == 7
    assert is_homomorphism(rep) and is_faithful(rep)
    line = abelian_algebra(QQ, 1)
    assert regular_unpruned(line).dim == 2  # {1, x}
    # the closed-form bound over-counts for U_4: the true monomial count is 29
    u4 = catalog.upper_triangular(4, QQ)
    assert regular_unpruned(u4).dim == 29


def test_algorithm_regular_dims_and_verification():
    heis = catalog.heisenberg(QQ)
    rep = algorithm_regular(heis)
    assert rep.dim == 3
    assert is_homomorphism(rep) and is_faithful(rep)
    assert rep.provenance["unpruned_dim"] == 7

    u4 = catalog.upper_triangular(4, GF(2))
    rep4 = algorithm_regular(u4)
    assert rep4.dim == 7  # benchmark table value
    assert is_homomorphism(rep4) and is_faithful(rep4)


def test_algorithm_regular_rejects_a_module_of_another_algebra():
    # a module built for U_4 would give U_4's matrices for the Heisenberg
    # algebra; an equal algebra built separately is accepted
    heis = catalog.heisenberg(QQ)
    with pytest.raises(ValueError, match="another algebra"):
        algorithm_regular(heis, module=build_pruned_module(catalog.upper_triangular(4, QQ)))
    module = build_pruned_module(catalog.heisenberg(QQ))
    assert module.algebra is not heis and algorithm_regular(heis, module=module).dim == 3


def test_build_pruned_module_rejects_an_adapted_basis_of_another_algebra():
    # U_4's adapted basis used to give six 7 x 7 matrices for the Heisenberg
    # algebra; the basis of an equal algebra built separately is accepted
    heis = catalog.heisenberg(QQ)
    with pytest.raises(ValueError, match="another algebra"):
        build_pruned_module(heis, adapted=catalog.upper_triangular(4, QQ).adapted_basis())
    adapted = catalog.heisenberg(QQ).adapted_basis()
    assert adapted.source is not heis
    assert algorithm_regular(heis, module=build_pruned_module(heis, adapted=adapted)).dim == 3


def test_pruned_le_unpruned():
    for g in (catalog.heisenberg(QQ), catalog.upper_triangular(4, QQ)):
        module = build_pruned_module(g)
        assert module.dim <= len(module.uea.monomials)


def test_discard_span_is_a_left_ideal():
    # every removed monomial keeps all its generator products inside the
    # discarded span, also at the final state (the invariant of the prune)
    g = catalog.upper_triangular(4, QQ)
    module = build_pruned_module(g)
    products = product_dicts(module.uea.right_products())
    active = set(module.state.active)
    for mid in module.state.removed:
        for prod in products[mid].values():
            assert not (set(prod) & active)


def test_kept_monomials_reach_the_active_set():
    # the other side of the fixpoint: a kept monomial that is not protected
    # has some generator product that hits the active span, else the pass
    # would have removed it
    for g in (catalog.heisenberg(QQ), catalog.upper_triangular(4, GF(2)), catalog.filiform_f(13)):
        module = build_pruned_module(g)
        uea = module.uea
        products = product_dicts(uea.right_products())
        protected = {uea.unit} | {uea.degree_one_mid(k) for k in module.central_ids}
        active = set(module.state.active)
        assert list(module.state.active) == sorted(active)
        assert protected <= active
        assert active.isdisjoint(module.state.removed)
        assert len(active) + len(module.state.removed) == len(uea.monomials)
        for mid in active - protected:
            assert any(set(prod) & active for prod in products[mid].values()), mid


def test_build_pruned_module_computes_the_products_once(monkeypatch):
    calls = []
    right_products = TruncatedUEA.right_products

    def counted(self):
        calls.append(self)
        return right_products(self)

    monkeypatch.setattr(TruncatedUEA, "right_products", counted)
    module = build_pruned_module(catalog.upper_triangular(4, QQ))
    assert len(calls) == 1 and calls[0] is module.uea
    # and no product memo stays on the algebra afterwards, only the integer
    # structure constants that the products read
    assert sorted(vars(module.uea)) == [
        "_table", "algebra", "cutoff", "field", "index", "monomials", "mu", "unit",
        "weight_of", "weights",
    ]


def rewritten_model(adapted):
    """The layer-reversed model algebra by evaluating every bracket again:
    basis vector t is adapted basis vector perm[t]."""
    fld = adapted.algebra.field
    perm = _reverse_layers(adapted.weights)
    to_model = SparseMatrix(
        fld, len(perm), len(perm), {old: {new: fld.one} for new, old in enumerate(perm)}
    )
    return adapted.algebra.rewritten([{old: fld.one} for old in perm], to_model)


@pytest.mark.parametrize("build", [
    lambda: catalog.free_nilpotent(3, 5, QQ),
    lambda: catalog.free_nilpotent(2, 8, QQ),
    lambda: catalog.filiform_f(17),
    lambda: catalog.upper_triangular(7, QQ),
    lambda: catalog.upper_triangular(6, GF(3)),
    lambda: rebased(catalog.upper_triangular(5, GF(2)), 1),
    lambda: rebased(catalog.free_nilpotent(2, 4, QQ), 2),
    lambda: rebased(catalog.filiform_f(13), 3),
], ids=["N35", "N28", "f17", "U7", "U6-F3", "U5-F2-rebased", "N24-rebased", "f13-rebased"])
def test_relabelled_model_equals_the_rewritten_one(build):
    adapted = build().adapted_basis()
    model = _reversed_model(adapted)[0].algebra
    expected = rewritten_model(adapted)
    assert model == expected
    # the same brackets in the same order, with the same scalar types
    assert [(key, [(k, type(c), c) for k, c in terms.items()])
            for key, terms in model.table.items()] == [
        (key, [(k, type(c), c) for k, c in terms.items()])
        for key, terms in expected.table.items()]

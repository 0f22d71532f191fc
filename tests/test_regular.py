import pytest

from nilrep.fields import GF, QQ
from nilrep.liealg import abelian_algebra
from nilrep.regular import (
    algorithm_regular,
    build_pruned_module,
    build_truncated_uea,
    initial_prune_state,
    nu,
    partitions,
    prune,
    regular_unpruned,
)
from nilrep.representation import is_faithful, is_homomorphism
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
# Sweeping ids in descending order removes x1^2, x1x2, x2^2, then x1, and the
# second sweep removes nothing: the kept monomials are 1, x2 = x and z.


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


def test_prune_is_a_fixpoint():
    _uea, state = heis_state()
    again = prune(state)
    assert again.active == state.active
    assert again.removed == state.removed


def test_prune_abelian_line_keeps_everything():
    g = abelian_algebra(QQ, 1)
    uea = build_truncated_uea(g)
    state = prune(initial_prune_state(uea, [0]))
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


def test_pruned_le_unpruned():
    for g in (catalog.heisenberg(QQ), catalog.upper_triangular(4, QQ)):
        module = build_pruned_module(g)
        assert module.dim <= len(module.uea.monomials)


def test_discard_span_is_a_left_ideal():
    # every removed monomial keeps all its generator products inside the
    # discarded span, also at the final state (the invariant of the prune)
    g = catalog.upper_triangular(4, QQ)
    module = build_pruned_module(g)
    uea = module.uea
    active = set(uea.active)
    for mid in module.state.removed:
        for i in range(g.dim):
            assert not (set(uea.right_product_ids(mid, i)) & active)

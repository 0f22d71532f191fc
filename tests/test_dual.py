import warnings
from dataclasses import replace

import pytest

from nilrep.fields import GF, QQ, rational
from nilrep.linalg import Subspace
from nilrep import dual
from nilrep.dual import (
    algorithm_dual,
    center_dual_generators,
    dual_action_matrices,
    spin_submodule,
)
from nilrep.quotient import algorithm_quotient
from nilrep.regular import build_pruned_module
from nilrep.representation import (
    annihilated_subspace,
    center_image,
    is_faithful,
    is_homomorphism,
)
from nilrep import catalog

Q1 = rational(1)


@pytest.fixture(scope="module")
def heis_module(heis):
    # module basis x1 = y, x2 = x, x3 = z (layer-reversed); the pruned module
    # keeps the monomials 1, x, z (see test_regular).  Products of active
    # monomials, with inactive monomials read as zero: 1*y = 0, 1*x = x,
    # 1*z = z, x*y = x1x2 + [x2, x1] = z, x*x = x*z = 0, z*anything = 0.
    return build_pruned_module(heis)


def _pos(module, mono):
    uea = module.uea
    return list(uea.active).index(uea.index[mono])


def test_dual_action_worked_examples(heis_module):
    # the module action of g is minus right multiplication, so the dual action
    # is (g.f)(a) = f(a g); dual matrices are indexed by the basis y, x, z
    m = heis_module
    p1, px, pz = (_pos(m, mono) for mono in ((0, 0, 0), (0, 1, 0), (0, 0, 1)))
    y, x, z = dual_action_matrices(m)
    psi_z = {pz: Q1}
    # y . psi_z = psi_x, since x*y = z
    assert y.apply_sparse(psi_z) == {px: Q1}
    # z . psi_z = psi_1, since 1*z = z
    assert z.apply_sparse(psi_z) == {p1: Q1}
    # x . psi_z = 0: no active a has z in the support of a*x
    assert x.apply_sparse(psi_z) == {}
    # x . psi_x = psi_1, since 1*x = x; y . psi_x = z . psi_x = 0
    psi_x = {px: Q1}
    assert x.apply_sparse(psi_x) == {p1: Q1}
    assert y.apply_sparse(psi_x) == {}
    assert z.apply_sparse(psi_x) == {}


def test_spin_heisenberg_from_psi_z(heis_module):
    m = heis_module
    gens = center_dual_generators(m)
    assert len(gens) == 1
    basis = spin_submodule(m, gens)
    assert basis.dim == 3  # spans psi_z, psi_x, psi_1


def test_spin_empty_generators(heis_module):
    assert spin_submodule(heis_module, []).dim == 0


def test_spin_abelian_direct_action():
    g = catalog.abelian_algebra(QQ, 2)
    module = build_pruned_module(g)
    gens = center_dual_generators(module)
    assert len(gens) == 2
    basis = spin_submodule(module, gens)
    # 1*z_i = z_i is the only nonzero product (c = 1), so z_i . psi_{z_i} = psi_1
    # is the only action: span{psi_1, psi_{z_1}, psi_{z_2}}
    assert basis.dim == 3


def test_center_dual_generators_reject_pruned_central_monomial(heis_module):
    m = heis_module
    broken = replace(m, uea=m.uea.restrict([m.uea.unit]))
    with pytest.raises(RuntimeError, match="central generator monomial was pruned"):
        center_dual_generators(broken)


def test_algorithm_dual_rejects_unclosed_spin(heis, monkeypatch):
    def generators_only(module, gens):
        # span{psi_z} is not closed under the action: y . psi_z = psi_x
        vecs = [[gen.get(t, rational(0)) for t in range(module.dim)] for gen in gens]
        return Subspace.from_vectors(QQ, module.dim, vecs)

    monkeypatch.setattr(dual, "spin_submodule", generators_only)
    with pytest.raises(RuntimeError, match="spin closure failed"):
        algorithm_dual(heis)


def test_algorithm_dual_heisenberg(heis):
    rep = algorithm_dual(heis)
    assert rep.dim == 3
    assert is_homomorphism(rep) and is_faithful(rep)


def test_algorithm_dual_u4_f2():
    g = catalog.upper_triangular(4, GF(2))
    rep = algorithm_dual(g)
    assert rep.dim == 5  # benchmark table value
    assert is_homomorphism(rep) and is_faithful(rep)


def test_dual_annihilated_space_is_psi0(heis):
    module = build_pruned_module(heis)
    rep = algorithm_dual(heis, module=module)
    S = annihilated_subspace(rep)
    assert S.dim == 1
    # the annihilated functional is psi_0: value 1 on the monomial 1, and the
    # spin basis coordinates of psi_0 must reproduce that single basis row
    basis = spin_submodule(module, center_dual_generators(module))
    unit_pos = list(module.uea.active).index(module.uea.unit)
    psi0 = [Q1 if t == unit_pos else rational(0) for t in range(module.dim)]
    coords = basis.coords(psi0)
    assert S.contains(coords)
    # the center maps the whole module into span{psi_0}
    C = center_image(rep)
    assert C.dim <= 1 and S.contains_subspace(C)


def test_dual_equals_quotient_soft(heis, u4):
    for g in (heis, u4):
        module = build_pruned_module(g)
        d = algorithm_dual(g, module=module).dim
        q = algorithm_quotient(g, module=module).dim
        if d != q:
            warnings.warn(
                "Dual and Quotient dimensions differ on %r: %d vs %d "
                "(the reference experiments always agreed)" % (g, d, q)
            )

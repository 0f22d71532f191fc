import math
import warnings

import pytest

from helpers import annihilated_subspace, center_image, mid_of, rebased, span
from nilrep.fields import GF, QQ, rational
from nilrep import dual
from nilrep.dual import algorithm_dual, center_dual_generators, dual_action_matrices
from nilrep.linalg import closure
from nilrep.quotient import algorithm_quotient
from nilrep.regular import algorithm_regular, build_pruned_module
from nilrep.representation import is_faithful, is_homomorphism
from nilrep import abelian_algebra, catalog
from nilrep.liealg import _generators

Q1 = rational(1)


@pytest.fixture(scope="module")
def heis_module(heis):
    # module basis x1 = y, x2 = x, x3 = z (layer-reversed); the pruned module
    # keeps the monomials 1, x, z (see test_regular).  Products of active
    # monomials, with inactive monomials read as zero: 1*y = 0, 1*x = x,
    # 1*z = z, x*y = x1x2 + [x2, x1] = z, x*x = x*z = 0, z*anything = 0.
    return build_pruned_module(heis)


def spin(m, gens):
    """The Dual spin: the closure of ``gens`` under the integer actions."""
    return closure(m.algebra.field, m.dim, gens, [mat for mat, _lam in dual_action_matrices(m)])


def _pos(module, mono):
    return list(module.state.active).index(mid_of(module.uea, mono))


def test_dual_action_worked_examples(heis_module):
    # the module action of g is minus right multiplication, so the dual action
    # is (g.f)(a) = f(a g); dual matrices are indexed by the basis y, x, z
    m = heis_module
    p1, px, pz = (_pos(m, mono) for mono in ((0, 0, 0), (0, 1, 0), (0, 0, 1)))
    (y, ly), (x, lx), (z, lz) = dual_action_matrices(m)
    assert ly == lx == lz == 1  # integral structure constants
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
    basis = spin(m, gens)
    assert basis.dim == 3  # spans psi_z, psi_x, psi_1


def test_spin_empty_generators(heis_module):
    assert spin(heis_module, []).dim == 0


def test_spin_abelian_direct_action():
    g = abelian_algebra(QQ, 2)
    module = build_pruned_module(g)
    gens = center_dual_generators(module)
    assert len(gens) == 2
    basis = spin(module, gens)
    # 1*z_i = z_i is the only nonzero product (c = 1), so z_i . psi_{z_i} = psi_1
    # is the only action: span{psi_1, psi_{z_1}, psi_{z_2}}
    assert basis.dim == 3


def test_spin_of_f13_stores_integral_entries_as_ints(f13):
    # the normalised kernel left one Fraction(-32256, 1) in this basis
    module = build_pruned_module(f13)
    basis = spin(module, center_dual_generators(module))
    assert basis.dim == 43
    entries = [x for row in basis.sparse.values() for x in row.values()]
    assert all(type(x) is int for x in entries if x.denominator == 1)


def test_center_dual_generators_reject_pruned_central_monomial(heis_module):
    m = heis_module
    broken = m._replace(state=m.state._replace(active=(m.uea.unit,)))
    with pytest.raises(RuntimeError, match="central generator monomial was pruned"):
        center_dual_generators(broken)


def test_algorithm_dual_rejects_unclosed_spin(heis, monkeypatch):
    def generators_only(field, n, gens, maps):
        # span{psi_z} is not closed under the action: y . psi_z = psi_x
        vecs = [[gen.get(t, rational(0)) for t in range(n)] for gen in gens]
        return span(field, n, vecs)

    monkeypatch.setattr(dual, "closure", generators_only)
    with pytest.raises(RuntimeError, match="spin closure failed"):
        algorithm_dual(heis)


def test_algorithm_dual_builds_the_transposes_once(heis, monkeypatch):
    # the spin and the read-off share one list of integer transposes
    calls = []
    build = dual.dual_action_matrices

    def counted(module):
        calls.append(1)
        return build(module)

    monkeypatch.setattr(dual, "dual_action_matrices", counted)
    assert algorithm_dual(heis).dim == 3
    assert len(calls) == 1


def test_algorithm_dual_heisenberg(heis):
    rep = algorithm_dual(heis)
    assert rep.dim == 3
    assert is_homomorphism(rep) and is_faithful(rep)


def test_algorithm_dual_rejects_a_module_of_another_algebra(heis):
    # a module built for U_4 used to give a Representation of the Heisenberg
    # algebra holding U_4's six matrices; an equal algebra is accepted
    with pytest.raises(ValueError, match="another algebra"):
        algorithm_dual(heis, module=build_pruned_module(catalog.upper_triangular(4, QQ)))
    module = build_pruned_module(catalog.heisenberg(QQ))
    assert module.algebra is not heis and algorithm_dual(heis, module=module).dim == 3


def test_algorithm_dual_u4_f2():
    g = catalog.upper_triangular(4, GF(2))
    rep = algorithm_dual(g)
    assert rep.dim == 5  # benchmark table value
    assert is_homomorphism(rep) and is_faithful(rep)


def test_dual_annihilated_space_is_psi0(heis):
    module = build_pruned_module(heis)
    rep = algorithm_dual(heis, module=module)
    S = annihilated_subspace(rep, _generators(heis)[1])
    assert S.dim == 1
    # the annihilated functional is psi_0: value 1 on the monomial 1, and the
    # spin basis coordinates of psi_0 must reproduce that single basis row
    basis = spin(module, center_dual_generators(module))
    unit_pos = list(module.state.active).index(module.uea.unit)
    assert not basis.reduce({unit_pos: Q1})  # psi_0 lies in the spin
    # on an RREF basis a member's coordinates are its entries at the pivots
    coords = [Q1 if pc == unit_pos else rational(0) for pc in basis.pivots]
    assert S.contains(coords)
    # the center maps the whole module into span{psi_0}
    C = center_image(rep, rep.algebra.center())
    assert C.dim <= 1 and all(not S.reduce(row) for row in C.sparse.values())


def test_dual_equals_quotient_soft(heis, u4):
    for g in (heis, u4):
        module = build_pruned_module(g)
        d = algorithm_dual(g, module=module).dim
        q = algorithm_quotient(g, regular_rep=algorithm_regular(g, module=module)).dim
        if d != q:
            warnings.warn(
                "Dual and Quotient dimensions differ on %r: %d vs %d "
                "(the reference experiments always agreed)" % (g, d, q)
            )


def reference_dual_action_matrices(module):
    """The scaled transposes as they were built here: lambda the lcm of the
    denominators of R_i (1 over F_p), then each transposed entry times it."""
    fld = module.algebra.field
    out = []
    for mat in module.right_matrices:
        lam = 1 if fld.characteristic else math.lcm(
            1, *{int(x.denominator) for col in mat.cols.values() for x in col.values()
                 if type(x) is not int})
        scaled = mat.transpose()
        if lam != 1:
            for col in scaled.cols.values():
                for j, x in col.items():
                    col[j] = fld.mul(x, lam)
        out.append((scaled, lam))
    return out


@pytest.mark.parametrize("build", [
    lambda: catalog.heisenberg(QQ),
    lambda: catalog.upper_triangular(4, GF(2)),
    lambda: catalog.upper_triangular(5, GF(3)),
    lambda: catalog.filiform_f(13, QQ),
    lambda: rebased(catalog.upper_triangular(5, QQ), 2),
    lambda: rebased(catalog.upper_triangular(5, GF(2)), 3),
    lambda: rebased(catalog.upper_triangular(5, GF(3)), 4),
    lambda: rebased(catalog.filiform_f(13, QQ), 1),
], ids=["heisenberg", "utri4-F2", "utri5-F3", "f13", "rebased-utri5", "rebased-utri5-F2",
        "rebased-utri5-F3", "rebased-f13"])
def test_dual_action_matrices_equal_the_hand_scaled_transposes(build):
    module = build_pruned_module(build())
    got, want = dual_action_matrices(module), reference_dual_action_matrices(module)
    assert [lam for _m, lam in got] == [lam for _m, lam in want]
    for (mat, _lam), (ref, _ref_lam) in zip(got, want):
        assert (mat.nrows, mat.ncols, mat.cols) == (ref.nrows, ref.ncols, ref.cols)
        assert ([(j, i, type(x)) for j, col in mat.cols.items() for i, x in col.items()]
                == [(j, i, type(x)) for j, col in ref.cols.items() for i, x in col.items()])

"""The integral module build and Dual spin against rational references.

``TruncatedUEA.right_products`` keeps integer numerators with the powers of
mu implied, and Dual spins with integer transposes.  The references below are
the straightening recursion, pruning, matrices and Dual spin on exact
rationals, written out here so that every value, every pruned monomial and
every scalar type (an integral rational is an ``int``) can be compared on
generated algebras: diagonal rescalings of U_4 and N_{2,4}, whose structure
constants over Q are not integral.
"""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import product_dicts, rebased
from nilrep import catalog
from nilrep.dual import algorithm_dual
from nilrep.fields import GF, QQ, rational
from nilrep.liealg import LieAlgebra
from nilrep.linalg import SparseMatrix, Subspace, lincomb
from nilrep.regular import _reversed_model, build_pruned_module


# ---------------------------------------------------------------------------
# rational references


def sorted_monomials(weights, cutoff):
    """Every exponent tuple of weight <= cutoff, sorted by (weight, lex)."""
    out = [()]
    for w in weights:
        out = [m + (a,) for m in out for a in range(cutoff // w + 1)]

    def weight(m):
        return sum(a * w for a, w in zip(m, weights))

    return sorted((m for m in out if weight(m) <= cutoff), key=lambda m: (weight(m), m))


def rational_right_products(uea):
    """{(mid, i): monomial(mid) * x_i} with exact rational coefficients."""
    fld = uea.field
    d = uea.algebra.dim
    products = {}
    rest = []
    for mid, mono in enumerate(uea.monomials):
        k = max((j for j in range(d) if mono[j]), default=0)
        room = uea.cutoff - uea.weight_of[mid]
        for i in range(k, d):
            if uea.weights[i] > room:
                products[(mid, i)] = {}
            else:
                bigger = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                products[(mid, i)] = {uea.index[bigger]: fld.one}
        if k:
            rest.append((sum(mono), mid, k))
    rest.sort()
    for _factors, mid, k in rest:
        mono = uea.monomials[mid]
        shorter = uea.index[mono[:k] + (mono[k] - 1,) + mono[k + 1:]]
        for i in range(k):
            acc = {}
            for t, cf in products[(shorter, i)].items():
                for t2, cf2 in products[(t, k)].items():
                    acc[t2] = acc.get(t2, 0) + cf * cf2
            for s, cv in uea.algebra.table.get((i, k), {}).items():
                for t, cf in products[(shorter, s)].items():
                    acc[t] = acc.get(t, 0) - cv * cf
            products[(mid, i)] = fld.clean(acc)
    return products


def rational_module(g):
    """(uea, products, active, removed, right matrices, central ids, basis
    inverse) of Regular's pruning, on the rational products."""
    uea, central_ids, basis_inverse = _reversed_model(g.adapted_basis())
    products = rational_right_products(uea)
    protected = {uea.unit} | {uea.degree_one_mid(k) for k in central_ids}
    supports = {}
    for (mid, _i), res in products.items():
        supports.setdefault(mid, set()).update(res)
    active = set(range(len(uea.monomials)))
    removed = []
    changed = True
    while changed:
        changed = False
        for mid in sorted(active, reverse=True):
            if mid not in protected and supports[mid].isdisjoint(active):
                active.discard(mid)
                removed.append(mid)
                changed = True
    active = tuple(sorted(active))
    pos = {mid: p for p, mid in enumerate(active)}
    right = []
    for i in range(g.dim):
        cols = {}
        for p, mid in enumerate(active):
            col = {pos[t]: cf for t, cf in products[(mid, i)].items() if t in pos}
            if col:
                cols[p] = col
        right.append(SparseMatrix(g.field, len(active), len(active), cols))
    return uea, products, active, removed, right, central_ids, basis_inverse


def rational_dual(g):
    """Dual's matrices from the rational transposes and canonical rows."""
    fld = g.field
    uea, _products, active, _removed, right, central_ids, basis_inverse = rational_module(g)
    duals = [mat.transpose() for mat in right]
    pos = {mid: p for p, mid in enumerate(active)}
    basis = Subspace(fld, len(active))
    queue = deque()
    for vec in [{pos[uea.degree_one_mid(k)]: fld.one} for k in central_ids]:
        if (piv := basis.add(vec)) is not None:
            queue.append(basis.primitive_row(piv))
    while queue:
        f = queue.popleft()
        for mat in duals:
            img = mat.apply_sparse(f)
            if img and (piv := basis.add(img)) is not None:
                queue.append(basis.primitive_row(piv))
    k = basis.dim
    at = {pc: t for t, pc in enumerate(basis.pivots)}
    per_basis = []
    for mat in duals:
        cols = {}
        for b, row in enumerate(basis.sparse.values()):
            col = {at[j]: v for j, v in mat.apply_sparse(row).items() if j in at}
            if col:
                cols[b] = col
        per_basis.append(SparseMatrix(fld, k, k, cols))
    return [lincomb(fld, row, per_basis) for row in basis_inverse]


def typed(mat):
    """A matrix's entries with their scalar types."""
    return {j: {i: (x, type(x)) for i, x in col.items()} for j, col in mat.cols.items()}


def rescaled(g, scales):
    """g on the basis s_t x_t: [s_i x_i, s_j x_j] = sum_k (s_i s_j c_k / s_k) s_k x_k."""
    fld = g.field
    table = {
        (i, j): {
            k: fld.mul(fld.mul(fld.mul(scales[i], scales[j]), c), fld.inv(scales[k]))
            for k, c in terms.items()
        }
        for (i, j), terms in g.table.items()
    }
    return LieAlgebra(fld, g.dim, table)


def nonzero_scalars(field):
    if field.characteristic:
        return st.integers(1, field.characteristic - 1)
    return st.builds(
        rational, st.integers(1, 6).flatmap(lambda n: st.sampled_from([n, -n])), st.integers(1, 6)
    )


@st.composite
def rescaled_algebras(draw, field):
    g = draw(st.sampled_from([catalog.upper_triangular(4, field),
                              catalog.free_nilpotent(2, 4, field)]))
    return rescaled(g, draw(st.lists(nonzero_scalars(field), min_size=g.dim, max_size=g.dim)))


# ---------------------------------------------------------------------------
# comparisons


def test_rescaled_tables_have_rational_models():
    # the Q cases below are not integral: the model's mu exceeds 1
    half = rational(1, 2)
    for g in (catalog.upper_triangular(4, QQ), catalog.free_nilpotent(2, 4, QQ)):
        scales = [half] + [rational(1)] * (g.dim - 1)
        assert _reversed_model(rescaled(g, scales).adapted_basis())[0].mu > 1


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@given(st.data())
def test_integral_module_matches_the_rational_one(field, data):
    g = data.draw(rescaled_algebras(field))
    uea, products, active, removed, right, _c, _b = rational_module(g)
    assert uea.monomials == sorted_monomials(uea.weights, uea.cutoff)
    rows = product_dicts(uea.right_products())
    assert len(rows) == len(uea.monomials)
    for (mid, i), want in products.items():
        top = sum(uea.monomials[mid]) + 1
        got = {
            t: rational(n, uea.mu ** (top - sum(uea.monomials[t])))
            for t, n in rows[mid].get(i, {}).items()
        }
        assert got == want, (mid, i)
        assert (i in rows[mid]) == bool(want)
    module = build_pruned_module(g)
    assert module.state.active == active
    assert module.state.removed == removed
    assert [typed(m) for m in module.right_matrices] == [typed(m) for m in right]
    assert [typed(m) for m in algorithm_dual(g, module=module).matrices] == [
        typed(m) for m in rational_dual(g)
    ]


# U_8 and f_20 agree too, but would add about 2 s to the suite
@pytest.mark.parametrize("build", [
    lambda: catalog.heisenberg(QQ),
    lambda: catalog.upper_triangular(5, GF(3)),
    lambda: catalog.upper_triangular(7, GF(2)),
    lambda: catalog.free_nilpotent(2, 6, QQ),
    lambda: catalog.free_nilpotent(3, 5, QQ),
    lambda: catalog.free_nilpotent(4, 4, QQ),
    lambda: catalog.filiform_f(13),
    lambda: catalog.filiform_f(17),
    lambda: rebased(catalog.upper_triangular(5, GF(3)), 1),
    lambda: rebased(catalog.filiform_f(13), 3),
], ids=["heisenberg", "U5-F3", "U7-F2", "N26", "N35", "N44", "f13", "f17",
        "U5-F3-rebased", "f13-rebased"])
def test_one_pass_prune_matches_the_sweeps_to_a_fixpoint(build):
    # the reference sweeps until nothing changes; the weight order makes
    # its first sweep final, so the pass keeps and removes the same ids
    g = build()
    _uea, _products, active, removed, _right, _c, _b = rational_module(g)
    module = build_pruned_module(g)
    assert module.state.active == active
    assert module.state.removed == removed

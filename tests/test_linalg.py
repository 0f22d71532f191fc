from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilrep.fields import GF, QQ, rational
from nilrep.linalg import (
    SparseEliminator,
    SparseMatrix,
    Subspace,
    complement_in,
    intersect,
    invert,
    is_nilpotent,
    lincomb,
    matrix_kernel,
    nullspace,
    rref,
    solve,
    sparse_nullspace,
)

Q1 = rational(1)
Q0 = rational(0)


def qmat(rows):
    return [[rational(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# rref


def test_rref_identity():
    ech, rank, pivots = rref(qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), QQ)
    assert rank == 3 and pivots == (0, 1, 2)
    assert ech == qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_rref_zero():
    ech, rank, pivots = rref(qmat([[0, 0, 0, 0], [0, 0, 0, 0]]), QQ)
    assert rank == 0 and pivots == ()
    assert all(x == 0 for row in ech for x in row)


def test_rref_rank_one():
    # hand elimination: second row is half the first
    ech, rank, pivots = rref(qmat([[2, 4], [1, 2]]), QQ)
    assert rank == 1 and pivots == (0,)
    assert ech[0] == [Q1, rational(2)] and all(x == 0 for x in ech[1])


def test_rref_rejects_floats():
    with pytest.raises(ValueError):
        rref([[0.5, 1.0]], QQ)
    with pytest.raises(ValueError):
        rref([[rational(1, 2)]], GF(5))


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rref_idempotent_and_rank_bounds(rows):
    mat = qmat(rows)
    ech, rank, pivots = rref(mat, QQ)
    again, rank2, pivots2 = rref(ech, QQ)
    assert again == ech and rank2 == rank and pivots2 == pivots
    assert rank <= min(len(rows), 3)


# ---------------------------------------------------------------------------
# nullspace / solve


def test_nullspace_zero_map():
    ns = nullspace(qmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), QQ)
    assert ns.dim == 3


def test_nullspace_injective():
    ns = nullspace(qmat([[1, 0], [0, 1]]), QQ)
    assert ns.dim == 0


def test_nullspace_f2_matches_enumeration():
    f2 = GF(2)
    ns = nullspace([[1, 1]], f2, 2)
    brute = [v for v in product(range(2), repeat=2) if (v[0] + v[1]) % 2 == 0 and any(v)]
    assert ns.dim == 1
    assert sorted(tuple(r) for r in ns.rows) == [(1, 1)]
    assert all(ns.contains(list(v)) for v in brute)


def test_solve_identity():
    x, ker = solve(qmat([[1, 0], [0, 1]]), [rational(3), rational(-7)], QQ)
    assert x == [rational(3), rational(-7)] and ker.dim == 0


def test_solve_zero_map():
    x, ker = solve(qmat([[0, 0], [0, 0]]), [Q0, Q0], QQ)
    assert x == [Q0, Q0] and ker.dim == 2


def test_solve_underdetermined():
    # substitution oracle: x0 + x1 = 1, particular (1, 0), kernel span{(1, -1)}
    x, ker = solve(qmat([[1, 1]]), [Q1], QQ)
    assert x == [Q1, Q0]
    assert ker.dim == 1 and ker.rows[0] == (Q1, rational(-1))


def test_solve_inconsistent():
    assert solve(qmat([[1, 1], [1, 1]]), [Q1, Q0], QQ) is None


# ---------------------------------------------------------------------------
# subspaces


def span(vectors, ambient, field=QQ):
    return Subspace.from_vectors(field, ambient, qmat(vectors) if field is QQ else vectors)


def test_intersect_idempotent():
    a = span([[1, 2, 0], [0, 0, 1]], 3)
    assert intersect(a, a) == a


def test_intersect_transverse_lines():
    a = span([[1, 0]], 2)
    b = span([[0, 1]], 2)
    assert intersect(a, b).dim == 0


def test_intersect_planes():
    a = span([[1, 0, 0], [0, 1, 0]], 3)
    b = span([[0, 1, 0], [0, 0, 1]], 3)
    got = intersect(a, b)
    assert got == span([[0, 1, 0]], 3)


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        intersect(span([[1]], 1), span([[1, 0]], 2))


def test_complement_trivial_cases():
    w = span([[1, 0], [0, 1]], 2)
    s = span([[1, 0], [0, 1]], 2)
    assert complement_in(s, w).dim == 0
    assert complement_in(Subspace.zero_space(QQ, 2), w) == w


def test_complement_pivot_greedy_rule():
    # complement of span{e1+e2} in K^2 keeps e1 under the greedy sift
    sub = span([[1, 1]], 2)
    within = Subspace.full_space(QQ, 2)
    got = complement_in(sub, within)
    assert got == span([[1, 0]], 2)


def test_complement_containment_checked():
    with pytest.raises(ValueError):
        complement_in(span([[1, 0]], 2), span([[0, 1]], 2))


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=0, max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=0, max_size=3),
)
def test_dimension_formula(avecs, bvecs):
    a = span(avecs, 4)
    b = span(bvecs, 4)
    total = Subspace.from_vectors(QQ, 4, a.rows + b.rows)
    assert a.dim + b.dim == intersect(a, b).dim + total.dim


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=0, max_size=4),
)
def test_complement_direct_sum(vecs):
    within = Subspace.full_space(QQ, 4)
    sub = span(vecs, 4)
    w = complement_in(sub, within)
    assert intersect(w, sub).dim == 0
    assert Subspace.from_vectors(QQ, 4, w.rows + sub.rows) == within


def test_subspace_membership_and_coords():
    s = span([[1, 0, 2], [0, 1, 3]], 3)
    v = [rational(2), rational(-1), rational(1)]
    assert s.contains(v)
    coords = s.coords(v)
    assert coords == [rational(2), rational(-1)]
    assert not s.contains([Q1, Q1, Q1])
    with pytest.raises(ValueError):
        s.coords([Q1, Q1, Q1])


# ---------------------------------------------------------------------------
# sparse elimination agrees with the dense path


@given(
    st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), min_size=1, max_size=5),
)
def test_sparse_matches_dense_nullspace(rows):
    dense = nullspace(qmat(rows), QQ, 5)
    sparse_rows = ({j: rational(x) for j, x in enumerate(row) if x} for row in rows)
    sparse = sparse_nullspace(sparse_rows, QQ, 5)
    assert sparse == dense


def test_sparse_eliminator_rowspace_canonical():
    elim = SparseEliminator(QQ, 3)
    elim.add({0: rational(2), 1: rational(4)})
    elim.add({1: rational(1), 2: rational(1)})
    elim.add({0: rational(2), 1: rational(5), 2: rational(1)})  # dependent
    space = elim.row_space()
    assert space == span([[2, 4, 0], [0, 1, 1]], 3)
    assert elim.rank == 2


# ---------------------------------------------------------------------------
# sparse matrices


def test_sparse_matrix_roundtrip_and_ops():
    a = SparseMatrix.from_dense(QQ, qmat([[0, 1], [2, 0]]))
    b = SparseMatrix.from_dense(QQ, qmat([[1, 0], [0, 3]]))
    assert a.to_dense() == qmat([[0, 1], [2, 0]])
    assert a.matmul(b).to_dense() == qmat([[0, 3], [2, 0]])
    assert (a + b).to_dense() == qmat([[1, 1], [2, 3]])
    assert a.commutator(b).to_dense() == qmat([[0, 2], [-4, 0]])
    assert a.transpose().to_dense() == qmat([[0, 2], [1, 0]])
    assert a.scaled(rational(-1)).to_dense() == qmat([[0, -1], [-2, 0]])
    assert lincomb(QQ, [Q1, Q1], [a, b]).to_dense() == qmat([[1, 1], [2, 3]])
    assert a.entry(0, 1) == Q1 and a.entry(0, 0) == Q0


def test_matrix_kernel_and_nilpotency():
    n = SparseMatrix.from_dense(QQ, qmat([[0, 0], [1, 0]]))
    assert matrix_kernel(n) == span([[0, 1]], 2)
    assert is_nilpotent(n)
    assert not is_nilpotent(SparseMatrix.from_dense(QQ, qmat([[1, 0], [0, 1]])))


def test_invert():
    inv = invert(qmat([[1, 2], [3, 4]]), QQ)
    assert inv == qmat([[-2, 1], ["3/2", "-1/2"]]) or inv == [
        [rational(-2), rational(1)],
        [rational(3, 2), rational(-1, 2)],
    ]
    with pytest.raises(ValueError):
        invert(qmat([[1, 2], [2, 4]]), QQ)

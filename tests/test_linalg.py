from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import from_dense, intersect, matmul, span, subspace_kernel, to_dense
from nilrep.fields import GF, QQ, rational
from nilrep.linalg import (
    SparseMatrix,
    Subspace,
    closure,
    combine,
    coordinate_projection,
    descending_chain,
    invert,
    is_nilpotent,
    lincomb,
    relations,
)

Q1 = rational(1)
Q0 = rational(0)


def qmat(rows):
    return [[rational(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# dense Gauss-Jordan reference, kept here only to check the sparse kernel


def rref(rows, field, ncols):
    """Canonical RREF of a dense matrix: (nonzero echelon rows, pivot columns)."""
    mat = [[field.canon(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i] = [field.canon(a - f * b) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], tuple(pivots)


def nullspace(rows, field, ncols):
    """Canonical RREF rows of {x : A x = 0}, from one free column at a time."""
    ech, pivots = rref(rows, field, ncols)
    vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, pc in zip(ech, pivots):
            v[pc] = field.neg(row[f])
        vecs.append(v)
    return rref(vecs, field, ncols)[0]


def dense_rows(space):
    """The RREF basis of a Subspace as dense tuples, in pivot order."""
    return tuple(
        tuple(row.get(j, space.field.zero) for j in range(space.ambient))
        for row in space.sparse.values()
    )


def sparse_rows(rows):
    return [{j: x for j, x in enumerate(row) if x != 0} for row in rows]


def kernel_of(rows, field, ncols):
    """The kernel under test: dense rows added to one Subspace."""
    space = Subspace(field, ncols)
    for row in rows:
        space.add({j: x for j, x in enumerate(row) if x != 0})
    return subspace_kernel(space)


FIELDS = st.sampled_from([QQ, GF(2), GF(3)])


def matrices(nrows, ncols):
    return st.lists(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
        min_size=nrows[0],
        max_size=nrows[1],
    )


def in_field(field, rows):
    return [[field.from_int(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# canonical RREF (built by helpers.span)


def test_rref_identity():
    eye = qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rref(eye, QQ, 3) == ([tuple(r) for r in eye], (0, 1, 2))
    space = span(QQ, 3, eye)
    assert space.pivots == (0, 1, 2) and dense_rows(space) == tuple(tuple(r) for r in eye)
    assert space.sparse == {0: {0: Q1}, 1: {1: Q1}, 2: {2: Q1}}


def test_rref_zero():
    space = span(QQ, 4, qmat([[0, 0, 0, 0], [0, 0, 0, 0]]))
    assert space.dim == 0 and space.pivots == () and space.sparse == {}


def test_rref_rank_one():
    # hand elimination: second row is half the first
    space = span(QQ, 2, qmat([[2, 4], [1, 2]]))
    assert space.pivots == (0,)
    assert space.sparse == {0: {0: Q1, 1: rational(2)}}


def test_rref_rejects_floats():
    # the scalar check lives where dense vectors enter the kernel
    with pytest.raises(ValueError):
        span(QQ, 2, [[0.5, 1.0]])
    with pytest.raises(ValueError):
        span(GF(5), 1, [[rational(1, 2)]])
    with pytest.raises(ValueError):
        invert([{0: 0.5}], QQ)
    with pytest.raises(ValueError):
        invert([{1: Q1}], QQ)  # column index outside a 1 x 1 matrix
    with pytest.raises(ValueError, match="length"):
        span(QQ, 3, [[Q1, Q0]])


@pytest.mark.parametrize("field, bad", [(QQ, "1"), (QQ, True), (QQ, None), (QQ, [1]),
                                        (GF(5), True), (GF(5), "1"), (GF(5), 1.0)])
def test_vectors_take_only_ints_or_backend_rationals(field, bad):
    # a string or a bool used to land in the basis over Q, and a bool over F_p
    with pytest.raises(ValueError, match="does not belong"):
        span(field, 2, [[bad, 0]])
    with pytest.raises(ValueError, match="bad entry"):
        invert([{0: bad}], field)
    assert span(field, 2, [[3, rational(1, 2) if field == QQ else 0]]).dim == 1


@given(matrices((1, 4), 3))
def test_rref_idempotent_and_rank_bounds(rows):
    space = span(QQ, 3, qmat(rows))
    again = span(QQ, 3, dense_rows(space))
    assert again.sparse == space.sparse and again.pivots == space.pivots
    assert space.dim <= min(len(rows), 3)


@given(FIELDS, matrices((0, 5), 4))
def test_from_vectors_matches_dense_rref(field, rows):
    rows = in_field(field, rows)
    ech, pivots = rref(rows, field, 4)
    space = span(field, 4, rows)
    assert dense_rows(space) == tuple(ech) and space.pivots == pivots
    assert all(space.contains(row) for row in rows)


# ---------------------------------------------------------------------------
# kernels


def test_nullspace_zero_map():
    assert kernel_of(qmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), QQ, 3).dim == 3


def test_nullspace_injective():
    assert kernel_of(qmat([[1, 0], [0, 1]]), QQ, 2).dim == 0


def test_nullspace_f2_matches_enumeration():
    f2 = GF(2)
    ns = kernel_of([[1, 1]], f2, 2)
    brute = [v for v in product(range(2), repeat=2) if (v[0] + v[1]) % 2 == 0 and any(v)]
    assert ns.dim == 1
    assert dense_rows(ns) == ((1, 1),)
    assert all(ns.contains(list(v)) for v in brute)


@given(FIELDS, matrices((1, 5), 5))
def test_sparse_matches_dense_nullspace(field, rows):
    rows = in_field(field, rows)
    assert dense_rows(kernel_of(rows, field, 5)) == tuple(nullspace(rows, field, 5))


@given(FIELDS, matrices((0, 4), 5), matrices((0, 4), 5))
def test_growing_a_basis_matches_from_vectors(field, head, tail):
    head, tail = in_field(field, head), in_field(field, tail)
    space = Subspace(field, 5)
    given_rows = sparse_rows(rref(head, field, 5)[0])
    for row in given_rows:
        space.add(row)
    # a view read between adds goes stale once the tail back-eliminates
    assert space.sparse == dict(zip(space.pivots, given_rows))
    assert space.pivots == rref(head, field, 5)[1]
    for row in sparse_rows(tail):
        space.add(row)
    # add stores its own copies: the rows handed in stay as they were
    assert given_rows == sparse_rows(rref(head, field, 5)[0])
    assert space == span(field, 5, head + tail)
    assert space.sparse == span(field, 5, head + tail).sparse
    assert dense_rows(subspace_kernel(space)) == tuple(nullspace(head + tail, field, 5))


# ---------------------------------------------------------------------------
# subspaces; ``intersect`` is the test reference in ``helpers``


def test_intersect_idempotent():
    a = span(QQ, 3, [[1, 2, 0], [0, 0, 1]])
    assert intersect(a, a) == a


def test_intersect_transverse_lines():
    a = span(QQ, 2, [[1, 0]])
    b = span(QQ, 2, [[0, 1]])
    assert intersect(a, b).dim == 0


def test_intersect_planes():
    a = span(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    b = span(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    got = intersect(a, b)
    assert got == span(QQ, 3, [[0, 1, 0]])


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        intersect(span(QQ, 1, [[1]]), span(QQ, 2, [[1, 0]]))


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=0, max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=0, max_size=3),
)
def test_dimension_formula(avecs, bvecs):
    a = span(QQ, 4, avecs)
    b = span(QQ, 4, bvecs)
    total = span(QQ, 4, dense_rows(a) + dense_rows(b))
    assert a.dim + b.dim == intersect(a, b).dim + total.dim


def test_subspace_membership_and_coords():
    s = span(QQ, 3, [[1, 0, 2], [0, 1, 3]])
    v = [rational(2), rational(-1), rational(1)]
    assert s.contains(v)
    # on an RREF basis a member's coordinates are its entries at the pivots
    coords = [v[pc] for pc in s.pivots]
    assert coords == [rational(2), rational(-1)]
    rebuilt = [sum((c * row.get(j, Q0) for c, row in zip(coords, s.sparse.values())), Q0)
               for j in range(3)]
    assert rebuilt == v
    assert not s.contains([Q1, Q1, Q1])
    assert s.reduce({0: Q1, 1: Q1, 2: Q1}) == {2: rational(-4)}


def test_subspace_add_keeps_a_canonical_basis():
    space = Subspace(QQ, 3)
    assert space.add({1: rational(1), 2: rational(1)}) == 1
    assert space.add({0: rational(2), 1: rational(4)}) == 0
    assert space.add({0: rational(2), 1: rational(5), 2: rational(1)}) is None  # dependent
    assert space == span(QQ, 3, [[2, 4, 0], [0, 1, 1]])
    assert space.dim == 2 and space.pivots == (0, 1)
    assert list(space.sparse) == [0, 1]  # pivot order, not the order added


@pytest.mark.parametrize("build", [lambda: Subspace(QQ, 2), lambda: SparseMatrix(QQ, 2, 2)],
                         ids=["Subspace", "SparseMatrix"])
def test_subspace_does_not_hash(build):
    # __eq__ without __hash__ leaves a class unhashable
    with pytest.raises(TypeError):
        hash(build())


@given(FIELDS, matrices((0, 3), 4), matrices((0, 3), 4))
def test_subspace_operations_leave_their_inputs_unchanged(field, avecs, bvecs):
    a = span(field, 4, in_field(field, avecs))
    b = span(field, 4, in_field(field, bvecs))
    before = [dense_rows(a), dense_rows(b)]
    both = intersect(a, b)
    coordinate_projection(field, 4, a.sparse.values())
    # sift a's rows into b's span and keep the independent ones, as a
    # Quotient round sifts S into C to build W
    grown, kept = Subspace(field, 4), Subspace(field, 4)
    for row in b.sparse.values():
        grown.add(row)
    for row in a.sparse.values():
        if grown.add(row) is not None:
            kept.add(row)
    # grow every result to the whole space, which back-eliminates its rows
    for space in (both, grown, kept):
        for k in range(4):
            space.add({k: field.one})
    assert [dense_rows(a), dense_rows(b)] == before


# ---------------------------------------------------------------------------
# sparse matrices


def test_sparse_matrix_roundtrip_and_ops():
    a = from_dense(QQ, qmat([[0, 1], [2, 0]]))
    b = from_dense(QQ, qmat([[1, 0], [0, 3]]))
    assert to_dense(a) == qmat([[0, 1], [2, 0]])
    assert a.cols == {0: {1: rational(2)}, 1: {0: Q1}}
    assert to_dense(matmul(a, b)) == qmat([[0, 3], [2, 0]])
    assert to_dense(lincomb(QQ, {1: Q1, 0: Q1}, [a, b])) == qmat([[1, 1], [2, 3]])
    assert to_dense(lincomb(QQ, {0: Q1, 1: -Q1}, [matmul(a, b), matmul(b, a)])) == \
        qmat([[0, 2], [-4, 0]])
    assert to_dense(a.transpose()) == qmat([[0, 2], [1, 0]])
    assert to_dense(lincomb(QQ, {0: Q1, 1: Q1}, [a, b])) == qmat([[1, 1], [2, 3]])
    assert to_dense(lincomb(QQ, {1: rational(2)}, [a, b])) == qmat([[2, 0], [0, 6]])


def dense_lincomb(field, coeffs, dense):
    """Reference: the entrywise sum of coeffs[l] * dense[l], canonical."""
    nrows, ncols = len(dense[0]), len(dense[0][0])
    return [[field.canon(sum((c * dense[l][i][j] for l, c in coeffs.items()), field.zero))
             for j in range(ncols)] for i in range(nrows)]


@given(FIELDS, st.lists(matrices((3, 3), 4), min_size=1, max_size=4), st.data())
def test_lincomb_matches_the_dense_sum(field, mats, data):
    dense = [in_field(field, rows) for rows in mats]
    # the negation of the first term, so that whole columns can cancel
    dense.append([[field.neg(x) for x in row] for row in dense[0]])
    drawn = data.draw(st.dictionaries(st.integers(0, len(mats) - 1), st.integers(-3, 3)))
    coeffs = {l: field.from_int(c) for l, c in drawn.items()}
    if 0 in coeffs and data.draw(st.booleans()):
        coeffs[len(mats)] = coeffs[0]
    order = data.draw(st.permutations(sorted(coeffs)))  # the dict's order is irrelevant
    coeffs = {l: coeffs[l] for l in order}
    terms = [from_dense(field, rows) for rows in dense]
    out = lincomb(field, coeffs, terms)
    assert (out.nrows, out.ncols) == (3, 4)
    assert to_dense(out) == dense_lincomb(field, coeffs, dense)
    assert all(out.cols.values())  # no empty column is kept
    assert all(x == field.canon(x) != 0 for col in out.cols.values() for x in col.values())
    assert lincomb(field, {len(mats): field.one, 0: field.one}, terms).cols == {}
    with pytest.raises(ValueError, match="shape mismatch"):
        lincomb(field, {0: field.one, 1: field.one}, [terms[0], SparseMatrix(field, 3, 5)])


def sparse_vec(row):
    return {j: x for j, x in enumerate(row) if x != 0}


def fixpoint(field, n, seeds, dense_maps):
    """The closure as a plain fixpoint: every image of every basis row,
    multiplied out densely, sifted in until the dimension stops growing."""
    space = Subspace(field, n)
    for v in seeds:
        space.add(v)
    while True:
        dim = space.dim
        for row in list(space.sparse.values()):
            for mat in dense_maps:
                space.add(sparse_vec([sum((mat[i][j] * x for j, x in row.items()), field.zero)
                                      for i in range(n)]))
        if space.dim == dim:
            return space


@given(FIELDS, st.integers(1, 5), st.data())
def test_closure_matches_the_plain_fixpoint(field, n, data):
    entries = st.sampled_from([0, 0, 0, 1, -1, 2])
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    dense_maps = [in_field(field, rows) for rows in data.draw(st.lists(square, max_size=3))]
    seeds = [sparse_vec(row) for row in in_field(field, data.draw(matrices((0, 3), n)))]
    got = closure(field, n, seeds, [from_dense(field, rows) for rows in dense_maps])
    assert got.sparse == fixpoint(field, n, seeds, dense_maps).sparse


def test_closure_of_no_seeds_or_no_maps():
    shift = from_dense(QQ, qmat([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))  # e_0 -> e_1 -> e_2
    assert closure(QQ, 3, [], [shift]).dim == 0
    assert closure(QQ, 3, [{0: Q1}], []).sparse == {0: {0: Q1}}
    assert closure(QQ, 3, [{0: Q1}], [shift]).dim == 3


def plain_chain(field, n, start, dense_maps):
    """The descending chain from the images of words: S_i is spanned by
    M_{a_1} ⋯ M_{a_i} v for every word a in the maps and every dense start
    row v, each multiplied out densely; the chain ends at the first S_i that
    is 0 or whose successor is no smaller."""
    vectors = start
    chain = [span(field, n, vectors)]
    while chain[-1].dim:
        vectors = [[sum((mat[i][j] * v[j] for j in range(n)), field.zero) for i in range(n)]
                   for v in vectors for mat in dense_maps]
        nxt = span(field, n, vectors)
        if nxt.dim >= chain[-1].dim:
            break
        chain.append(nxt)
    return chain


@given(FIELDS, st.integers(1, 5), st.data())
def test_descending_chain_matches_the_plain_chain_of_words(field, n, data):
    entries = st.sampled_from([0, 0, 0, 1, -1, 2])
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    dense_maps = [in_field(field, rows) for rows in data.draw(st.lists(square, max_size=3))]
    start = in_field(field, data.draw(matrices((0, 3), n)))
    got = descending_chain(span(field, n, start), [from_dense(field, rows) for rows in dense_maps])
    assert got == plain_chain(field, n, start, dense_maps)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_descending_chain_of_an_empty_start_no_maps_and_a_stall(field):
    one = field.one
    shift = from_dense(field, in_field(field, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    swap = from_dense(field, in_field(field, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    empty, full = Subspace(field, 3), Subspace.full_space(field, 3)
    assert descending_chain(empty, [shift]) == [empty]
    assert descending_chain(full, []) == [full, empty]
    # e_0 -> e_1 -> e_2 -> 0
    assert [s.sparse for s in descending_chain(full, [shift])] == [
        full.sparse, {1: {1: one}, 2: {2: one}}, {2: {2: one}}, {}]
    # swap maps <e_0, e_1> onto itself: the chain stops where it stalls
    plane = span(field, 3, in_field(field, [[1, 0, 0], [0, 1, 0]]))
    assert descending_chain(full, [swap]) == [full, plane]
    assert descending_chain(plane, [swap, shift]) == [plane]


@given(FIELDS, matrices((0, 4), 4), st.dictionaries(st.integers(0, 5), st.integers(-3, 3)))
def test_combine_matches_the_dense_sum(field, rows, drawn):
    dense = in_field(field, rows)
    coeffs = {p: field.from_int(c) for p, c in drawn.items()}  # p past the rows is skipped
    want = [field.canon(sum((c * dense[p][j] for p, c in coeffs.items() if p < len(dense)),
                            field.zero)) for j in range(4)]
    got = combine(field, coeffs, dict(enumerate(sparse_vec(row) for row in dense)))
    assert got == sparse_vec(want)
    assert all(x == field.canon(x) != 0 for x in got.values())
    assert combine(field, {}, {0: {0: field.one}}) == combine(field, {0: field.one}, {}) == {}


def test_sparse_matrix_equality_ignores_stored_zeros():
    a = SparseMatrix(QQ, 2, 2, {0: {1: Q1}})
    assert a == SparseMatrix(QQ, 2, 2, {0: {1: Q1, 0: 0}})  # an explicit zero entry
    assert a == SparseMatrix(QQ, 2, 2, {0: {1: Q1}, 1: {}})  # an empty column
    assert SparseMatrix(GF(3), 2, 2, {0: {1: 4}}) == SparseMatrix(GF(3), 2, 2, {0: {1: 1}})
    # equal in both orders: ``__eq__`` once cleaned only its right operand's
    # columns, so a stored zero on the left made it unequal to an empty matrix
    zero3, three = SparseMatrix(GF(3), 2, 2), SparseMatrix(GF(3), 2, 2, {1: {1: 3}})
    assert three == zero3 and zero3 == three
    assert a != SparseMatrix(QQ, 2, 2, {0: {1: rational(2)}})
    assert a != SparseMatrix(QQ, 2, 3, {0: {1: Q1}})
    assert a != SparseMatrix(QQ, 2, 2)


def test_matrix_kernel_and_nilpotency():
    n = from_dense(QQ, qmat([[0, 0], [1, 0]]))
    assert kernel_of(to_dense(n), QQ, 2) == span(QQ, 2, [[0, 1]])
    assert is_nilpotent(n)
    assert not is_nilpotent(from_dense(QQ, qmat([[1, 0], [0, 1]])))


# Strictly lower triangular 4 x 4 matrices with the 2 x 2 block on rows and
# columns 1, 2 replaced: that block is a strongly connected component of the
# support, and every other component is a singleton with a zero diagonal.
def embedded(block):
    (a, b), (c, d) = block
    return [[0, 0, 0, 0], [1, a, b, 0], [1, c, d, 0], [1, 1, 1, 0]]


# Two 2 x 2 blocks on rows and columns 0, 1 and 3, 4, joined by the path
# 1 -> 2 -> 3: no vertex is peeled, so the core is larger than any component.
def joined(first, second):
    (a, b), (c, d) = first
    (e, f), (g, h) = second
    return [[a, b, 0, 0, 0], [c, d, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, e, f], [0, 0, 0, g, h]]


P = "p"  # a diagonal entry stored as the characteristic: zero in the field


def support_matrix(field, rows):
    """The rows with canonical entries, but each P stored as the characteristic."""
    mat = from_dense(field, [[0 if x == P else field.from_int(x) for x in row] for row in rows])
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x == P:
                mat.cols.setdefault(j, {})[i] = field.characteristic
    return mat


NILPOTENCY_CASES = [
    ("cyclic support, nilpotent", [[1, 1], [-1, -1]], True),
    ("cyclic support, not nilpotent", [[0, 1], [1, 0]], False),
    ("three-cycle support, nilpotent", [[-1, 0, -1], [-1, 1, 0], [1, -1, 0]], True),
    ("three-cycle support, not nilpotent", [[0, 0, 1], [1, 0, 0], [0, 1, 0]], False),
    ("nonzero diagonal in a singleton block", [[0, 0, 0], [1, 1, 0], [0, 1, 0]], False),
    ("strictly triangular around a nilpotent block", embedded([[1, 1], [-1, -1]]), True),
    ("strictly triangular around a non-nilpotent block", embedded([[0, 1], [1, 0]]), False),
    ("two cycles joined by a path, nilpotent", joined([[1, 1], [-1, -1]], [[1, 1], [-1, -1]]),
     True),
    ("two cycles joined by a path, not nilpotent", joined([[1, 1], [-1, -1]], [[0, 1], [1, 0]]),
     False),
    ("self-loop stored as the characteristic", [[0, 0, 0], [1, P, 0], [1, 1, 0]], True),
]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@pytest.mark.parametrize("name, rows, nilpotent", NILPOTENCY_CASES,
                         ids=[case[0] for case in NILPOTENCY_CASES])
def test_nilpotency_through_the_support_components(field, name, rows, nilpotent):
    assert is_nilpotent(support_matrix(field, rows)) is nilpotent


def test_invert():
    inv = invert(sparse_rows(qmat([[1, 2], [3, 4]])), QQ)
    assert inv == ({0: rational(-2), 1: Q1}, {0: rational(3, 2), 1: rational(-1, 2)})
    with pytest.raises(ValueError):
        invert(sparse_rows(qmat([[1, 2], [2, 4]])), QQ)


@given(FIELDS, matrices((3, 3), 3))
def test_invert_matches_dense_rref(field, rows):
    rows = in_field(field, rows)
    eye = [[field.one if j == i else field.zero for j in range(3)] for i in range(3)]
    ech, pivots = rref([r + e for r, e in zip(rows, eye)], field, 6)
    if pivots[:3] != (0, 1, 2):
        with pytest.raises(ValueError, match="not invertible"):
            invert(sparse_rows(rows), field)
        return
    inv = invert(sparse_rows(rows), field)
    assert inv == tuple(sparse_rows(row[3:] for row in ech))
    dense_inv = [[row.get(j, field.zero) for j in range(3)] for row in inv]
    assert to_dense(matmul(from_dense(field, rows), from_dense(field, dense_inv))) == eye


@given(FIELDS, matrices((0, 3), 4), matrices((0, 3), 4))
def test_intersect_matches_dense_nullspace(field, avecs, bvecs):
    a = span(field, 4, in_field(field, avecs))
    b = span(field, 4, in_field(field, bvecs))
    # reference: kernel of the coefficient system sum u_i a_i - sum v_j b_j = 0
    system = [
        [r[t] for r in dense_rows(a)] + [field.neg(r[t]) for r in dense_rows(b)]
        for t in range(4)
    ]
    vecs = []
    for kv in nullspace(system, field, a.dim + b.dim):
        w = [field.zero] * 4
        for u, row in zip(kv, dense_rows(a)):
            w = [field.canon(x + u * y) for x, y in zip(w, row)]
        vecs.append(w)
    assert dense_rows(intersect(a, b)) == tuple(rref(vecs, field, 4)[0])


@given(FIELDS, matrices((0, 4), 5))
def test_coordinate_projection_matches_dense_reference(field, rows):
    n = 5
    w = span(field, n, in_field(field, rows))
    kept, project = coordinate_projection(field, n, w.sparse.values())
    # P is read off the images of the unit vectors
    proj = SparseMatrix(field, len(kept), n,
                        {j: col for j in range(n) if (col := field.divided(*project({j: field.one})))})
    unit = [[field.one if j == k else field.zero for j in range(n)] for k in range(n)]
    # kept is the greedy complement: e_k stays when it raises the dense rank
    greedy, basis = [], list(dense_rows(w))
    for k in range(n):
        if len(rref(basis + [unit[k]], field, n)[0]) > len(basis):
            greedy.append(k)
            basis.append(unit[k])
    assert kept == greedy
    p = to_dense(proj)
    assert (proj.nrows, proj.ncols) == (len(kept), n)

    def apply(vec):
        return [field.canon(sum((r[j] * vec[j] for j in range(n)), field.zero)) for r in p]

    for row in dense_rows(w):
        assert all(x == 0 for x in apply(row))  # P kills W
    for t, k in enumerate(kept):
        assert apply(unit[k]) == [field.one if s == t else field.zero for s in range(len(kept))]
    assert nullspace(p, field, n) == list(dense_rows(w))  # ker P = W
    # project is P on every vector, not only on the unit vectors
    vec = [field.parse("%d/5" % (j * j - 3)) for j in range(n)]
    residual, s = project({j: x for j, x in enumerate(vec) if x != 0})
    # scaled by s > 0 to ints, with s = 1 over F_p
    assert s > 0 and all(type(x) is int for x in residual.values())
    assert field == QQ or s == 1
    image = field.divided(residual, s)
    assert [image.get(t, field.zero) for t in range(len(kept))] == apply(vec)


# ---------------------------------------------------------------------------
# fraction-free rows against the normalised kernel


class NormalisedSubspace:
    """The elimination kernel as it was before rows were stored fraction-free:
    every row normalised to pivot entry 1, over Q with rational entries.  Kept
    here only as the reference for ``Subspace``."""

    def __init__(self, field, ambient):
        self.field, self.ambient = field, ambient
        self.rows, self.touch = {}, {}

    def _clear(self, v, cols, rows):
        p = self.field.characteristic
        for c in cols:
            f = v[c]
            for j, x in rows[c].items():
                nv = v.get(j, 0) - f * x
                if p:
                    nv %= p
                if nv:
                    v[j] = nv
                else:
                    del v[j]

    @property
    def sparse(self):
        return {pc: self.rows[pc] for pc in sorted(self.rows)}

    def reduce(self, row):
        v = self.field.clean(row)
        self._clear(v, [c for c in v if c in self.rows], self.rows)
        return v

    def add(self, row):
        fld = self.field
        v = self.reduce(row)
        if not v:
            return None
        piv = min(v)
        ipiv = fld.inv(v[piv])
        v = {j: fld.mul(x, ipiv) for j, x in v.items()}
        for pc in list(self.touch.get(piv, ())):
            prow = self.rows[pc]
            self._clear(prow, (piv,), {piv: v})
            for j in v:
                if j in prow:
                    self.touch.setdefault(j, set()).add(pc)
                else:
                    self.touch[j].discard(pc)
        self.rows[piv] = v
        for j in v:
            self.touch.setdefault(j, set()).add(piv)
        return piv

    def kernel(self):
        fld = self.field
        out = NormalisedSubspace(fld, self.ambient)
        for f in range(self.ambient):
            if f not in self.rows:
                v = {f: fld.one}
                for pc in self.touch.get(f, ()):
                    v[pc] = fld.neg(self.rows[pc][f])
                out.add(v)
        return out


def scalars(field):
    """Scalars of ``field``; over Q with unlike denominators."""
    if field == QQ:
        return st.builds(rational, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))
    return st.integers(0, field.characteristic - 1)


def sparse_ops(field, ncols):
    """Interleaved ``add`` and ``reduce`` calls on short sparse rows, zeros
    kept, so the span stays a proper subspace and residuals stay nonzero."""
    row = st.dictionaries(st.integers(0, ncols - 1), scalars(field), max_size=4)
    return st.lists(st.tuples(st.sampled_from(["add", "reduce"]), row), max_size=12)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@given(st.data())
def test_fraction_free_kernel_matches_the_normalised_one(field, data):
    ops = data.draw(sparse_ops(field, 8))
    new, old = Subspace(field, 8), NormalisedSubspace(field, 8)
    for op, row in ops:
        given_row = dict(row)
        got, want = getattr(new, op)(row), getattr(old, op)(row)
        assert got == want and row == given_row
        assert new.sparse == old.sparse and new.pivots == tuple(old.sparse)
    assert subspace_kernel(new).sparse == old.kernel().sparse


def integral_values_are_ints(rows):
    return all(type(x) is int for row in rows for x in row.values() if x.denominator == 1)


def test_back_elimination_keeps_integral_entries_as_ints():
    # 1/2 - (1/2)(-1) is integral: the normalised kernel stored it as a rational
    space = Subspace(QQ, 3)
    space.add({0: Q1, 1: rational(1, 2), 2: rational(1, 2)})
    space.add({1: Q1, 2: rational(-1)})
    assert space.sparse == {0: {0: 1, 2: 1}, 1: {1: 1, 2: -1}}
    assert integral_values_are_ints(space.sparse.values())


@given(st.lists(st.lists(scalars(QQ), min_size=5, max_size=5), max_size=5),
       st.lists(scalars(QQ), min_size=5, max_size=5))
def test_integral_rationals_are_ints_in_every_result(rows, vec):
    space = span(QQ, 5, rows)
    residual = space.reduce({j: x for j, x in enumerate(vec)})
    assert integral_values_are_ints(space.sparse.values())
    assert integral_values_are_ints([residual, *subspace_kernel(space).sparse.values()])


# ---------------------------------------------------------------------------
# relations: one reversed-column sweep against the two-sift kernel


def two_sift_relations(field, maps):
    """``relations`` as it was: the rows (M_l at one position)_l sifted in
    sorted order of the position until they span K^len(maps), then their
    kernel vectors sifted again into a new subspace."""
    d = len(maps)
    rows = {}
    for l, outer in enumerate(maps):
        for j, inner in outer.items():
            for i, v in inner.items():
                rows.setdefault((j, i), {})[l] = v
    constraints = Subspace(field, d)
    for key in sorted(rows):
        constraints.add(rows[key])
        if constraints.dim == d:
            break
    return subspace_kernel(constraints)


@st.composite
def sparse_maps(draw):
    """``(field, maps)``: up to six sparse 4 x 4 maps over Q, F_2 or F_3, and
    among them, in a drawn order, empty maps and repeated or scaled copies."""
    field = draw(FIELDS)
    nonzero = scalars(field).filter(lambda x: x != 0)
    one_map = st.dictionaries(st.integers(0, 3), st.dictionaries(st.integers(0, 3), nonzero,
                                                                  min_size=1, max_size=3),
                              max_size=3)
    maps = draw(st.lists(one_map, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        maps.append({})
    for _ in range(draw(st.integers(0, 2)) if maps else 0):
        source, f = maps[draw(st.integers(0, len(maps) - 1))], draw(nonzero)
        maps.append({j: {i: field.mul(f, x) for i, x in inner.items()}
                     for j, inner in source.items()})
    return field, draw(st.permutations(maps))


def check_relations_against_two_sifts(field, maps):
    got, want = relations(field, maps), two_sift_relations(field, maps)
    assert (got.field, got.ambient) == (field, len(maps))
    assert got.sparse == want.sparse and got.pivots == want.pivots
    assert all(got.primitive_row(pc) == want.primitive_row(pc) for pc in got.pivots)
    if field == QQ:
        assert integral_values_are_ints(got.sparse.values())


@given(sparse_maps())
def test_relations_match_the_two_sift_kernel(drawn):
    check_relations_against_two_sifts(*drawn)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@pytest.mark.parametrize("maps", [
    [],
    [{}, {}, {}],
    [{l: {l: 1}} for l in range(4)],  # full rank: no relation
    [{0: {1: 1}, 2: {0: 2}}, {3: {3: 1}}, {0: {1: 1}, 2: {0: 2}}],  # a repeated map
    [{0: {0: 1}}, {0: {0: 1}}, {0: {0: 1}}, {1: {0: 1}}],  # repeated rows
    [{0: {0: 1, 1: 1}}, {}, {0: {0: 1}, 1: {1: 1}}, {0: {1: 1}}],
], ids=["no-maps", "zero-maps", "full-rank", "repeated-map", "repeated-rows", "mixed"])
def test_relations_match_the_two_sift_kernel_on_fixed_maps(field, maps):
    check_relations_against_two_sifts(field, [
        {j: {i: field.from_int(x) for i, x in inner.items()} for j, inner in m.items()}
        for m in maps])

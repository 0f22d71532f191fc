"""Helpers that only the tests use: dense matrices, matrix products,
subspace intersections, quotient algebras, the second Betti number, plain
JSON files, generated nilpotent algebras and the product table as dicts.

The package holds matrices and subspaces sparse and writes representation
files itself; tests state small matrices and spans densely, check matrix
identities through products, intersect subspaces by Zassenhaus' method,
build quotients by ideals and central extensions by 2-cocycles to generate
inputs, check b2(f_n) = 2, save algebra objects, sometimes corrupted on
purpose, as ordinary JSON, and read every entry of the product table, a
bare monomial id included, as one dict.
"""

import json
import random
from itertools import combinations

from hypothesis import strategies as st

from nilrep import catalog
from nilrep.fields import GF, QQ, Field
from nilrep.liealg import LieAlgebra, _generators
from nilrep.linalg import SparseMatrix, Subspace, combine, coordinate_projection, invert
from nilrep.uea import terms


def to_dense(mat: SparseMatrix) -> list:
    """The rows of a sparse matrix as dense lists."""
    zero = mat.field.zero
    rows = [[zero] * mat.ncols for _ in range(mat.nrows)]
    for j, col in mat.cols.items():
        for i, x in col.items():
            rows[i][j] = x
    return rows


def product_dicts(rows) -> list:
    """A ``TruncatedUEA.right_products`` table with every product, a bare
    monomial id included, written out as the dict ``{t: N}``."""
    return [{i: dict(terms(p)) for i, p in row.items()} for row in rows]


def from_dense(field: Field, rows) -> SparseMatrix:
    """A sparse matrix from dense rows, with canonical nonzero entries."""
    cols: dict = {}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            x = field.canon(x)
            if x != 0:
                cols.setdefault(j, {})[i] = x
    return SparseMatrix(field, len(rows), len(rows[0]) if rows else 0, cols)


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The product a·b, one ``apply_sparse`` per column of b; raises
    ValueError when the shapes do not match."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in matmul")
    cols = {j: image for j, col in b.cols.items() if (image := a.apply_sparse(col))}
    return SparseMatrix(a.field, a.nrows, b.ncols, cols)


def span(field: Field, ambient: int, vectors) -> Subspace:
    """The span of dense vectors; raises ValueError on a wrong length or on a
    scalar that ``field.validate`` refuses."""
    space = Subspace(field, ambient)
    for vec in vectors:
        if len(vec) != ambient:
            raise ValueError("vector length %d != ambient %d" % (len(vec), ambient))
        for x in vec:
            if not field.validate(x):
                raise ValueError("scalar %r does not belong to %r" % (x, field))
        space.add({j: x for j, x in enumerate(vec) if x != 0})
    return space


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection by Zassenhaus' method.

    In the RREF of the rows (u | u) for u in a and (w | 0) for w in b, the
    rows that vanish on the first half are (0 | basis of a ∩ b).
    """
    if a.field != b.field:
        raise ValueError("subspaces over different fields")
    if a.ambient != b.ambient:
        raise ValueError("ambient dimensions differ: %d vs %d" % (a.ambient, b.ambient))
    n = a.ambient
    out = Subspace(a.field, n)
    both = Subspace(a.field, 2 * n)
    for row in a.sparse.values():
        doubled = dict(row)
        doubled.update((n + j, x) for j, x in row.items())
        both.add(doubled)
    for row in b.sparse.values():
        both.add(row)
    for pc, row in both.sparse.items():
        if pc >= n:
            out.add({j - n: x for j, x in row.items()})
    return out


def quotient(g: LieAlgebra, ideal: Subspace) -> tuple:
    """The quotient algebra g/ideal on the kept unit vectors of
    ``coordinate_projection``, and the projection as a SparseMatrix (column
    i: the image of e_i).

    Raises ValueError unless [ideal, V] ⊆ ideal for the generators V of
    ``_generators``, which is [ideal, g] ⊆ ideal: by Jacobi,
    [[x, y], i] = [x, [y, i]] - [y, [x, i]], so the x with [x, ideal] ⊆ ideal
    form a subalgebra, and it contains V.
    """
    if ideal.field != g.field or ideal.ambient != g.dim:
        raise ValueError("ideal does not live in this algebra")
    gens = _generators(g)[1]
    if any(ideal.reduce(g.bracket(row, v)) for row in ideal.sparse.values() for v in gens):
        raise ValueError("subspace is not an ideal")
    kept, project = coordinate_projection(g.field, g.dim, ideal.sparse.values())
    one = g.field.one
    proj = SparseMatrix(g.field, len(kept), g.dim,
                        {j: col for j in range(g.dim) if (col := project({j: one}))})
    return g.rewritten([{k: one} for k in kept], proj), proj


def two_cocycle_conditions(g: LieAlgebra) -> tuple:
    """``(pairs, conditions)``: ``pairs[(i, j)]`` for i < j is the coordinate
    of ω_ij in a 2-cochain ω, and ``conditions`` spans the cocycle conditions
    ω([x_i, x_j], x_k) + ω([x_j, x_k], x_i) + ω([x_k, x_i], x_j) = 0 over the
    triples i < j < k, so that Z² is its kernel."""
    fld, d = g.field, g.dim
    pairs = {p: t for t, p in enumerate((i, j) for i in range(d) for j in range(i + 1, d))}
    conditions = Subspace(fld, len(pairs))
    for i, j, k in combinations(range(d), 3):
        row: dict = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for l, f in g.bracket({a: fld.one}, {b: fld.one}).items():
                if l != c:
                    key, sign = (pairs[(l, c)], 1) if l < c else (pairs[(c, l)], -1)
                    row[key] = row.get(key, 0) + sign * f
        row = fld.clean(row)
        if row:
            conditions.add(row)
    return pairs, conditions


def betti2(g: LieAlgebra) -> int:
    """dim H²(g, K) with trivial coefficients: dim Z² − dim B², with B²
    spanned by the coboundaries dx_l^* = −x_l^*([·, ·]), for each l the row
    of −c_{ij}^l over the pairs i < j, sifted in order."""
    fld = g.field
    pairs, conditions = two_cocycle_conditions(g)
    b2 = Subspace(fld, len(pairs))
    for l in range(g.dim):
        row = {}
        for (i, j), terms in g.table.items():
            if l in terms:
                row[pairs[(i, j)]] = fld.neg(terms[l])
        if row:
            b2.add(row)
    return len(pairs) - conditions.dim - b2.dim


def save_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def rebased(g: LieAlgebra, seed: int) -> LieAlgebra:
    """g in the seeded basis b_t = e_t + sum over s > t of r_s e_s with each
    r_s drawn from {-1, 0, 1}: not an adapted basis, and denser brackets."""
    fld, rng = g.field, random.Random(seed)
    vectors = [fld.clean({t: fld.one, **{s: rng.randint(-1, 1) for s in range(t + 1, g.dim)}})
               for t in range(g.dim)]
    to_new = SparseMatrix(fld, g.dim, g.dim, dict(enumerate(invert(vectors, fld))))
    return g.rewritten(vectors, to_new)


@st.composite
def free_nilpotent_quotients(draw):
    """N_{n,c} over Q, F_2 or F_3 modulo the ideal generated by one to three
    random combinations of Hall basis vectors, each of one degree k >= 2 of
    its own, through ``quotient``; the ideal is the closure of their span
    under the brackets with the degree-one vectors.  A drawn seed makes
    every choice, so that the derandomized examples spread over the shapes
    rather than repeat the smallest draws, and k >= 3 for n = 2, where the
    degree-2 layer is one line and would generate all of g²."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    field = rng.choice([QQ, GF(2), GF(3)])
    n, c = rng.choice([(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2), (5, 2)])
    g = catalog.free_nilpotent(n, c, field)
    one = field.one
    series = g.lower_central_series()
    degree = [sum(1 for gm in series if not gm.reduce({i: one})) for i in range(g.dim)]
    ideal = Subspace(field, g.dim)
    todo = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(3 if n == 2 else 2, c)
        layer = [i for i in range(g.dim) if degree[i] == k]
        coeffs = [rng.randint(-3, 3) for _ in layer]
        vec = field.clean({i: field.from_int(x) for i, x in zip(layer, coeffs)})
        if vec and ideal.add(vec) is not None:
            todo.append(vec)
    while todo:
        x = todo.pop()
        for j in range(g.dim):
            if degree[j] == 1:
                y = g.bracket(x, {j: one})
                if y and ideal.add(y) is not None:
                    todo.append(y)
    return quotient(g, ideal)[0]


@st.composite
def central_extensions(draw):
    """A ``free_nilpotent_quotients`` algebra g extended by a central z = x_d
    through a random 2-cocycle ω, a combination of the echelon basis of Z²
    (the kernel of ``two_cocycle_conditions``): [x_i, x_j]' = [x_i, x_j] +
    ω_ij z.  The cocycle conditions are the Jacobi identity of the new
    brackets, and a central extension of a nilpotent algebra is nilpotent."""
    g = draw(free_nilpotent_quotients())
    fld, d = g.field, g.dim
    pairs, conditions = two_cocycle_conditions(g)
    z2 = dict(enumerate(conditions.kernel().sparse.values()))
    rng = random.Random(draw(st.integers(0, 2**32)))
    omega = combine(fld, {t: fld.from_int(rng.randint(-2, 2)) for t in z2}, z2)
    table = {p: dict(g.table.get(p, {})) for p in pairs}
    for p, t in pairs.items():
        if t in omega:
            table[p][d] = omega[t]
    return LieAlgebra(fld, d + 1, table)

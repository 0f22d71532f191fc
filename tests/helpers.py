"""Helpers that only the tests use: dense matrices, matrix products,
subspace intersections and kernels, the lower central series from its
definition, quotient algebras, direct sums, the second Betti
number, plain JSON files, generated nilpotent algebras, the product table as
dicts, the full monomial model with its unpruned module, the paper's
Quotient round, the closed-form bound nu and the Pfaff identities of f_n.

The package holds matrices and subspaces sparse and writes representation
files itself; tests state small matrices and spans densely, check matrix
identities through products, intersect subspaces by Zassenhaus' method,
build quotients by ideals, central extensions by 2-cocycles and direct
sums to generate inputs, check b2(f_n) = 2, save algebra objects, sometimes corrupted on
purpose, as ordinary JSON, and read every entry of the product table, a
bare monomial id included, as one dict.  The package never enumerates the
top weight layer's monomials of degree two or more; the full model here
does, as the reference the tests compare the package against, and as the
unpruned module of acceptance criterion 1.  The package stores a monomial as
one integer key; ``key`` and ``exponents`` turn exponent tuples into keys
and back, so that tests can name monomials by their exponents.  The
package's Quotient carries the generator and center matrices alone through
its rounds and projects the input once; ``reduce_once`` is the paper's
round, which projects every matrix, and ``iterated_quotient`` repeats it to
the fixpoint as the reference ``algorithm_quotient`` must equal.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

from hypothesis import strategies as st

from nilrep import catalog
from nilrep.fields import GF, QQ, Field, rational
from nilrep.liealg import LieAlgebra, _generators
from nilrep.linalg import (
    SparseMatrix,
    Subspace,
    combine,
    coordinate_projection,
    invert,
    lincomb,
    relations,
)
from nilrep.regular import _module_action, _reversed_model
from nilrep.representation import Representation
from nilrep.uea import TruncatedUEA, terms


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


def all_basis_series(g):
    """The lower central series [g^m, g] from its definition: every row of
    g^m bracketed with every basis vector, as before it used only the
    generators."""
    cur = Subspace.full_space(g.field, g.dim)
    series = [cur]
    while cur.dim > 0:
        nxt = Subspace(g.field, g.dim)
        for row in cur.sparse.values():
            for j in range(g.dim):
                entry = g.bracket(row, {j: g.field.one})
                if entry:
                    nxt.add(entry)
        assert nxt.dim < cur.dim
        series.append(nxt)
        cur = nxt
    return series


def subspace_kernel(space: Subspace) -> Subspace:
    """The kernel of the matrix whose rows were added to ``space``: its
    ``kernel_vectors`` sifted into a new subspace for the canonical basis."""
    out = Subspace(space.field, space.ambient)
    for v in space.kernel_vectors():
        out.add(v)
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
    fld = g.field
    kept, project = coordinate_projection(fld, g.dim, ideal.sparse.values())
    one = fld.one
    proj = SparseMatrix(fld, len(kept), g.dim,
                        {j: col for j in range(g.dim) if (col := fld.divided(*project({j: one})))})
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


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """a ⊕ b on the basis of a followed by that of b, with [a, b] = 0; raises
    ValueError when the fields differ."""
    if a.field != b.field:
        raise ValueError("direct sum of algebras over different fields")
    n = a.dim
    table = dict(a.table)
    table.update(((i + n, j + n), {k + n: c for k, c in terms.items()})
                 for (i, j), terms in b.table.items())
    return LieAlgebra(a.field, n + b.dim, table)


def as_fractions(rep: Representation) -> Representation:
    """``rep`` with every integral entry an integral ``Fraction`` instead of an ``int``."""
    return Representation(rep.algebra, [
        SparseMatrix(rep.field, mat.nrows, mat.ncols,
                     {j: {i: Fraction(x) for i, x in col.items()} for j, col in mat.cols.items()})
        for mat in rep.matrices], dict(rep.provenance))


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
    z2 = dict(enumerate(subspace_kernel(conditions).sparse.values()))
    rng = random.Random(draw(st.integers(0, 2**32)))
    omega = combine(fld, {t: fld.from_int(rng.randint(-2, 2)) for t in z2}, z2)
    table = {p: dict(g.table.get(p, {})) for p in pairs}
    for p, t in pairs.items():
        if t in omega:
            table[p][d] = omega[t]
    return LieAlgebra(fld, d + 1, table)


@st.composite
def rebased_generated(draw):
    """A ``free_nilpotent_quotients`` or ``central_extensions`` algebra in the
    basis ``rebased`` draws from a drawn seed: a generated algebra whose
    given basis is not adapted, with denser brackets."""
    g = draw(st.one_of(free_nilpotent_quotients(), central_extensions()))
    return rebased(g, draw(st.integers(0, 2**32)))


# ---------------------------------------------------------------------------
# the full monomial model


def weight_layers(weights, cutoff) -> list:
    """The exponent tuples of weight w, in lex order, for w = 0, 1, …, cutoff:
    every one, the top layer's of degree two or more included."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be at least 1")
    d = len(weights)
    layers = [[] for _ in range(cutoff + 1)]
    prefix = [0] * d
    least = [min(weights[pos:]) for pos in range(d)] + [cutoff + 1]

    def rec(pos: int, budget: int):
        # tuples come out in lex order, so every layer fills in lex order
        if budget < least[pos]:  # no room for a later factor
            layers[cutoff - budget].append(tuple(prefix))
            return
        w = weights[pos]
        for a in range(budget // w + 1):
            prefix[pos] = a
            rec(pos + 1, budget - a * w)
        prefix[pos] = 0

    rec(0, cutoff)
    return layers


def enumerate_monomials(weights, cutoff) -> list:
    """All exponent tuples of weight ≤ cutoff, ordered by (weight, lex)."""
    return [m for layer in weight_layers(weights, cutoff) for m in layer]


def key(uea, exponents) -> int:
    """The key of an exponent tuple in ``uea``: its exponents as the digits,
    most significant first, of a number in base cutoff + 1."""
    base, out = uea.cutoff + 1, 0
    for e in exponents:
        if not 0 <= e < base:
            raise ValueError("exponent %r is not a digit in base %d" % (e, base))
        out = out * base + e
    return out


def exponents(uea, mid) -> tuple:
    """The exponent tuple of monomial ``mid`` of ``uea``: its key's digits."""
    base, rest, digits = uea.cutoff + 1, uea.monomials[mid], []
    for _ in range(uea.algebra.dim):
        rest, e = divmod(rest, base)
        digits.append(e)
    if rest:
        raise ValueError("key %r has more than %d digits" % (uea.monomials[mid], len(digits)))
    return tuple(reversed(digits))


def mid_of(uea, exps) -> int:
    """The monomial id of an exponent tuple in ``uea``."""
    return uea.index[key(uea, exps)]


class FullUEA(TruncatedUEA):
    """``TruncatedUEA`` on every monomial of weight ≤ cutoff: the package's
    straightening and matrices on the full model, whose top layer also holds
    the monomials of degree two or more (``skipped`` is 0).  Its keys, last
    factors and factor counts are computed here from the exponent tuples."""

    def __init__(self, algebra, weights, cutoff):
        super().__init__(algebra, weights, cutoff)
        layers = weight_layers(self.weights, cutoff)
        tuples = [m for layer in layers for m in layer]
        self.monomials = [key(self, m) for m in tuples]
        self.weight_of = [w for w, layer in enumerate(layers) for _m in layer]
        self.last = [max((j for j, e in enumerate(m) if e), default=0) for m in tuples]
        self.factors = [sum(m) for m in tuples]
        self.index = {m: t for t, m in enumerate(self.monomials)}
        self.unit = self.index[key(self, (0,) * algebra.dim)]
        self.skipped = 0


def full_model(adapted) -> tuple:
    """(full uea, central ids, basis inverse) of Regular's layer-reversed
    model over the adapted basis ``adapted``."""
    algebra, central_ids, basis_inverse = _reversed_model(adapted)
    return FullUEA(algebra, adapted.weights, adapted.nilpotency_class), central_ids, basis_inverse


def restricted(full, uea, mids) -> list:
    """The monomial ids ``mids`` of the full model ``full`` as ids of
    ``uea``, in the same order, leaving out those ``uea`` skips."""
    keys = (key(uea, exponents(full, m)) for m in mids)
    return [uea.index[k] for k in keys if k in uea.index]


def regular_unpruned(g: LieAlgebra) -> Representation:
    """The faithful module on all monomials of weight <= c, without pruning."""
    uea, _central_ids, basis_inverse = full_model(g.adapted_basis())
    right = uea.right_action_matrices(uea.right_products(), range(len(uea.monomials)))
    mats = _module_action(g.field, basis_inverse, right)
    return Representation(
        g,
        mats,
        {"algorithm": "regular_unpruned", "dim": len(uea.monomials), "side": "right"},
    )


# ---------------------------------------------------------------------------
# the paper's Quotient round on every matrix, the reference for the package


def annihilated_subspace(rep: Representation, gens: list) -> Subspace:
    """S = {v in V : M_x v = 0 for every x in the algebra}, given generators
    ``gens`` of the algebra as unit vectors (``liealg._generators``): the
    relations among the columns of their matrices M_v, whose rows are sifted
    in (matrix, row) order.  The x with M_x S = 0 form a subalgebra, since
    M_[x,y] = [M_x, M_y], and it contains the generators, so it is the whole
    algebra."""
    mats = [rep.matrices[j].cols for v in gens for j in v]
    return relations(rep.field, [{t: mat[l] for t, mat in enumerate(mats) if l in mat}
                                 for l in range(rep.dim)])


def center_image(rep: Representation, center: Subspace) -> Subspace:
    """C = sum over z in the algebra's ``center`` of the column space of M_z."""
    fld = rep.field
    image = Subspace(fld, rep.dim)
    for z in center.sparse.values():
        mz = lincomb(fld, z, rep.matrices)
        for j in sorted(mz.cols):
            image.add(mz.cols[j])
    return image


def reduce_once(rep: Representation, center: Subspace, gens: list) -> tuple:
    """One S/C/W round on every matrix, with the algebra's ``center`` and
    ``_generators`` ``gens``: ``(reduced representation, W's rows)``, the
    rows S's canonical echelon rows that enlarge C, and at a fixpoint (no
    rows) the representation itself."""
    fld = rep.field
    C = center_image(rep, center)
    W = [row for row in annihilated_subspace(rep, gens).sparse.values()
         if C.add(row) is not None]
    if not W:
        return rep, W
    kept, project = coordinate_projection(fld, rep.dim, W)
    n = len(kept)
    mats = [SparseMatrix(fld, n, n, {t: image for t, k in enumerate(kept)
                                     if k in mat.cols and (image := fld.divided(*project(mat.cols[k])))})
            for mat in rep.matrices]
    return Representation(rep.algebra, mats, dict(rep.provenance, algorithm="quotient_step")), W


def iterated_quotient(rep: Representation) -> Representation:
    """``reduce_once`` repeated from ``rep`` until W = 0, with the provenance
    ``algorithm_quotient`` writes."""
    g = rep.algebra
    center, gens = g.center(), _generators(g)[1]
    start, w_dims = rep, []
    while True:
        rep, W = reduce_once(rep, center, gens)
        if not W:
            break
        w_dims.append(len(W))
    return Representation(rep.algebra, list(rep.matrices), {
        "algorithm": "quotient", "dim": rep.dim, "regular_dim": start.dim, "w_dims": w_dims})


def partitions(j: int) -> int:
    """Number of partitions of j, with p(0) = 1."""
    if j < 0:
        raise ValueError("negative argument")
    table = [1] + [0] * j
    for part in range(1, j + 1):
        for total in range(part, j + 1):
            table[total] += table[total - part]
    return table[j]


def nu(d: int, c: int) -> int:
    """The dimension bound sum_{j=0}^{c} C(d-j, c-j) p(j) of the regular module."""
    if c < 0 or d < c:
        raise ValueError("need 0 <= c <= d")
    return sum(comb(d - j, c - j) * partitions(j) for j in range(c + 1))


# ---------------------------------------------------------------------------
# the Pfaff identities of f_n


def pfaff_identity_values(n: int) -> list:
    """The three alternating-sum identities: list of (lhs, rhs) exact pairs."""
    if n < 13:
        raise ValueError("identities are asserted for n >= 13")
    top = (n - 1) // 2

    def a(l):
        return rational(3, comb(l, 2) * comb(2 * l - 1, l - 1))

    lhs1 = sum(
        ((-1) ** (l - 1)) * comb(n - l - 5, l - 2) * a(l) for l in range(3, top + 1)
    )
    rhs1 = rational((n - 7) * (n - 8), (n - 4) * (n - 5))
    lhs2 = sum(((-1) ** l) * comb(n - l - 5, l - 4) * a(l) for l in range(5, top + 1))
    rhs2 = rational(-1, 70) + rational(12 * (n - 8), (n - 2) * (n - 3) * (n - 4) * (n - 5))
    lhs3 = sum(((-1) ** l) * comb(n - l - 3, l - 2) * a(l) for l in range(3, top + 1))
    rhs3 = -rational((n - 5) * (n - 6), (n - 2) * (n - 3))
    return [(lhs1, rhs1), (lhs2, rhs2), (lhs3, rhs3)]


def pfaff_check(n: int) -> list:
    """Indices (1-based) of the failing identities; empty means all hold."""
    return [t + 1 for t, (lhs, rhs) in enumerate(pfaff_identity_values(n)) if lhs != rhs]

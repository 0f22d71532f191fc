"""Nilpotent Lie algebras presented by structure constants.

A ``LieAlgebra`` stores the brackets ``[x_i, x_j]`` for i < j as sparse
coordinate vectors ``{index: coefficient}``, the only vector format used here.
On top of that sit the structural computations every representation algorithm
needs: Jacobi verification, lower central series, center, weight-adapted bases,
quotients by ideals, and the second Betti number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .fields import Field
from .linalg import SparseMatrix, Subspace, coordinate_projection, invert, relations


class NotNilpotentError(ValueError):
    """Raised when an algorithm requiring nilpotency meets a non-nilpotent input."""


class LieAlgebra:
    """A Lie algebra over an exact field, given by its structure constants.

    ``table[(i, j)]`` for i < j maps basis indices k to the coefficient of
    x_k in [x_i, x_j]; antisymmetry is implicit.  The Jacobi identity is
    checked on demand by ``check_jacobi``, which the CLI runs on every file
    input; ``lower_central_series`` and Affine's Z¹ equations assume it, since
    both work from a generating set.
    """

    __slots__ = ("field", "dim", "table")

    def __init__(self, field: Field, dim: int, table: dict):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        # dim 0 only arises as the quotient of an algebra by itself
        clean: dict = {}
        for (i, j), terms in table.items():
            if not (0 <= i < j < dim):
                raise ValueError("bad bracket index pair (%d, %d)" % (i, j))
            for k, c in terms.items():
                if not 0 <= k < dim:
                    raise ValueError("bad bracket target index %d" % k)
                if not field.validate(c):
                    raise ValueError("scalar %r does not belong to %r" % (c, field))
            entry = field.clean(terms)
            if entry:
                clean[(i, j)] = entry
        self.field = field
        self.dim = dim
        self.table = clean

    def bracket(self, x: dict, y: dict) -> dict:
        """[x, y] for sparse coordinate vectors."""
        for vec in (x, y):
            if any(not 0 <= k < self.dim for k in vec):
                raise ValueError("coordinate index outside range(%d)" % self.dim)
        return _bracket(self, x, y)

    def check_jacobi(self) -> list:
        """Return the list of basis triples (i, j, k) violating Jacobi (empty = ok)."""
        one = self.field.one
        bad = []
        for i, j, k in combinations(range(self.dim), 3):
            acc: dict = {}
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                inner = _bracket(self, {a: one}, {b: one})
                for m, f in _bracket(self, inner, {c: one}).items():
                    acc[m] = acc.get(m, 0) + f
            if self.field.clean(acc):
                bad.append((i, j, k))
        return bad

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        # tables hold only canonical nonzero entries and nonempty brackets
        return (other.field, other.dim, other.table) == (self.field, self.dim, self.table)

    def __repr__(self):
        return "LieAlgebra(dim=%d, field=%r, brackets=%d)" % (
            self.dim,
            self.field,
            len(self.table),
        )

    # ------------------------------------------------------------------
    # structure computations

    def lower_central_series(self) -> list:
        """[g¹, g², …, 0] with g¹ = g and g^{m+1} = [g, g^m].

        With g² and the generators V of ``_generators``, g^m is spanned by
        the left-normed commutators of length at least m in V (by Jacobi), so
        g^{m+1} = span [g^m, V].

        Raises NotNilpotentError when V does not generate g or the series
        stabilises above zero.
        """
        fld, d = self.field, self.dim
        cur, gens = _generators(self)
        series = [Subspace.full_space(fld, d), cur]
        while cur.dim > 0:
            nxt = Subspace(fld, d)
            for row in cur.sparse.values():
                for v in gens:
                    entry = _bracket(self, row, v)
                    if entry:
                        nxt.add(entry)
            if nxt.dim == cur.dim:
                raise NotNilpotentError(
                    "lower central series stabilises at dimension %d" % cur.dim
                )
            series.append(nxt)
            cur = nxt
        return series

    def center(self) -> Subspace:
        """{z : [z, x] = 0 for all x}, the relations among the adjoint maps:
        sum_i z_i ad(x_i) = ad(z) = 0."""
        ad: list = [{} for _ in range(self.dim)]  # column maps, ad(x_i) e_j = [x_i, x_j]
        for (i, j), terms in self.table.items():
            ad[i][j] = terms
            ad[j][i] = {k: self.field.neg(c) for k, c in terms.items()}
        return relations(self.field, ad)

    def rewritten(self, vectors, proj: SparseMatrix) -> "LieAlgebra":
        """The algebra on basis b_t = ``vectors[t]`` (sparse vectors) with
        [b_i, b_j] = P([b_i, b_j]) for the SparseMatrix P = ``proj``."""
        table: dict = {}
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                entry = proj.apply_sparse(self.bracket(vectors[i], vectors[j]))
                if entry:
                    table[(i, j)] = entry
        return LieAlgebra(self.field, len(vectors), table)

    def adapted_basis(self) -> "AdaptedBasis":
        return _adapted_basis(self)

    def quotient(self, ideal: Subspace):
        return _quotient(self, ideal)

    def betti2(self) -> int:
        return _betti2(self)


def _bracket(g: LieAlgebra, x: dict, y: dict) -> dict:
    """[x, y] = sum over b, a of y[b] x[a] [x_a, x_b] in g, read off
    ``g.table``; the indices are not checked."""
    table = g.table
    acc: dict = {}
    for b, fb in y.items():
        for a, fa in x.items():
            if a < b:
                terms, s = table.get((a, b)), fa * fb
            elif b < a:
                terms, s = table.get((b, a)), -fa * fb
            else:
                continue
            if terms:
                for k, c in terms.items():
                    acc[k] = acc.get(k, 0) + s * c
    return g.field.clean(acc)


def _derived(g: LieAlgebra) -> Subspace:
    """g² = [g, g], the span of the table's values."""
    derived = Subspace(g.field, g.dim)
    for terms in g.table.values():
        derived.add(terms)
    return derived


def _generators(g: LieAlgebra) -> tuple:
    """``(g², V)``: ``_derived(g)`` and the unit vectors V off its pivot
    columns, a complement.  In a nilpotent g every complement of g²
    generates g, so raise NotNilpotentError unless the ad(V)-closure of V,
    built layer by layer, is all of g."""
    fld, d = g.field, g.dim
    derived = _derived(g)
    gens = [{j: fld.one} for j in range(d) if j not in derived.sparse]
    generated = Subspace(fld, d)
    todo = deque(v for v in gens if generated.add(v) is not None)
    while todo and generated.dim < d:
        x = todo.popleft()
        for v in gens:
            entry = _bracket(g, x, v)
            if entry and generated.add(entry) is not None:
                todo.append(entry)
    if generated.dim < d:
        raise NotNilpotentError("the complement of [g, g] generates a subalgebra of "
                                "dimension %d < %d" % (generated.dim, d))
    return derived, gens


def abelian_algebra(field: Field, dim: int) -> LieAlgebra:
    return LieAlgebra(field, dim, {})


# ---------------------------------------------------------------------------
# adapted bases


@dataclass(frozen=True)
class AdaptedBasis:
    """A weight-ordered basis containing bases of every g^m and of the center.

    ``matrix`` holds the new basis vectors as sparse rows in the original
    coordinates, non-decreasing in weight, and ``inverse`` the sparse rows of
    the inverse matrix; ``weights[k]`` is the largest m with the k-th vector
    in g^m; ``central_flags[k]`` marks vectors that lie in Z(g).
    ``algebra`` is the input algebra rewritten in this basis.
    """

    matrix: tuple
    inverse: tuple
    weights: tuple
    central_flags: tuple
    algebra: LieAlgebra

    @property
    def nilpotency_class(self) -> int:
        return self.weights[-1] if self.weights else 0


def _adapted_basis(g: LieAlgebra) -> AdaptedBasis:
    """Build the deterministic weight-adapted basis.

    Layers are processed top weight first, all sifted into one ``spanned``,
    which spans g^{m+1} when layer m starts: the echelon basis of Z(g) ∩ g^m
    (``_central_part``) first (these vectors are flagged central), then the
    original basis vectors lying in g^m in index order, then the echelon
    basis of g^m itself, which adds only what the originals leave out.
    """
    fld = g.field
    series = g.lower_central_series()  # raises when not nilpotent
    c = len(series) - 1
    center = g.center()
    layers: list = []  # (weight, vector, central_flag), weight descending
    spanned = Subspace(fld, g.dim)
    for m in range(c, 0, -1):
        gm = series[m - 1]
        layer = []
        for row in _central_part(center, gm).sparse.values():
            if spanned.add(row) is not None:
                layer.append((m, row, True))
        for idx in range(g.dim):
            row = {idx: fld.one}
            if gm.reduce(row):
                continue
            if spanned.add(row) is not None:
                layer.append((m, row, False))
        for row in gm.sparse.values():  # dependent once the originals span the layer
            if spanned.add(row) is not None:
                layer.append((m, row, False))
        layers.append(layer)
    ordered = [item for layer in reversed(layers) for item in layer]
    if len(ordered) != g.dim:
        raise RuntimeError("adapted basis has %d vectors, expected %d" % (len(ordered), g.dim))
    matrix = tuple(dict(vec) for (_m, vec, _z) in ordered)
    weights = tuple(m for (m, _v, _z) in ordered)
    flags = tuple(z for (_m, _v, z) in ordered)
    inverse = invert(matrix, fld)
    # column k of to_new is row k of the inverse, so to_new maps a vector in
    # original coordinates to its coordinates on the new basis
    to_new = SparseMatrix(fld, g.dim, g.dim, dict(enumerate(inverse)))
    return AdaptedBasis(matrix, inverse, weights, flags, g.rewritten(matrix, to_new))


def _central_part(center: Subspace, gm: Subspace) -> Subspace:
    """Z(g) ∩ g^m: the sums Σ y_r z_r over the echelon rows z_r of ``center``
    for the relations y among their residuals against ``gm``, since a vector
    lies in g^m exactly when its residual vanishes."""
    fld, rows = center.field, list(center.sparse.values())
    combine = SparseMatrix(fld, center.ambient, len(rows), dict(enumerate(rows)))
    out = Subspace(fld, center.ambient)
    for y in relations(fld, [{0: gm.reduce(z)} for z in rows]).sparse.values():
        out.add(combine.apply_sparse(y))
    return out


# ---------------------------------------------------------------------------
# quotients


def _is_ideal(g: LieAlgebra, sub: Subspace) -> bool:
    """Whether [sub, V] ⊆ sub for the generators V of ``_generators``, which
    is [sub, g] ⊆ sub: by Jacobi, [[x, y], i] = [x, [y, i]] - [y, [x, i]], so
    the x with [x, sub] ⊆ sub form a subalgebra, and it contains V."""
    gens = _generators(g)[1]
    for row in sub.sparse.values():
        for v in gens:
            if sub.reduce(_bracket(g, row, v)):
                return False
    return True


def _quotient(g: LieAlgebra, ideal: Subspace):
    """Quotient algebra g/ideal on the kept unit vectors of
    ``coordinate_projection``, plus the projection as a SparseMatrix (column
    i: the image of e_i)."""
    if ideal.field != g.field or ideal.ambient != g.dim:
        raise ValueError("ideal does not live in this algebra")
    if not _is_ideal(g, ideal):
        raise ValueError("subspace is not an ideal")
    kept, project = coordinate_projection(g.field, g.dim, ideal.sparse.values())
    one = g.field.one
    proj = SparseMatrix(g.field, len(kept), g.dim,
                        {j: col for j in range(g.dim) if (col := project({j: one}))})
    return g.rewritten([{k: one} for k in kept], proj), proj


# ---------------------------------------------------------------------------
# cohomology


def _betti2(g: LieAlgebra) -> int:
    """dim H²(g, K) with trivial coefficients: dim Z² − dim B².

    2-cochains are alternating maps Λ²g → K with coordinates ω_{ij} (i < j);
    the cocycle condition is ω([x,y],z) + ω([y,z],x) + ω([z,x],y) = 0 and the
    coboundary of φ ∈ g* is dφ(x,y) = −φ([x,y]).  Its kernel is the
    annihilator of [g, g], so dim B² = dim g − dim ker d = dim [g, g], the
    dimension of the span of the table's values.
    """
    fld = g.field
    d = g.dim
    pair_index = {}
    for i in range(d):
        for j in range(i + 1, d):
            pair_index[(i, j)] = len(pair_index)
    npairs = len(pair_index)

    def add_pair(row: dict, a: int, b: int, coeff):
        if a == b:
            return
        if a < b:
            row[pair_index[(a, b)]] = row.get(pair_index[(a, b)], 0) + coeff
        else:
            row[pair_index[(b, a)]] = row.get(pair_index[(b, a)], 0) - coeff

    conditions = Subspace(fld, npairs)
    for i, j, k in combinations(range(d), 3):
        row: dict = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for l, f in _bracket(g, {a: fld.one}, {b: fld.one}).items():
                add_pair(row, l, c, f)
        row = fld.clean(row)
        if row:
            conditions.add(row)
    return npairs - conditions.dim - _derived(g).dim

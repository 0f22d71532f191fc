"""Nilpotent Lie algebras presented by structure constants.

A ``LieAlgebra`` stores the brackets ``[x_i, x_j]`` for i < j as sparse
coordinate vectors ``{index: coefficient}``, the only vector format used here.
On top of that sit the structural computations every representation algorithm
needs: Jacobi verification, lower central series, center and weight-adapted
bases.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .fields import Field
from .linalg import SparseMatrix, Subspace, closure, combine, descending_chain, invert, relations


class NotNilpotentError(ValueError):
    """Raised when an algorithm requiring nilpotency meets a non-nilpotent input."""


class LieAlgebra:
    """A Lie algebra over an exact field, given by its structure constants.

    ``table[(i, j)]`` for i < j maps basis indices k to the coefficient of
    x_k in [x_i, x_j]; antisymmetry is implicit.  The Jacobi identity is
    checked on demand by ``check_jacobi``, which the CLI runs on every file
    input; ``lower_central_series`` and Affine's Z¹ equations assume it, since
    both work from a generating set.  Nothing changes ``table`` after
    construction, so ``adapted_basis`` is built once per algebra.
    """

    __slots__ = ("field", "dim", "table", "_adapted")

    def __init__(self, field: Field, dim: int, table: dict):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        # dim 0 is the zero algebra, as built by abelian_algebra(field, 0)
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
        self._adapted = None  # adapted_basis's fields, without ``source``

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
        g^{m+1} = span [g^m, V]: the series past g is
        ``linalg.descending_chain`` from g² under ad(V).

        Raises NotNilpotentError when V does not generate g or the series
        stabilises above zero.
        """
        derived, _gens, ad = _generators(self)
        chain = descending_chain(derived, ad)
        if chain[-1].dim:
            raise NotNilpotentError("lower central series stabilises at dimension %d"
                                    % chain[-1].dim)
        return [Subspace.full_space(self.field, self.dim)] + chain

    def center(self) -> Subspace:
        """{z : [z, x] = 0 for all x}, the relations among the adjoint maps:
        sum_i z_i ad(x_i) = ad(z) = 0."""
        return relations(self.field, [ad.cols for ad in _adjoint(self)])

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
        """The weight-adapted basis, built on the first call.  The memo holds
        every field but ``source``, which is the algebra itself: storing the
        ``AdaptedBasis`` would make a reference cycle, which lives until the
        garbage collector runs."""
        if self._adapted is None:
            self._adapted = _adapted_basis(self)[:-1]
        return AdaptedBasis(*self._adapted, self)


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


def _adjoint(g: LieAlgebra) -> list:
    """The SparseMatrix ad(x_i) of every basis vector: ad(x_i) e_j = [x_i, x_j]."""
    fld, d = g.field, g.dim
    ad = [SparseMatrix(fld, d, d) for _ in range(d)]
    for (i, j), terms in g.table.items():
        ad[i].cols[j] = terms
        ad[j].cols[i] = {k: fld.neg(c) for k, c in terms.items()}
    return ad


def _generators(g: LieAlgebra) -> tuple:
    """``(g², V, ad(V))``: g² = [g, g], the span of the table's values, the
    unit vectors V off its pivot columns, a complement, and the SparseMatrix
    ad(v) of each v in V.  In a nilpotent g every complement of g² generates
    g, so raise NotNilpotentError unless ``linalg.closure`` of V under ad(V),
    the subalgebra V generates, is all of g."""
    fld, d = g.field, g.dim
    derived = Subspace(fld, d)
    for terms in g.table.values():
        derived.add(terms)
    gens = [{j: fld.one} for j in range(d) if j not in derived.sparse]
    ad = _adjoint(g)
    ad_gens = [ad[j] for v in gens for j in v]
    generated = closure(fld, d, gens, ad_gens).dim
    if generated < d:
        raise NotNilpotentError("the complement of [g, g] generates a subalgebra of "
                                "dimension %d < %d" % (generated, d))
    return derived, gens, ad_gens


def abelian_algebra(field: Field, dim: int) -> LieAlgebra:
    return LieAlgebra(field, dim, {})


# ---------------------------------------------------------------------------
# adapted bases


class AdaptedBasis(NamedTuple):
    """A weight-ordered basis containing bases of every g^m and of the center.

    ``matrix`` holds the new basis vectors as sparse rows in the original
    coordinates, non-decreasing in weight, and ``inverse`` the sparse rows of
    the inverse matrix; ``weights[k]`` is the largest m with the k-th vector
    in g^m; ``central_flags[k]`` marks vectors that lie in Z(g).
    ``algebra`` is the input algebra ``source`` rewritten in this basis.
    """

    matrix: tuple
    inverse: tuple
    weights: tuple
    central_flags: tuple
    algebra: LieAlgebra
    source: LieAlgebra

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
    return AdaptedBasis(matrix, inverse, weights, flags, g.rewritten(matrix, to_new), g)


def _central_part(center: Subspace, gm: Subspace) -> Subspace:
    """Z(g) ∩ g^m: the sums Σ y_r z_r over the echelon rows z_r of ``center``
    for the relations y among their residuals against ``gm``, since a vector
    lies in g^m exactly when its residual vanishes."""
    fld, rows = center.field, dict(enumerate(center.sparse.values()))
    out = Subspace(fld, center.ambient)
    for y in relations(fld, [{0: gm.reduce(z)} for z in rows.values()]).sparse.values():
        out.add(combine(fld, y, rows))
    return out

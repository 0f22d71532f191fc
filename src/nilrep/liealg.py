"""Nilpotent Lie algebras presented by structure constants.

A ``LieAlgebra`` stores the brackets ``[x_i, x_j]`` for i < j as sparse
coordinate vectors.  On top of that sit the structural computations every
representation algorithm needs: Jacobi verification, lower central series,
center, weight-adapted bases, one-dimensional refinements of the series,
quotients by ideals, and the second Betti number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .fields import Field
from .linalg import (
    SparseEliminator,
    Subspace,
    complement_in,
    intersect,
    invert,
)


class NotNilpotentError(ValueError):
    """Raised when an algorithm requiring nilpotency meets a non-nilpotent input."""


class LieAlgebra:
    """A Lie algebra over an exact field, given by its structure constants.

    ``table[(i, j)]`` for i < j maps basis indices k to the coefficient of
    x_k in [x_i, x_j]; antisymmetry is implicit and the Jacobi identity is
    checked on demand, not assumed.
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
            entry = {}
            for k, c in terms.items():
                if not 0 <= k < dim:
                    raise ValueError("bad bracket target index %d" % k)
                c = field.canon(c)
                if c != 0:
                    entry[k] = c
            if entry:
                clean[(i, j)] = entry
        self.field = field
        self.dim = dim
        self.table = clean

    def bracket_basis(self, i: int, j: int) -> dict:
        """[x_i, x_j] as a sparse coordinate vector."""
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        fld = self.field
        return {k: fld.neg(c) for k, c in self.table.get((j, i), {}).items()}

    def bracket(self, x: Sequence, y: Sequence) -> list:
        """Bilinear extension of the table to coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        fld = self.field
        acc: dict = {}
        for (i, j), terms in self.table.items():
            f = x[i] * y[j] - x[j] * y[i]
            if fld.is_zero(f):
                continue
            for k, c in terms.items():
                acc[k] = acc.get(k, 0) + f * c
        out = [fld.zero] * self.dim
        for k, v in acc.items():
            out[k] = fld.canon(v)
        return out

    def bracket_with_basis(self, x_sparse: dict, j: int) -> dict:
        """[v, x_j] for a sparse vector v, as a sparse vector."""
        fld = self.field
        acc: dict = {}
        for i, f in x_sparse.items():
            if i == j:
                continue
            for k, c in self.bracket_basis(i, j).items():
                acc[k] = acc.get(k, 0) + f * c
        return {k: fld.canon(v) for k, v in acc.items() if not fld.is_zero(v)}

    def check_jacobi(self) -> list:
        """Return the list of basis triples (i, j, k) violating Jacobi (empty = ok)."""
        fld = self.field
        bad = []
        for i, j, k in combinations(range(self.dim), 3):
            acc: dict = {}
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket_basis(a, b)
                for l, f in inner.items():
                    for m, g in self.bracket_basis(l, c).items():
                        acc[m] = acc.get(m, 0) + f * g
            if any(not fld.is_zero(v) for v in acc.values()):
                bad.append((i, j, k))
        return bad

    def is_abelian(self) -> bool:
        return not self.table

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        if other.field != self.field or other.dim != self.dim:
            return False
        keys = set(self.table) | set(other.table)
        for key in keys:
            a = self.table.get(key, {})
            b = other.table.get(key, {})
            if set(a) != set(b):
                return False
            if any(a[k] != b[k] for k in a):
                return False
        return True

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

        Raises NotNilpotentError when the series stabilises above zero.
        """
        fld = self.field
        cur = Subspace.full_space(fld, self.dim)
        series = [cur]
        while cur.dim > 0:
            gens = []
            for row in cur.rows:
                sparse = {i: x for i, x in enumerate(row) if x != 0}
                for j in range(self.dim):
                    img = self.bracket_with_basis(sparse, j)
                    if img:
                        gens.append([img.get(t, fld.zero) for t in range(self.dim)])
            nxt = Subspace.from_vectors(fld, self.dim, gens)
            if nxt.dim == cur.dim:
                raise NotNilpotentError(
                    "lower central series stabilises at dimension %d" % cur.dim
                )
            series.append(nxt)
            cur = nxt
        return series

    @property
    def nilpotency_class(self) -> int:
        return len(self.lower_central_series()) - 1

    def center(self) -> Subspace:
        """{z : [z, x] = 0 for all x}, the kernel of the stacked adjoint maps."""
        elim = SparseEliminator(self.field, self.dim)
        # constraint rows: for each basis j and target k, sum_i z_i c_{ij}^k = 0
        rows: dict = {}
        for (i, j), terms in self.table.items():
            for k, c in terms.items():
                rows.setdefault((j, k), {})[i] = c
                rows.setdefault((i, k), {})[j] = self.field.neg(c)
        for key in sorted(rows):
            elim.add(rows[key])
        return elim.kernel()

    def adapted_basis(self) -> "AdaptedBasis":
        return _adapted_basis(self)

    def refined_central_series(self) -> "CentralSeries":
        return _refined_central_series(self)

    def quotient(self, ideal: Subspace):
        return _quotient(self, ideal)

    def betti2(self) -> int:
        return _betti2(self)


def abelian_algebra(field: Field, dim: int) -> LieAlgebra:
    return LieAlgebra(field, dim, {})


# ---------------------------------------------------------------------------
# adapted bases


@dataclass(frozen=True)
class AdaptedBasis:
    """A weight-ordered basis containing bases of every g^m and of the center.

    ``matrix`` rows are the new basis vectors in the original coordinates,
    non-decreasing in weight; ``weights[k]`` is the largest m with the k-th
    vector in g^m; ``central_flags[k]`` marks vectors that lie in Z(g).
    ``algebra`` is the input algebra rewritten in this basis.
    """

    original: LieAlgebra
    matrix: tuple
    inverse: tuple
    weights: tuple
    central_flags: tuple
    algebra: LieAlgebra

    @property
    def nilpotency_class(self) -> int:
        return self.weights[-1] if self.weights else 0


def _vec_mat(vec: Sequence, mat: tuple, fld: Field) -> list:
    out = [fld.zero] * len(mat[0])
    for i, f in enumerate(vec):
        if f == 0:
            continue
        row = mat[i]
        for j, x in enumerate(row):
            if x != 0:
                out[j] = out[j] + f * x
    return [fld.canon(v) for v in out]


def _adapted_basis(g: LieAlgebra) -> AdaptedBasis:
    """Build the deterministic weight-adapted basis.

    Layers are processed top weight first.  Inside layer m the echelon basis
    of Z(g) ∩ g^m is sifted first (these vectors are flagged central), then
    the original basis vectors lying in g^m in index order, then -- only when
    the originals do not suffice -- the echelon basis of g^m itself.
    """
    fld = g.field
    series = g.lower_central_series()  # raises when not nilpotent
    c = len(series) - 1
    center = g.center()
    identity = Subspace.full_space(fld, g.dim)
    layers: list = []  # (weight, vector, central_flag), weight ascending
    for m in range(1, c + 1):
        gm = series[m - 1]
        gm1 = series[m] if m < len(series) else Subspace.zero_space(fld, g.dim)
        elim = SparseEliminator(fld, g.dim)
        for row in gm1.rows:
            elim.add({j: x for j, x in enumerate(row) if x != 0})
        layer = []
        zm = intersect(center, gm) if m > 1 else center
        for row in zm.rows:
            if elim.add({j: x for j, x in enumerate(row) if x != 0}) is not None:
                layer.append((m, row, True))
        for idx in range(g.dim):
            row = identity.rows[idx]
            if not gm.contains(row):
                continue
            if elim.add({idx: fld.one}) is not None:
                layer.append((m, row, False))
        if len(layer) + gm1.dim < gm.dim:
            for row in gm.rows:  # original vectors did not span the layer
                if elim.add({j: x for j, x in enumerate(row) if x != 0}) is not None:
                    layer.append((m, row, False))
        layers.append(layer)
    ordered = [item for layer in layers for item in layer]
    assert len(ordered) == g.dim
    matrix = tuple(tuple(fld.canon(x) for x in vec) for (_m, vec, _z) in ordered)
    weights = tuple(m for (m, _v, _z) in ordered)
    flags = tuple(z for (_m, _v, z) in ordered)
    inverse = tuple(tuple(r) for r in invert(matrix, fld))
    table: dict = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            br = g.bracket(matrix[i], matrix[j])
            coords = _vec_mat(br, inverse, fld)
            entry = {k: v for k, v in enumerate(coords) if v != 0}
            if entry:
                table[(i, j)] = entry
    rewritten = LieAlgebra(fld, g.dim, table)
    return AdaptedBasis(g, matrix, inverse, weights, flags, rewritten)


@dataclass(frozen=True)
class CentralSeries:
    """A central series with one-dimensional steps.

    ``vectors[i]`` is a_{i+1} in original coordinates; ``chain[i]`` is
    g_i = span(a_{i+1}, …, a_d), so chain[0] = g and chain[d] = 0, and
    [g, g_i] ⊆ g_{i+1} holds for every i.
    """

    algebra: LieAlgebra
    vectors: tuple
    chain: tuple


def _refined_central_series(g: LieAlgebra) -> CentralSeries:
    """Refine the lower central series by the adapted basis, one step per vector."""
    adapted = g.adapted_basis()
    fld = g.field
    vectors = adapted.matrix
    chain = []
    for i in range(g.dim + 1):
        chain.append(Subspace.from_vectors(fld, g.dim, vectors[i:]))
    series = CentralSeries(g, vectors, tuple(chain))
    for i in range(g.dim):
        nxt = series.chain[i + 1]
        sparse = {t: x for t, x in enumerate(vectors[i]) if x != 0}
        for j in range(g.dim):
            img = g.bracket_with_basis(sparse, j)
            vec = [img.get(t, fld.zero) for t in range(g.dim)]
            assert nxt.contains(vec), "central series condition failed at step %d" % i
    return series


# ---------------------------------------------------------------------------
# quotients


def _is_ideal(g: LieAlgebra, sub: Subspace) -> bool:
    fld = g.field
    for row in sub.rows:
        sparse = {i: x for i, x in enumerate(row) if x != 0}
        for j in range(g.dim):
            img = g.bracket_with_basis(sparse, j)
            if not sub.contains([img.get(t, fld.zero) for t in range(g.dim)]):
                return False
    return True


def _quotient(g: LieAlgebra, ideal: Subspace):
    """Quotient algebra g/ideal plus the projection matrix (rows: images of e_i)."""
    if ideal.field != g.field or ideal.ambient != g.dim:
        raise ValueError("ideal does not live in this algebra")
    if not _is_ideal(g, ideal):
        raise ValueError("subspace is not an ideal")
    fld = g.field
    comp = complement_in(ideal, Subspace.full_space(fld, g.dim))
    basis = list(comp.rows)
    k = len(basis)
    if k == 0:
        zero_proj = tuple(() for _ in range(g.dim))
        return LieAlgebra(fld, 0, {}), zero_proj
    # coordinates relative to (basis | ideal): full-rank square system
    combined = basis + list(ideal.rows)
    inv = invert(combined, fld)

    def project(vec):
        coords = _vec_mat(vec, tuple(tuple(r) for r in inv), fld)
        return coords[:k]

    table: dict = {}
    for i in range(k):
        for j in range(i + 1, k):
            br = g.bracket(basis[i], basis[j])
            entry = {t: v for t, v in enumerate(project(br)) if v != 0}
            if entry:
                table[(i, j)] = entry
    proj = tuple(tuple(project([fld.one if t == idx else fld.zero for t in range(g.dim)]))
                 for idx in range(g.dim))
    return LieAlgebra(fld, k, table), proj


# ---------------------------------------------------------------------------
# cohomology


def _betti2(g: LieAlgebra) -> int:
    """dim H²(g, K) with trivial coefficients: dim Z² − dim B².

    2-cochains are alternating maps Λ²g → K with coordinates ω_{ij} (i < j);
    the cocycle condition is ω([x,y],z) + ω([y,z],x) + ω([z,x],y) = 0 and the
    coboundary of φ ∈ g* is dφ(x,y) = −φ([x,y]).
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

    elim = SparseEliminator(fld, npairs)
    for i, j, k in combinations(range(d), 3):
        row: dict = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for l, f in g.bracket_basis(a, b).items():
                add_pair(row, l, c, f)
        row = {t: fld.canon(v) for t, v in row.items() if not fld.is_zero(v)}
        if row:
            elim.add(row)
    dim_z2 = npairs - elim.rank

    belim = SparseEliminator(fld, npairs)
    for l in range(d):
        row = {}
        for (i, j), terms in g.table.items():
            if l in terms:
                row[pair_index[(i, j)]] = fld.neg(terms[l])
        if row:
            belim.add(row)
    dim_b2 = belim.rank
    return dim_z2 - dim_b2

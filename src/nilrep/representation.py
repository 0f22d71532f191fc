"""Representations of a Lie algebra and exact verification of their properties.

A ``Representation`` stores one sparse matrix per basis vector of the input
algebra, always relative to the algebra's original basis (algorithms that work
in an adapted basis convert before emitting).  Matrices act on column vectors,
so the defining relation is [M_i, M_j] = sum_k c_{ij}^k M_k.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .liealg import LieAlgebra
from .linalg import Subspace, is_nilpotent, lincomb, relations


class Representation:
    """Matrices for every basis vector of ``algebra`` acting on K^dim.

    Mutable (a caller may replace ``provenance``), so it is compared by value
    and unhashable."""

    __slots__ = ("algebra", "matrices", "provenance")
    __hash__ = None

    def __init__(self, algebra: LieAlgebra, matrices: list, provenance: Optional[dict] = None):
        self.algebra = algebra
        self.matrices = matrices
        self.provenance = {} if provenance is None else provenance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.algebra, self.matrices, self.provenance)
                == (other.algebra, other.matrices, other.provenance))

    @property
    def dim(self) -> int:
        return self.matrices[0].nrows if self.matrices else 0

    @property
    def field(self):
        return self.algebra.field

    def __repr__(self):
        return "Representation(dim=%d, algebra_dim=%d, provenance=%r)" % (
            self.dim,
            self.algebra.dim,
            self.provenance.get("algorithm"),
        )


_NO_ENTRIES: dict = {}  # read-only default column


def homomorphism_failure(rep: Representation) -> Optional[Tuple[int, int]]:
    """First pair (i, j) with [M_i, M_j] != sum_k c_{ij}^k M_k, or None.

    The test runs in integer arithmetic.  ``Field.integral_maps`` gives λ,
    the denominator lcm of all matrix entries, and μ, that of all structure
    constants: N_l = λ M_l and μ c_{ij}^k are integral, and μ [N_i, N_j] - λ Σ_k (μ c_{ij}^k) N_k is
    λ²μ times the defect of the pair.  Each pair is checked one column at a
    time and stops at the first nonzero one; over F_p, λ = μ = 1 and the
    field's ``clean`` takes the residues.  A pair without structure constants
    is skipped when neither product can be nonzero: the columns of N_i miss
    the rows N_j hits, and vice versa.
    """
    g, fld = rep.algebra, rep.field
    mats, lam = fld.integral_maps([mat.cols for mat in rep.matrices])
    (table,), mu = fld.integral_maps([g.table])
    hit = [set().union(*mat.values()) for mat in mats]  # rows hit by N_l
    for i in range(g.dim):
        a = mats[i]
        for j in range(i + 1, g.dim):
            b = mats[j]
            bracket = table.get((i, j), {})
            if not bracket and a.keys().isdisjoint(hit[j]) and b.keys().isdisjoint(hit[i]):
                continue  # N_i N_j = N_j N_i = 0 by support alone
            terms = [(mats[k], lam * c) for k, c in bracket.items()]
            products = ((a, b, mu), (b, a, -mu))
            for col in set().union(a, b, *(n for n, _f in terms)):
                # μ N_i N_j e_col - μ N_j N_i e_col - Σ_k λ μ c_{ij}^k N_k e_col
                acc: dict = {}
                for first, second, sign in products:
                    for r, x in second.get(col, _NO_ENTRIES).items():
                        image = first.get(r)
                        if image:
                            f = sign * x
                            for s, y in image.items():
                                acc[s] = acc.get(s, 0) + f * y
                for n, f in terms:
                    for s, y in n.get(col, _NO_ENTRIES).items():
                        acc[s] = acc.get(s, 0) - f * y
                if acc and fld.clean(acc):
                    return (i, j)
    return None


def is_homomorphism(rep: Representation) -> bool:
    return homomorphism_failure(rep) is None


def kernel(rep: Representation) -> Subspace:
    """{x in g : sum_l x_l M_l = 0}, the kernel of the representation."""
    return relations(rep.field, [mat.cols for mat in rep.matrices])


def is_faithful(rep: Representation) -> bool:
    return kernel(rep).dim == 0


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


def verify_report(rep: Representation) -> dict:
    """Full verification used by the CLI: homomorphism, faithfulness, nilpotency."""
    failure = homomorphism_failure(rep)
    faithful = is_faithful(rep)
    nilpotent = all(is_nilpotent(m) for m in rep.matrices)
    return {
        "homomorphism": "ok" if failure is None else "fail(%d,%d)" % failure,
        "faithful": faithful,
        "nilpotent_matrices": nilpotent,
        "ok": failure is None and faithful and nilpotent,
    }

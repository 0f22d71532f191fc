"""Helpers that only the tests use: dense matrices, matrix products,
subspace intersections and plain JSON files.

The package holds matrices and subspaces sparse and writes representation
files itself; tests state small matrices and spans densely, check matrix
identities through products, intersect subspaces by Zassenhaus' method,
and save algebra objects, sometimes corrupted on purpose, as ordinary JSON.
"""

import json
import random

from nilrep.fields import Field
from nilrep.liealg import LieAlgebra
from nilrep.linalg import SparseMatrix, Subspace, invert


def to_dense(mat: SparseMatrix) -> list:
    """The rows of a sparse matrix as dense lists."""
    zero = mat.field.zero
    rows = [[zero] * mat.ncols for _ in range(mat.nrows)]
    for j, col in mat.cols.items():
        for i, x in col.items():
            rows[i][j] = x
    return rows


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

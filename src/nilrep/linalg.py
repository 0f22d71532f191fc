"""Exact linear algebra over the rationals and prime fields.

Every elimination goes through one class: ``Subspace``, the span of the
sparse rows ``{column: value}`` added to it, kept as an incremental reduced
row echelon form.  Over Q it stores each basis row as a primitive integer
vector (content 1, positive pivot entry) and eliminates fraction-free on
ints; over F_p a stored row has pivot entry 1.  The arithmetic of that
elimination is ``Field``'s (``integral``, ``eliminate``, ``primitive`` and
``divided``), so this module never tells F_p from Q; ``Subspace`` keeps the
echelon bookkeeping.  ``sparse`` is still the canonical rational RREF and
``reduce`` the exact canonical residual.  Sparse rows are the only vector
format.  A ``Subspace`` answers membership and residuals, exact or as
ints times a scale, and gives the kernel vectors of its rows.  On it build
``coordinate_projection`` (a vector reduced against the span of some rows,
relabelled onto a coordinate complement), ``relations`` (the linear
relations among matrices, read off one sweep of their rows with the
columns reversed), ``closure`` (the smallest subspace holding some vectors
and stable under some matrices: Dual's spin and the check that generators
generate) and ``invert``, which reads an inverse off the tag columns of
``[A | I]``.  Neither a complement
nor an intersection needs a helper: the echelon rows of a subspace that
enlarge a ``Subspace`` as they are sifted in span a complement and are
echelon themselves, and the vectors of a subspace that lie in another are
the relations among their residuals against it.
Enveloping-algebra actions and representations are column-oriented
``SparseMatrix`` objects.  Every sparse sum of vectors is one ``combine``
(a matrix applied to a vector among them), every sum of matrices one
``lincomb`` pass, and ``is_nilpotent`` peels the acyclic ends off a matrix's
support before it runs any arithmetic on what is left.  Dense matrices exist
only in the file format (``fileio``).
"""

from __future__ import annotations

from collections import deque
from math import lcm
from typing import Iterator, Optional, Sequence

from .fields import Field


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of K^n held as a reduced row echelon basis of the sparse
    rows added to it.

    Each basis row is stored in primitive form: over Q an integer vector
    with content 1 and a positive pivot entry, over F_p the row with pivot
    entry 1.  ``add`` clears the denominators of an incoming row once
    (``Field.integral``), reduces it fraction-free against the basis rows
    (``Field.eliminate``), and on a nonzero residual makes it primitive
    (``Field.primitive``), back-eliminates its pivot from the existing rows
    the same way (each changed row made primitive again) and registers it.
    The rows vanish on each other's pivot columns, so each divided by its
    pivot entry (``Field.divided``) is a row of the canonical RREF of the
    rows added so far.  ``sparse`` maps each pivot column to a copy of that
    row, in pivot order, rebuilt in full on the first read after an ``add``
    that grew the basis; ``pivots`` lists the pivot columns.  Both are read
    only.  ``reduce`` returns the exact canonical residual.  A subspace
    grows as rows are added, so it does not hash.
    """

    __slots__ = ("field", "ambient", "_rows", "_touch", "_sorted")

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self._rows: dict[int, dict] = {}  # pivot col -> primitive row, in the order added
        self._touch: dict[int, set] = {}  # col -> pivot cols whose row hits col
        self._sorted: Optional[dict] = {}  # canonical rows in pivot order, None when stale

    @classmethod
    def full_space(cls, field: Field, ambient: int) -> "Subspace":
        space = cls(field, ambient)
        for i in range(ambient):
            space.add({i: field.one})
        return space

    @property
    def sparse(self) -> dict:
        if self._sorted is None:
            self._sorted = {}
            for pc in sorted(self._rows):
                row = self._rows[pc]
                # a copy: back-elimination changes the stored rows in place
                self._sorted[pc] = self.field.divided(dict(row), row[pc])
        return self._sorted

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self._rows))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def primitive_row(self, pc: int) -> dict:
        """A copy of the basis row with pivot column ``pc`` in primitive form,
        the nonzero multiple of ``sparse[pc]`` that is stored: over Q an
        integer vector with content 1 and a positive pivot entry."""
        return dict(self._rows[pc])

    def scaled_residual(self, row: dict) -> tuple:
        """``(v, s)``: s > 0 times the residual of a sparse row against the
        basis, integral over Q; s = 1 over F_p.  The row is not mutated."""
        v, s = self.field.integral(row)
        rows = self._rows
        return v, s * self.field.eliminate(v, [c for c in v if c in rows], rows)

    def reduce(self, row: dict) -> dict:
        """The exact residual of a sparse row against the canonical basis,
        with canonical entries; empty exactly when the row lies in the
        subspace.  The row is not mutated."""
        return self.field.divided(*self.scaled_residual(row))

    def contains(self, vec: Sequence) -> bool:
        return not self.reduce({j: x for j, x in enumerate(vec) if x != 0})

    def add(self, row: dict) -> Optional[int]:
        """Sift a row in; return its pivot column, or None if dependent."""
        v, _s = self.scaled_residual(row)
        if not v:
            return None
        piv = min(v)
        fld = self.field
        fld.primitive(v, piv)
        # back-eliminate the new pivot from existing rows; besides a common
        # factor, only the columns of v change in them
        rows, touch = self._rows, self._touch
        new = {piv: v}
        for pc in list(touch.get(piv, ())):
            prow = rows[pc]
            fld.eliminate(prow, (piv,), new)
            fld.primitive(prow, pc)
            for j in v:
                if j in prow:
                    touch.setdefault(j, set()).add(pc)
                else:
                    touch[j].discard(pc)
        rows[piv] = v
        for j in v:
            touch.setdefault(j, set()).add(piv)
        self._sorted = None
        return piv

    def kernel_vectors(self) -> Iterator[dict]:
        """One vector per free column f of the matrix whose rows were added,
        in increasing f: e_f - sum over the basis rows hitting f of (their
        canonical entry at f) e_pivot, here times the lcm m of those rows'
        pivot entries so that it stays integral.  Together they span the
        kernel; each has its other entries at pivot columns."""
        rows = self._rows
        for f in range(self.ambient):
            if f in rows:
                continue
            hits = [(pc, rows[pc]) for pc in self._touch.get(f, ())]
            m = lcm(1, *(row[pc] for pc, row in hits))
            v = {f: m}
            for pc, row in hits:
                v[pc] = -row[f] * (m // row[pc])
            yield v

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient == self.ambient
            and other.sparse == self.sparse
        )

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def coordinate_projection(field: Field, n: int, rows) -> tuple:
    """``(kept, project)``: the greedy coordinate complement in K^n of the
    span of the sparse ``rows`` and the projection onto it.

    ``kept`` lists, in index order, every k whose unit vector e_k is
    independent of the rows plus the unit vectors kept before it.  e_j is
    dropped exactly when some vector of the span has its last nonzero entry
    at j: the dropped columns are the pivots of the rows sifted once with
    reversed columns, and the residual against them writes a vector modulo
    the span on the kept unit vectors.  ``project(vec)`` maps a sparse
    vector of K^n to ``(r, s)``: s > 0 times that residual on the positions
    of ``kept``, reduced fraction-free (``Subspace.scaled_residual``), so
    integral over Q; ``field.divided(r, s)`` is the residual itself.
    """
    rev = Subspace(field, n)
    for row in rows:
        rev.add({n - 1 - j: x for j, x in row.items()})
    dropped = set(rev.pivots)
    kept = [k for k in range(n) if n - 1 - k not in dropped]
    pos = {n - 1 - k: t for t, k in enumerate(kept)}

    def project(vec: dict) -> tuple:
        residual, s = rev.scaled_residual({n - 1 - j: x for j, x in vec.items()})
        return {pos[c]: x for c, x in residual.items()}, s

    return kept, project


def relations(field: Field, maps: Sequence[dict]) -> Subspace:
    """{x : sum_l x_l M_l = 0} for the matrices M_l given by ``maps[l]``, all
    column maps ``{col: {row: x}}`` or all row maps ``{row: {col: x}}``: a
    relation among matrices is one among their transposes.

    The rows (M_l at one position)_l are sifted in sorted order of the
    position (outer key, inner key) until they span all of K^len(maps), with
    the columns l reversed.  The kernel vector of each free column
    (``Subspace.kernel_vectors``) then has its other entries past its
    smallest column, at pivot columns of the sweep, which the kernel's
    canonical rows vanish on: it is a multiple of the canonical kernel row
    whose pivot is that column.  So the kernel's echelon basis is read off
    this one sweep, and adding those vectors to the result eliminates
    nothing.
    """
    d = len(maps)
    last = d - 1
    rows: dict = {}
    for l, outer in enumerate(maps):
        for j, inner in outer.items():
            for i, v in inner.items():
                rows.setdefault((j, i), {})[last - l] = v
    constraints = Subspace(field, d)
    for key in sorted(rows):
        constraints.add(rows[key])
        if constraints.dim == d:
            break
    kernel = Subspace(field, d)
    for v in constraints.kernel_vectors():
        kernel.add({last - c: x for c, x in v.items()})
    return kernel


def closure(field: Field, n: int, seeds, maps: Sequence["SparseMatrix"]) -> Subspace:
    """The smallest subspace of K^n holding the sparse ``seeds`` and stable
    under the square ``maps``, echelonised: a vector that enlarges the span
    is queued as its new basis row in primitive form (over Q an integer
    vector); the queued rows span the closure, so only their images are
    sifted in turn."""
    basis = Subspace(field, n)
    queue = deque()

    def sift(vec):
        piv = basis.add(vec)
        if piv is not None:
            queue.append(basis.primitive_row(piv))

    for seed in seeds:
        sift(seed)
    while queue:
        f = queue.popleft()
        for mat in maps:
            img = mat.apply_sparse(f)
            if img:
                sift(img)
    return basis


def combine(field: Field, coeffs: dict, vectors: dict) -> dict:
    """sum_p coeffs[p] vectors[p] of sparse vectors over the p that ``vectors`` holds, cleaned."""
    acc: dict = {}
    for p, x in coeffs.items():
        vec = vectors.get(p)
        if vec:
            for c, y in vec.items():
                acc[c] = acc.get(c, 0) + x * y
    return field.clean(acc)


def invert(rows: Sequence[dict], field: Field) -> tuple:
    """Inverse of a square matrix given by sparse rows, as a tuple of sparse rows.

    Sifts the rows of ``[A | I]`` and reads the inverse off the tag columns;
    raises ValueError on a column index outside the matrix, on a scalar that
    obviously belongs to another field, and unless the pivots are exactly the
    columns of A.
    """
    n = len(rows)
    space = Subspace(field, 2 * n)
    for i, row in enumerate(rows):
        for j, x in row.items():
            if not 0 <= j < n or not field.validate(x):
                raise ValueError("bad entry %r: %r in row %d of a %d x %d matrix" % (j, x, i, n, n))
        tagged = dict(row)
        tagged[n + i] = field.one
        space.add(tagged)
    reduced = space.sparse
    if tuple(reduced) != tuple(range(n)):
        raise ValueError("matrix is not invertible")
    return tuple({j - n: x for j, x in row.items() if j >= n} for row in reduced.values())


# ---------------------------------------------------------------------------
# sparse matrices (column maps)


class SparseMatrix:
    """A sparse matrix stored as column maps ``{col: {row: value}}``.

    Representation matrices of nilpotent algebras are strictly triangular in a
    suitable order, so columns carry few nonzeros; ``apply_sparse`` exploits that.
    """

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field: Field, nrows: int, ncols: int, cols: Optional[dict] = None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else {}

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def transpose(self) -> "SparseMatrix":
        cols: dict[int, dict] = {}
        for j, col in self.cols.items():
            for i, x in col.items():
                cols.setdefault(i, {})[j] = x
        return SparseMatrix(self.field, self.ncols, self.nrows, cols)

    def apply_sparse(self, vec: dict) -> dict:
        """Image of a sparse column vector ``{row: value}``."""
        return combine(self.field, vec, self.cols)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        one = self.field.one
        return not lincomb(self.field, {0: one, 1: -one}, [self, other]).cols

    def __repr__(self):
        return "SparseMatrix(%dx%d, nnz=%d)" % (self.nrows, self.ncols, self.nnz())


def lincomb(field: Field, coeffs: dict, matrices: Sequence[SparseMatrix]) -> SparseMatrix:
    """sum_l coeffs[l] * matrices[l] for a sparse coefficient vector, summed
    in index order in one accumulator and cleaned once per column; raises
    ValueError when a term's shape differs from that of ``matrices[0]``."""
    if not matrices:
        raise ValueError("empty linear combination")
    nrows, ncols = matrices[0].nrows, matrices[0].ncols
    acc: dict = {}
    for l in sorted(coeffs):
        mat = matrices[l]
        if (mat.nrows, mat.ncols) != (nrows, ncols):
            raise ValueError("shape mismatch")
        f = coeffs[l]
        for j, col in mat.cols.items():
            dst = acc.setdefault(j, {})
            for i, x in col.items():
                dst[i] = dst.get(i, 0) + f * x
    cols = {j: col for j, dst in acc.items() if (col := field.clean(dst))}
    return SparseMatrix(field, nrows, ncols, cols)


def is_nilpotent(mat: SparseMatrix) -> bool:
    """Exact nilpotency test that peels the acyclic ends off the support.

    In the support graph (an edge j -> i for every stored entry M[i][j]), a
    vertex with no live predecessor or no live successor is a 1x1 zero block
    first or last in a block triangular form of the live principal submatrix,
    so it is nilpotent iff the rest is.  Peeling such vertices from both sides
    (Kahn, CACM 5, 1962) leaves a core, decided by its image chain; on an
    acyclic support the core is empty and no arithmetic runs at all.
    """
    if mat.nrows != mat.ncols:
        raise ValueError("nilpotency only defined for square matrices")
    succs = {j: set(col) for j, col in mat.cols.items() if col}
    preds: dict = {}
    for j, col in succs.items():
        for i in col:
            preds.setdefault(i, set()).add(j)
    queue = [v for v in preds.keys() | succs.keys() if v not in preds or v not in succs]
    while queue:
        v = queue.pop()
        for i in succs.pop(v, ()):
            preds[i].discard(v)
            if not preds[i]:
                queue.append(i)
        for j in preds.pop(v, ()):
            succs[j].discard(v)
            if not succs[j]:
                queue.append(j)
    if not succs:
        return True
    pos = {v: t for t, v in enumerate(sorted(succs))}
    core = {t: {pos[i]: x for i, x in mat.cols[v].items() if i in pos} for v, t in pos.items()}
    return _image_chain_vanishes(SparseMatrix(mat.field, len(pos), len(pos), core))


def _image_chain_vanishes(mat: SparseMatrix) -> bool:
    """Whether the image chain V ⊇ MV ⊇ M²V ⊇ … of a square matrix hits 0."""
    basis = [col for _j, col in sorted(mat.cols.items())]
    seen_dim = None
    while True:
        image = Subspace(mat.field, mat.nrows)
        for v in basis:
            image.add(v)
        if image.dim == 0:
            return True
        if seen_dim is not None and image.dim >= seen_dim:
            return False
        seen_dim = image.dim
        basis = [mat.apply_sparse(v) for v in image.sparse.values()]

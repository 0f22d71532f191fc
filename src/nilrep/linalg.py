"""Exact linear algebra over the rationals and prime fields.

Dense routines (``rref``, ``nullspace``, ``solve``) work on lists of rows of
raw scalars.  ``Subspace`` holds a canonical reduced-row-echelon basis and
supports membership, intersection and deterministic complements.  For the
large, very sparse systems produced by enveloping-algebra actions and cocycle
conditions there is an incremental ``SparseEliminator`` and a column-oriented
``SparseMatrix``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .fields import Field


# ---------------------------------------------------------------------------
# dense elimination


def rref(rows: Sequence[Sequence], field: Field, ncols: Optional[int] = None):
    """Reduced row echelon form.

    Returns ``(echelon_rows, rank, pivot_cols)``.  The input is not mutated.
    Raises ValueError if an entry obviously belongs to another field (floats,
    or non-int scalars over F_p).
    """
    p = field.characteristic
    mat = [list(r) for r in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    for r in mat:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        for x in r:
            if not field.validate(x):
                raise ValueError("scalar %r does not belong to %r" % (x, field))
    if p:
        mat = [[x % p for x in r] for r in mat]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r]
        piv = row[c]
        if piv != field.one:
            ipiv = field.inv(piv)
            if p:
                mat[r] = row = [(x * ipiv) % p for x in row]
            else:
                mat[r] = row = [x * ipiv for x in row]
        for i in range(nrows):
            if i == r:
                continue
            f = mat[i][c]
            if f == 0:
                continue
            other = mat[i]
            if p:
                mat[i] = [(a - f * b) % p for a, b in zip(other, row)]
            else:
                mat[i] = [a - f * b for a, b in zip(other, row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r] + [[field.zero] * ncols for _ in range(nrows - r)], r, tuple(pivots)


def _kernel_vectors(echelon, pivots, ncols, field):
    """Kernel basis vectors from an RREF matrix, one per free column."""
    pivset = set(pivots)
    vecs = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(echelon[i][f])
        vecs.append(v)
    return vecs


def nullspace(rows: Sequence[Sequence], field: Field, ncols: Optional[int] = None) -> "Subspace":
    """Kernel ``{x : A x = 0}`` of a dense matrix, as a Subspace."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    ech, _rank, pivots = rref(rows, field, ncols)
    return Subspace.from_vectors(field, ncols, _kernel_vectors(ech, pivots, ncols, field))


def invert(rows: Sequence[Sequence], field: Field) -> list:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    aug = [
        list(r) + [field.one if t == i else field.zero for t in range(n)]
        for i, r in enumerate(rows)
    ]
    ech, rank, _piv = rref(aug, field, 2 * n)
    if rank < n or any(ech[i][i] != field.one for i in range(n)):
        raise ValueError("matrix is not invertible")
    return [row[n:] for row in ech[:n]]


def solve(rows: Sequence[Sequence], rhs: Sequence, field: Field):
    """Solve ``A x = b`` exactly.

    Returns ``(particular_solution, nullspace)`` or None when inconsistent.
    The particular solution sets all free variables to zero.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length does not match row count")
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, _rank, pivots = rref(aug, field, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = ech[i][ncols]
    ker = nullspace(rows, field, ncols) if ncols else Subspace.zero_space(field, 0)
    return x, ker


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of K^n held as a canonical reduced-row-echelon basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: Field, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValueError("vector length %d != ambient %d" % (len(v), ambient))
        if not vecs:
            return cls(field, ambient, (), ())
        ech, rank, pivots = rref(vecs, field, ambient)
        rows = tuple(tuple(r) for r in ech[:rank])
        return cls(field, ambient, rows, pivots)

    @classmethod
    def zero_space(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full_space(cls, field: Field, ambient: int) -> "Subspace":
        one, zero = field.one, field.zero
        rows = tuple(
            tuple(one if j == i else zero for j in range(ambient)) for i in range(ambient)
        )
        return cls(field, ambient, rows, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> list:
        """Residual of a vector after eliminating this basis (zero iff member)."""
        fld = self.field
        p = fld.characteristic
        v = [fld.canon(x) for x in vec]
        for row, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if f == 0:
                continue
            if p:
                v = [(a - f * b) % p for a, b in zip(v, row)]
            else:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def coords(self, vec: Sequence) -> list:
        """Coordinates of a member vector on this RREF basis."""
        if not self.contains(vec):
            raise ValueError("vector not in subspace")
        fld = self.field
        return [fld.canon(vec[pc]) for pc in self.pivots]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient == self.ambient
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def _check_compatible(a: Subspace, b: Subspace):
    if a.field != b.field:
        raise ValueError("subspaces over different fields")
    if a.ambient != b.ambient:
        raise ValueError("ambient dimensions differ: %d vs %d" % (a.ambient, b.ambient))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection, via the kernel of the stacked coefficient system."""
    _check_compatible(a, b)
    fld = a.field
    ra, rb = len(a.rows), len(b.rows)
    if ra == 0 or rb == 0:
        return Subspace.zero_space(fld, a.ambient)
    # columns: coefficients u on a.rows then v on b.rows; rows: ambient coords
    sys_rows = []
    for t in range(a.ambient):
        sys_rows.append([row[t] for row in a.rows] + [fld.neg(row[t]) for row in b.rows])
    ker = nullspace(sys_rows, fld, ra + rb)
    vecs = []
    for kv in ker.rows:
        w = [fld.zero] * a.ambient
        for i in range(ra):
            u = kv[i]
            if u == 0:
                continue
            row = a.rows[i]
            w = [fld.canon(x + u * y) for x, y in zip(w, row)]
        vecs.append(w)
    return Subspace.from_vectors(fld, a.ambient, vecs)


def complement_in(sub: Subspace, within: Subspace) -> Subspace:
    """Deterministic complement of ``sub`` inside ``within``.

    Walks the echelon basis of ``within`` in order and greedily keeps every
    vector that is independent of ``sub`` plus the vectors kept so far, so the
    result only depends on the two inputs.
    """
    _check_compatible(sub, within)
    if not within.contains_subspace(sub):
        raise ValueError("sub is not contained in within")
    elim = SparseEliminator(sub.field, sub.ambient)
    for row in sub.rows:
        elim.add({j: x for j, x in enumerate(row) if x != 0})
    kept = []
    for row in within.rows:
        if elim.add({j: x for j, x in enumerate(row) if x != 0}) is not None:
            kept.append(row)
    return Subspace.from_vectors(sub.field, sub.ambient, kept)


# ---------------------------------------------------------------------------
# sparse elimination

_MISSING = object()


class SparseEliminator:
    """Incremental reduced row echelon form with rows stored as dicts.

    ``add`` reduces an incoming row against the pivot rows, and on a nonzero
    residual normalises it, back-eliminates its pivot from the existing rows
    and registers it.  Intended for very sparse systems (enveloping-algebra
    actions, cocycle conditions) where dense elimination is wasteful.
    """

    __slots__ = ("field", "ncols", "pivot_rows", "_touch")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.pivot_rows: dict[int, dict] = {}  # pivot col -> row dict
        self._touch: dict[int, set] = {}  # col -> pivot cols whose row hits col

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Return the residual of ``row`` against the current pivot rows."""
        p = self.field.characteristic
        v = dict(row)
        pivot_rows = self.pivot_rows
        # eliminate pivot columns present in v until none remain
        while True:
            hit = [c for c in v if c in pivot_rows]
            if not hit:
                break
            for c in sorted(hit):
                f = v.get(c, 0)
                if f == 0:
                    v.pop(c, None)
                    continue
                prow = pivot_rows[c]
                if p:
                    for j, x in prow.items():
                        nv = (v.get(j, 0) - f * x) % p
                        if nv:
                            v[j] = nv
                        else:
                            v.pop(j, None)
                else:
                    for j, x in prow.items():
                        nv = v.get(j, 0) - f * x
                        if nv:
                            v[j] = nv
                        else:
                            v.pop(j, None)
        return v

    def add(self, row: dict) -> Optional[int]:
        """Sift a row in; return its pivot column, or None if dependent."""
        fld = self.field
        p = fld.characteristic
        if p:
            row = {j: x % p for j, x in row.items() if x % p}
        else:
            row = {j: x for j, x in row.items() if x != 0}
        v = self.reduce(row)
        if not v:
            return None
        piv = min(v)
        ipiv = fld.inv(v[piv])
        if ipiv != fld.one:
            if p:
                v = {j: (x * ipiv) % p for j, x in v.items()}
            else:
                v = {j: x * ipiv for j, x in v.items()}
        v = {j: x for j, x in v.items() if x != 0}
        # back-eliminate the new pivot from existing rows
        touched = self._touch.get(piv)
        if touched:
            for pc in list(touched):
                prow = self.pivot_rows[pc]
                f = prow.get(piv, 0)
                if f == 0:
                    continue
                if p:
                    for j, x in v.items():
                        nv = (prow.get(j, 0) - f * x) % p
                        self._set(prow, pc, j, nv)
                else:
                    for j, x in v.items():
                        nv = prow.get(j, 0) - f * x
                        self._set(prow, pc, j, nv)
        self.pivot_rows[piv] = v
        for j in v:
            self._touch.setdefault(j, set()).add(piv)
        return piv

    def _set(self, prow: dict, pc: int, j: int, nv):
        if nv:
            had = j in prow
            prow[j] = nv
            if not had:
                self._touch.setdefault(j, set()).add(pc)
        elif j in prow:
            del prow[j]
            s = self._touch.get(j)
            if s is not None:
                s.discard(pc)

    def pivot_cols(self) -> list:
        return sorted(self.pivot_rows)

    def row_space(self) -> Subspace:
        fld = self.field
        pivots = self.pivot_cols()
        rows = []
        for pc in pivots:
            prow = self.pivot_rows[pc]
            rows.append(tuple(prow.get(j, fld.zero) for j in range(self.ncols)))
        return Subspace(fld, self.ncols, tuple(rows), tuple(pivots))

    def kernel(self) -> Subspace:
        """Kernel of the matrix whose rows were added, as a Subspace."""
        fld = self.field
        pivots = self.pivot_cols()
        pivset = set(pivots)
        vecs = []
        for f in range(self.ncols):
            if f in pivset:
                continue
            v = [fld.zero] * self.ncols
            v[f] = fld.one
            for pc in pivots:
                x = self.pivot_rows[pc].get(f, 0)
                if x != 0:
                    v[pc] = fld.neg(x)
            vecs.append(v)
        return Subspace.from_vectors(fld, self.ncols, vecs)


def sparse_nullspace(rows: Iterable[dict], field: Field, ncols: int) -> Subspace:
    """Kernel of a matrix given as an iterable of sparse rows."""
    elim = SparseEliminator(field, ncols)
    for row in rows:
        elim.add(row)
    return elim.kernel()


# ---------------------------------------------------------------------------
# sparse matrices (column maps)


class SparseMatrix:
    """A sparse matrix stored as column maps ``{col: {row: value}}``.

    Representation matrices of nilpotent algebras are strictly triangular in a
    suitable order, so columns carry few nonzeros; products and commutators
    exploit that.
    """

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field: Field, nrows: int, ncols: int, cols: Optional[dict] = None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else {}

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "SparseMatrix":
        return cls(field, nrows, ncols, {})

    @classmethod
    def from_dense(cls, field: Field, rows: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        cols: dict[int, dict] = {}
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                x = field.canon(x)
                if x != 0:
                    cols.setdefault(j, {})[i] = x
        return cls(field, nrows, ncols, cols)

    def to_dense(self) -> list:
        zero = self.field.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for j, col in self.cols.items():
            for i, x in col.items():
                rows[i][j] = x
        return rows

    def entry(self, i: int, j: int):
        col = self.cols.get(j)
        if not col:
            return self.field.zero
        return col.get(i, self.field.zero)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def is_zero_matrix(self) -> bool:
        return all(not c for c in self.cols.values())

    def iter_rows(self):
        """Yield ``(i, row_dict)`` for every nonzero row."""
        rows: dict[int, dict] = {}
        for j, col in self.cols.items():
            for i, x in col.items():
                rows.setdefault(i, {})[j] = x
        for i in sorted(rows):
            yield i, rows[i]

    def transpose(self) -> "SparseMatrix":
        cols: dict[int, dict] = {}
        for j, col in self.cols.items():
            for i, x in col.items():
                cols.setdefault(i, {})[j] = x
        return SparseMatrix(self.field, self.ncols, self.nrows, cols)

    def apply_sparse(self, vec: dict) -> dict:
        """Image of a sparse column vector ``{row: value}``."""
        p = self.field.characteristic
        out: dict[int, object] = {}
        for j, f in vec.items():
            col = self.cols.get(j)
            if not col:
                continue
            for i, x in col.items():
                out[i] = out.get(i, 0) + f * x
        if p:
            return {i: v % p for i, v in out.items() if v % p}
        return {i: v for i, v in out.items() if v != 0}

    def apply_dense(self, vec: Sequence) -> list:
        fld = self.field
        out = [fld.zero] * self.nrows
        for j, col in self.cols.items():
            f = vec[j]
            if f == 0:
                continue
            for i, x in col.items():
                out[i] = out[i] + f * x
        return [fld.canon(v) for v in out]

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        cols = {}
        for j, col in other.cols.items():
            image = self.apply_sparse(col)
            if image:
                cols[j] = image
        return SparseMatrix(self.field, self.nrows, other.ncols, cols)

    def add_scaled(self, other: "SparseMatrix", factor) -> "SparseMatrix":
        """self + factor * other (shapes must agree)."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        p = self.field.characteristic
        cols = {j: dict(col) for j, col in self.cols.items()}
        for j, col in other.cols.items():
            dst = cols.setdefault(j, {})
            for i, x in col.items():
                v = dst.get(i, 0) + factor * x
                if p:
                    v %= p
                if v:
                    dst[i] = v
                else:
                    dst.pop(i, None)
        return SparseMatrix(self.field, self.nrows, self.ncols, {j: c for j, c in cols.items() if c})

    def scaled(self, factor) -> "SparseMatrix":
        if self.field.is_zero(factor):
            return SparseMatrix.zero(self.field, self.nrows, self.ncols)
        canon = self.field.canon
        cols = {
            j: {i: canon(x * factor) for i, x in col.items()}
            for j, col in self.cols.items()
        }
        return SparseMatrix(self.field, self.nrows, self.ncols, cols)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.add_scaled(other, -self.field.one)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.add_scaled(other, self.field.one)

    def commutator(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.matmul(other) - other.matmul(self)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return (self - other).is_zero_matrix()

    def __hash__(self):
        raise TypeError("SparseMatrix is not hashable")

    def __repr__(self):
        return "SparseMatrix(%dx%d, nnz=%d)" % (self.nrows, self.ncols, self.nnz())


def lincomb(field: Field, coeffs: Sequence, matrices: Sequence[SparseMatrix]) -> SparseMatrix:
    """Linear combination of equally-shaped sparse matrices."""
    if not matrices:
        raise ValueError("empty linear combination")
    out = SparseMatrix.zero(field, matrices[0].nrows, matrices[0].ncols)
    for c, mat in zip(coeffs, matrices):
        if field.is_zero(c):
            continue
        out = out.add_scaled(mat, c)
    return out


def matrix_kernel(mat: SparseMatrix) -> Subspace:
    """Kernel of a sparse matrix."""
    elim = SparseEliminator(mat.field, mat.ncols)
    for _i, row in mat.iter_rows():
        elim.add(row)
    return elim.kernel()


def is_nilpotent(mat: SparseMatrix) -> bool:
    """A matrix is nilpotent iff its image chain V ⊇ MV ⊇ M²V ⊇ … hits 0."""
    if mat.nrows != mat.ncols:
        raise ValueError("nilpotency only defined for square matrices")
    basis = [dict(col) for j, col in sorted(mat.cols.items())]
    seen_dim = None
    while True:
        elim = SparseEliminator(mat.field, mat.nrows)
        for v in basis:
            elim.add(v)
        cur = [dict(r) for r in elim.pivot_rows.values()]
        dim = len(cur)
        if dim == 0:
            return True
        if seen_dim is not None and dim >= seen_dim:
            return False
        seen_dim = dim
        basis = [mat.apply_sparse(v) for v in cur]

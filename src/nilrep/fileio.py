"""JSON file formats for algebras and representations.

All scalars travel as exact fraction strings ("22105/15246", "-3", "1"); no
binary floating point anywhere.  Parsing is strict: unknown fields are
rejected so that format drift fails loudly.  Representation files store every
matrix dense; ``to_dense`` and ``from_dense`` convert at this boundary, and
nothing else in the package holds a dense vector or matrix.
"""

from __future__ import annotations

import hashlib
import json

from .fields import Field, field_from_characteristic
from .liealg import LieAlgebra
from .linalg import SparseMatrix
from .representation import Representation

ALGEBRA_FORMAT = "nilrep-algebra"
REPRESENTATION_FORMAT = "nilrep-representation"
FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Raised when an input file does not match the expected schema."""


def _require_keys(obj: dict, required: set, optional: set, what: str):
    if not isinstance(obj, dict):
        raise FileFormatError("%s must be a JSON object" % what)
    keys = set(obj)
    missing = required - keys
    if missing:
        raise FileFormatError("%s is missing fields %s" % (what, sorted(missing)))
    unknown = keys - required - optional
    if unknown:
        raise FileFormatError("%s has unknown fields %s" % (what, sorted(unknown)))


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


def field_to_json(field: Field) -> dict:
    return {"kind": field.kind, "characteristic": field.characteristic}


def field_from_json(obj) -> Field:
    _require_keys(obj, {"kind", "characteristic"}, set(), "field descriptor")
    ch = obj["characteristic"]
    if not isinstance(ch, int) or ch < 0:
        raise FileFormatError("characteristic must be a nonnegative integer")
    field = field_from_characteristic(ch)
    if obj["kind"] != field.kind:
        raise FileFormatError(
            "field kind %r does not match characteristic %r" % (obj["kind"], ch)
        )
    return field


def algebra_to_json(g: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(g.table):
        terms = g.table[(i, j)]
        brackets.append(
            {
                "i": i + 1,
                "j": j + 1,
                "terms": [[k + 1, g.field.to_str(c)] for k, c in sorted(terms.items())],
            }
        )
    return {
        "format": ALGEBRA_FORMAT,
        "version": FORMAT_VERSION,
        "dim": g.dim,
        "field": field_to_json(g.field),
        "brackets": brackets,
    }


def algebra_from_json(obj) -> LieAlgebra:
    _require_keys(obj, {"format", "version", "dim", "field", "brackets"}, set(), "algebra file")
    if obj["format"] != ALGEBRA_FORMAT:
        raise FileFormatError("not an algebra file: format=%r" % obj["format"])
    if obj["version"] != FORMAT_VERSION:
        raise FileFormatError("unsupported version %r" % obj["version"])
    field = field_from_json(obj["field"])
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise FileFormatError("dim must be a positive integer")
    table = {}
    if not isinstance(obj["brackets"], list):
        raise FileFormatError("brackets must be a list")
    for entry in obj["brackets"]:
        _require_keys(entry, {"i", "j", "terms"}, set(), "bracket entry")
        i, j = entry["i"], entry["j"]
        if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j <= dim):
            raise FileFormatError("bracket indices must satisfy 1 <= i < j <= dim")
        if (i - 1, j - 1) in table:
            raise FileFormatError("duplicate bracket entry (%d, %d)" % (i, j))
        if not isinstance(entry["terms"], list):
            raise FileFormatError("bracket terms must be a list")
        terms = table[(i - 1, j - 1)] = {}
        for term in entry["terms"]:
            if not (isinstance(term, list) and len(term) == 2):
                raise FileFormatError("bracket terms must be [k, coefficient] pairs")
            k, coeff = term
            if not (isinstance(k, int) and 1 <= k <= dim):
                raise FileFormatError("bracket target out of range: %r" % k)
            if k - 1 in terms:
                raise FileFormatError("repeated target %d in bracket (%d, %d)" % (k, i, j))
            if not isinstance(coeff, str):
                raise FileFormatError("coefficients must be fraction strings")
            terms[k - 1] = field.parse(coeff)
    # LieAlgebra drops the zero coefficients and the empty brackets
    return LieAlgebra(field, dim, table)


def algebra_checksum(g: LieAlgebra) -> str:
    """SHA-256 of the canonical JSON serialisation of the algebra."""
    payload = json.dumps(algebra_to_json(g), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def representation_to_json(rep: Representation) -> dict:
    fld = rep.field
    matrices = []
    for mat in rep.matrices:
        matrices.append([[fld.to_str(x) for x in row] for row in to_dense(mat)])
    return {
        "format": REPRESENTATION_FORMAT,
        "version": FORMAT_VERSION,
        "provenance": rep.provenance,
        "field": field_to_json(fld),
        "algebra_dim": rep.algebra.dim,
        "algebra_sha256": algebra_checksum(rep.algebra),
        "dim": rep.dim,
        "matrices": matrices,
    }


def representation_from_json(obj, algebra: LieAlgebra) -> Representation:
    _require_keys(
        obj,
        {"format", "version", "provenance", "field", "algebra_dim", "algebra_sha256", "dim", "matrices"},
        set(),
        "representation file",
    )
    if obj["format"] != REPRESENTATION_FORMAT:
        raise FileFormatError("not a representation file: format=%r" % obj["format"])
    if obj["version"] != FORMAT_VERSION:
        raise FileFormatError("unsupported version %r" % obj["version"])
    field = field_from_json(obj["field"])
    if field != algebra.field:
        raise FileFormatError("representation field does not match the algebra")
    if obj["algebra_dim"] != algebra.dim:
        raise FileFormatError("algebra dimension mismatch")
    if obj["algebra_sha256"] != algebra_checksum(algebra):
        raise FileFormatError("algebra checksum mismatch")
    dim = obj["dim"]
    mats_json = obj["matrices"]
    if not (isinstance(mats_json, list) and len(mats_json) == algebra.dim):
        raise FileFormatError("need one matrix per basis vector")
    matrices = []
    for grid in mats_json:
        if not (isinstance(grid, list) and len(grid) == dim):
            raise FileFormatError("matrix has wrong row count")
        rows = []
        for row in grid:
            if not (isinstance(row, list) and len(row) == dim):
                raise FileFormatError("matrix has wrong column count")
            if not all(isinstance(x, str) for x in row):
                raise FileFormatError("matrix entries must be fraction strings")
            rows.append([field.parse(x) for x in row])
        matrices.append(from_dense(field, rows))
    prov = obj["provenance"]
    if not isinstance(prov, dict):
        raise FileFormatError("provenance must be an object")
    return Representation(algebra, matrices, dict(prov))


def save_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_algebra(path: str) -> LieAlgebra:
    return algebra_from_json(load_json(path))


def save_representation(rep: Representation, path: str):
    save_json(representation_to_json(rep), path)


def load_representation(path: str, algebra: LieAlgebra) -> Representation:
    return representation_from_json(load_json(path), algebra)

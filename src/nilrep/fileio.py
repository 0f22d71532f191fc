"""JSON file formats for algebras and representations.

All scalars travel as exact fraction strings ("22105/15246", "-3", "1"); no
binary floating point anywhere.  Parsing is strict: unknown fields are
rejected so that format drift fails loudly, and ``true`` is not the integer 1.

A representation file is the text of ``json.dump(obj, fh, sort_keys=True,
indent=1)`` and a newline: sorted keys, one-space indent, dense row-major
matrices with one entry per line.  ``json`` encodes indented text in pure
Python, so ``save_representation`` writes it itself from the sparse rows, one
dense row at a time through a 64 KB buffer: a save holds one row's text and
never a whole matrix, all zero rows of a matrix share one text, and the
bytes are ASCII (``json`` escapes the rest).  The reader fills sparse
columns and parses only entries other than "0".  Nothing else in the package
holds a dense matrix.
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
_ZERO = '"0"'  # a zero matrix entry as encoded in a representation file
# bytes a save buffers between write calls: rows are short, and with the
# default 8 KB buffer the write calls made a save slower than one string
# per matrix did
_WRITE_BUFFER = 1 << 16


class FileFormatError(ValueError):
    """Raised when an input file does not match the expected schema."""


def _is_int(x) -> bool:
    """A JSON integer: ``bool`` subclasses ``int``, and ``true`` is not 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_keys(obj: dict, keys: set, what: str):
    if not isinstance(obj, dict):
        raise FileFormatError("%s must be a JSON object" % what)
    for problem, names in (("is missing", keys - set(obj)), ("has unknown", set(obj) - keys)):
        if names:
            raise FileFormatError("%s %s fields %s" % (what, problem, sorted(names)))


def field_to_json(field: Field) -> dict:
    return {"kind": field.kind, "characteristic": field.characteristic}


def field_from_json(obj) -> Field:
    _require_keys(obj, {"kind", "characteristic"}, "field descriptor")
    ch = obj["characteristic"]
    if not _is_int(ch) or ch < 0:
        raise FileFormatError("characteristic must be a nonnegative integer")
    field = field_from_characteristic(ch)
    if obj["kind"] != field.kind:
        raise FileFormatError(
            "field kind %r does not match characteristic %r" % (obj["kind"], ch)
        )
    return field


def algebra_to_json(g: LieAlgebra) -> dict:
    brackets = [{"i": i + 1, "j": j + 1,
                 "terms": [[k + 1, g.field.to_str(c)] for k, c in sorted(g.table[(i, j)].items())]}
                for (i, j) in sorted(g.table)]
    return {"format": ALGEBRA_FORMAT, "version": FORMAT_VERSION, "dim": g.dim,
            "field": field_to_json(g.field), "brackets": brackets}


def algebra_from_json(obj) -> LieAlgebra:
    _require_keys(obj, {"format", "version", "dim", "field", "brackets"}, "algebra file")
    if obj["format"] != ALGEBRA_FORMAT:
        raise FileFormatError("not an algebra file: format=%r" % obj["format"])
    if not _is_int(obj["version"]) or obj["version"] != FORMAT_VERSION:
        raise FileFormatError("unsupported version %r" % obj["version"])
    field = field_from_json(obj["field"])
    dim = obj["dim"]
    if not _is_int(dim) or dim < 1:
        raise FileFormatError("dim must be a positive integer")
    table = {}
    if not isinstance(obj["brackets"], list):
        raise FileFormatError("brackets must be a list")
    for entry in obj["brackets"]:
        _require_keys(entry, {"i", "j", "terms"}, "bracket entry")
        i, j = entry["i"], entry["j"]
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= dim):
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
            if not (_is_int(k) and 1 <= k <= dim):
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


def _json_list(texts: list, depth: int) -> str:
    """The list whose items encode as ``texts``, as ``json.dumps(indent=1)``
    writes it at nesting ``depth``."""
    if not texts:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(texts) + "\n" + " " * depth + "]"


def _write_matrix(fh, mat: SparseMatrix):
    """Write the dense rows of ``mat`` as fraction strings, at the file's
    indent, one row at a time; every zero row is one shared text."""
    to_str = mat.field.to_str
    zeros = [_ZERO] * mat.ncols
    zero_item = (",\n   " + _json_list(zeros, 3)).encode("ascii")
    rows = mat.transpose().cols
    for i in range(mat.nrows):
        row = rows.get(i)
        if row is None:
            item = zero_item
        else:
            entries = zeros.copy()
            for j, x in row.items():
                entries[j] = '"%s"' % to_str(x)
            item = (",\n   " + _json_list(entries, 3)).encode("ascii")
        fh.write(item if i else b"[" + item[1:])
    fh.write(b"\n  ]" if mat.nrows else b"[]")


def save_representation(rep: Representation, path: str):
    """Write ``rep`` one dense row at a time, as the text that
    ``json.dump(obj, fh, sort_keys=True, indent=1)`` and a newline give."""
    obj = {"format": REPRESENTATION_FORMAT, "version": FORMAT_VERSION,
           "provenance": rep.provenance, "field": field_to_json(rep.field),
           "algebra_dim": rep.algebra.dim, "algebra_sha256": algebra_checksum(rep.algebra),
           "dim": rep.dim, "matrices": []}
    # only algebra_*, dim, field and format sort before "matrices": none holds this text
    head, _, tail = json.dumps(obj, sort_keys=True, indent=1).partition('\n "matrices": [],\n')
    with open(path, "wb", buffering=_WRITE_BUFFER) as fh:
        fh.write((head + '\n "matrices": [').encode("ascii"))
        sep = b"\n  "
        for mat in rep.matrices:
            fh.write(sep)
            _write_matrix(fh, mat)
            sep = b",\n  "
        fh.write((("\n ]" if rep.matrices else "]") + ",\n" + tail + "\n").encode("ascii"))


def representation_from_json(obj, algebra: LieAlgebra) -> Representation:
    _require_keys(obj, {"format", "version", "provenance", "field", "algebra_dim",
                        "algebra_sha256", "dim", "matrices"}, "representation file")
    if obj["format"] != REPRESENTATION_FORMAT:
        raise FileFormatError("not a representation file: format=%r" % obj["format"])
    if not _is_int(obj["version"]) or obj["version"] != FORMAT_VERSION:
        raise FileFormatError("unsupported version %r" % obj["version"])
    field = field_from_json(obj["field"])
    if field != algebra.field:
        raise FileFormatError("representation field does not match the algebra")
    if not _is_int(obj["algebra_dim"]) or obj["algebra_dim"] != algebra.dim:
        raise FileFormatError("algebra dimension mismatch")
    if obj["algebra_sha256"] != algebra_checksum(algebra):
        raise FileFormatError("algebra checksum mismatch")
    dim = obj["dim"]
    if not _is_int(dim) or dim < 0:
        raise FileFormatError("dim must be a nonnegative integer")
    mats_json = obj["matrices"]
    if not (isinstance(mats_json, list) and len(mats_json) == algebra.dim):
        raise FileFormatError("need one matrix per basis vector")
    matrices = []
    for grid in mats_json:
        if not (isinstance(grid, list) and len(grid) == dim):
            raise FileFormatError("matrix has wrong row count")
        cols: dict = {}
        for i, row in enumerate(grid):
            if not (isinstance(row, list) and len(row) == dim):
                raise FileFormatError("matrix has wrong column count")
            if row.count("0") == dim:  # only the string "0" equals "0"
                continue
            if not all(isinstance(x, str) for x in row):
                raise FileFormatError("matrix entries must be fraction strings")
            for j, x in enumerate(row):
                if x != "0":
                    x = field.parse(x)
                    if x != 0:
                        cols.setdefault(j, {})[i] = x
        matrices.append(SparseMatrix(field, dim, dim, cols))
    prov = obj["provenance"]
    if not isinstance(prov, dict):
        raise FileFormatError("provenance must be an object")
    return Representation(algebra, matrices, dict(prov))


def load_algebra(path: str) -> LieAlgebra:
    with open(path) as fh:
        return algebra_from_json(json.load(fh))


def load_representation(path: str, algebra: LieAlgebra) -> Representation:
    with open(path) as fh:
        return representation_from_json(json.load(fh), algebra)

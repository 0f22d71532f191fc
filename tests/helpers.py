"""Helpers that only the tests use: dense matrices and plain JSON files.

The package holds matrices sparse and writes representation files itself;
tests state small matrices densely, and save algebra objects, sometimes
corrupted on purpose, as ordinary JSON.
"""

import json

from nilrep.fields import Field
from nilrep.linalg import SparseMatrix


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


def save_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")

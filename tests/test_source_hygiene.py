"""Static checks on the package source.

``assert`` statements vanish under ``python -O``, so no output may depend on
one; every name the package exports must still exist; and dense matrices are
read and written only at the file boundary, so the dense converters appear
only in ``fileio.py``.
"""

import ast
import pathlib
import re

import nilrep

SRC = pathlib.Path(nilrep.__file__).parent


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_every_exported_name_resolves():
    missing = [name for name in nilrep.__all__ if not hasattr(nilrep, name)]
    assert missing == []
    assert len(set(nilrep.__all__)) == len(nilrep.__all__)


def test_dense_converters_only_in_fileio():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\b(to_dense|from_dense)\b", line):
                found.append("%s:%d" % (path.name, lineno))
    assert found == []

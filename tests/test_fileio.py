import io
import json
import tracemalloc

import pytest

from helpers import from_dense, save_json, to_dense
from nilrep.fields import GF, QQ, rational
from nilrep import abelian_algebra, catalog, fileio
from nilrep.quotient import algorithm_quotient
from nilrep.regular import algorithm_regular
from nilrep.representation import Representation


def test_algebra_roundtrip(tmp_path, heis):
    path = tmp_path / "heis.json"
    save_json(fileio.algebra_to_json(heis), str(path))
    loaded = fileio.load_algebra(str(path))
    assert loaded == heis
    assert fileio.algebra_checksum(loaded) == fileio.algebra_checksum(heis)


def test_algebra_roundtrip_fractions_and_prime_field(tmp_path, f13):
    p = tmp_path / "f13.json"
    save_json(fileio.algebra_to_json(f13), str(p))
    assert fileio.load_algebra(str(p)) == f13

    g2 = catalog.upper_triangular(4, GF(3))
    p2 = tmp_path / "u4.json"
    save_json(fileio.algebra_to_json(g2), str(p2))
    assert fileio.load_algebra(str(p2)) == g2


def test_representation_roundtrip(tmp_path, heis):
    rep = algorithm_regular(heis)
    path = tmp_path / "rep.json"
    fileio.save_representation(rep, str(path))
    loaded = fileio.load_representation(str(path), heis)
    assert loaded.dim == rep.dim
    assert all(a == b for a, b in zip(loaded.matrices, rep.matrices))
    assert loaded.provenance == rep.provenance


def test_unknown_fields_rejected(tmp_path, heis):
    obj = fileio.algebra_to_json(heis)
    obj["extra"] = 1
    with pytest.raises(fileio.FileFormatError):
        fileio.algebra_from_json(obj)


def test_missing_fields_rejected(heis):
    obj = fileio.algebra_to_json(heis)
    del obj["dim"]
    with pytest.raises(fileio.FileFormatError):
        fileio.algebra_from_json(obj)


def test_bad_bracket_indices_rejected(heis):
    obj = fileio.algebra_to_json(heis)
    obj["brackets"][0]["i"] = 5
    with pytest.raises(fileio.FileFormatError):
        fileio.algebra_from_json(obj)


def test_float_coefficients_rejected(heis):
    obj = fileio.algebra_to_json(heis)
    obj["brackets"][0]["terms"][0][1] = 0.5
    with pytest.raises(fileio.FileFormatError):
        fileio.algebra_from_json(obj)


def test_checksum_mismatch_rejected(tmp_path, heis):
    rep = algorithm_regular(heis)
    path = tmp_path / "rep.json"
    fileio.save_representation(rep, str(path))
    obj = json.loads(path.read_text())
    other = abelian_algebra(QQ, 3)
    with pytest.raises(fileio.FileFormatError):
        fileio.representation_from_json(obj, other)


def test_field_descriptor_consistency():
    with pytest.raises(fileio.FileFormatError):
        fileio.field_from_json({"kind": "rationals", "characteristic": 5})
    assert fileio.field_from_json({"kind": "prime_field", "characteristic": 7}) == GF(7)


def test_serialisation_is_canonical(heis):
    a = json.dumps(fileio.algebra_to_json(heis), sort_keys=True)
    b = json.dumps(fileio.algebra_to_json(catalog.heisenberg(QQ)), sort_keys=True)
    assert a == b


def _old_encoding(rep) -> bytes:
    """A representation file as the dense dict and ``json.dump`` wrote it
    before ``save_representation`` wrote the text itself."""
    fld = rep.field
    obj = {
        "format": fileio.REPRESENTATION_FORMAT,
        "version": fileio.FORMAT_VERSION,
        "provenance": rep.provenance,
        "field": fileio.field_to_json(fld),
        "algebra_dim": rep.algebra.dim,
        "algebra_sha256": fileio.algebra_checksum(rep.algebra),
        "dim": rep.dim,
        "matrices": [[[fld.to_str(x) for x in row] for row in to_dense(mat)]
                     for mat in rep.matrices],
    }
    buf = io.StringIO()
    json.dump(obj, buf, sort_keys=True, indent=1)
    buf.write("\n")
    return buf.getvalue().encode("ascii")


def _one_by_one():
    return Representation(abelian_algebra(QQ, 1), [from_dense(QQ, [[rational(-3, 7)]])])


def _negative_fractions():
    q = rational
    mats = [
        [[q(0), q(-3, 7), q(22105, 15246)], [q(0), q(0), q(-1)], [q(0), q(0), q(0)]],
        [[q(0), q(0), q(5, 2)], [q(0), q(0), q(0)], [q(-1, 2), q(0), q(0)]],
    ]
    return Representation(abelian_algebra(QQ, 2), [from_dense(QQ, m) for m in mats],
                          {"algorithm": "by hand"})


def _nested_provenance():
    rep = algorithm_regular(catalog.heisenberg(QQ))
    rep.provenance = {
        "algorithm": "regular",
        "list": [1, [2, {"b": None, "a": True}], [], {}],
        "dict": {"z": {"y": [0.5, -3]}, "a": "x"},
        "non-ascii": "Gr\u00f6\u00dfe \u2264 \u221e",
        "trap": '"matrices": [',
        "trap line": '\n "matrices": [],\n',
    }
    return rep


def _zero_rows(first_row):
    """Two 3x3 matrices: one all zero, one with only ``first_row`` nonzero."""
    q = rational
    zero = [[q(0)] * 3 for _ in range(3)]
    head = [list(first_row)] + zero[1:]
    return Representation(abelian_algebra(QQ, 2), [from_dense(QQ, zero), from_dense(QQ, head)])


WRITER_CASES = {
    "1x1": _one_by_one,
    "dim-0-algebra": lambda: Representation(abelian_algebra(QQ, 0), []),
    "zero-3x3": lambda: Representation(abelian_algebra(QQ, 1),
                                       [from_dense(QQ, [[rational(0)] * 3] * 3)]),
    "zero-last-rows": lambda: _zero_rows([rational(1), rational(0), rational(-2, 5)]),
    "U4-F3-regular": lambda: algorithm_regular(catalog.upper_triangular(4, GF(3))),
    "U4-F3-quotient": lambda: algorithm_quotient(catalog.upper_triangular(4, GF(3))),
    "negative-fractions": _negative_fractions,
    "nested-provenance": _nested_provenance,
    "0x0": lambda: Representation(abelian_algebra(QQ, 1), [from_dense(QQ, [])]),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writer_matches_the_json_dump_encoding(tmp_path, case):
    rep = WRITER_CASES[case]()
    path = tmp_path / "rep.json"
    fileio.save_representation(rep, str(path))
    assert path.read_bytes() == _old_encoding(rep)
    loaded = fileio.load_representation(str(path), rep.algebra)
    assert loaded.matrices == rep.matrices and loaded.provenance == rep.provenance


def test_writer_holds_less_than_one_dense_matrix(tmp_path):
    rep = algorithm_regular(catalog.filiform_f(15))
    mat = rep.matrices[0]
    dense = json.dumps([[rep.field.to_str(x) for x in row] for row in to_dense(mat)], indent=1)
    path = str(tmp_path / "rep.json")
    tracemalloc.start()
    try:
        fileio.save_representation(rep, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.dim == 145 and peak < len(dense)


def _saved_object(tmp_path, rep) -> dict:
    path = tmp_path / "rep.json"
    fileio.save_representation(rep, str(path))
    return json.loads(path.read_text())


@pytest.mark.parametrize("key", ["dim", "algebra_dim", "version"])
def test_boolean_integers_rejected_in_representation_files(tmp_path, key):
    rep = _one_by_one()
    obj = _saved_object(tmp_path, rep)
    assert fileio.representation_from_json(obj, rep.algebra).matrices == rep.matrices
    obj[key] = True
    with pytest.raises(fileio.FileFormatError):
        fileio.representation_from_json(obj, rep.algebra)


BOOLEAN_ALGEBRA_FIELDS = {
    "dim": lambda obj: obj.update(dim=True, brackets=[]),
    "version": lambda obj: obj.update(version=True),
    "characteristic": lambda obj: obj["field"].update(characteristic=False),
    "bracket index": lambda obj: obj["brackets"][0].update(i=True),
    "bracket target": lambda obj: obj["brackets"][0]["terms"][0].__setitem__(0, True),
}


@pytest.mark.parametrize("where", sorted(BOOLEAN_ALGEBRA_FIELDS))
def test_boolean_integers_rejected_in_algebra_files(heis, where):
    # True == 1 in Python, so each edited file would otherwise read as an algebra
    obj = fileio.algebra_to_json(heis)
    assert fileio.algebra_from_json(obj) == heis
    BOOLEAN_ALGEBRA_FIELDS[where](obj)
    with pytest.raises(fileio.FileFormatError):
        fileio.algebra_from_json(obj)


@pytest.mark.parametrize("spelling", ["-0", "0/7", " 0", "0"])
def test_other_spellings_of_zero_read_as_zero(tmp_path, spelling):
    rep = _negative_fractions()
    obj = _saved_object(tmp_path, rep)
    obj["matrices"][0][0][0] = spelling  # a row with nonzero entries
    obj["matrices"][0][2][1] = spelling  # a row of zeros
    loaded = fileio.representation_from_json(obj, rep.algebra)
    assert loaded.matrices == rep.matrices

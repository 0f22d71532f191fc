import json

import pytest

from nilrep.fields import GF, QQ
from nilrep import abelian_algebra, catalog, fileio
from nilrep.regular import algorithm_regular


def test_algebra_roundtrip(tmp_path, heis):
    path = tmp_path / "heis.json"
    fileio.save_json(fileio.algebra_to_json(heis), str(path))
    loaded = fileio.load_algebra(str(path))
    assert loaded == heis
    assert fileio.algebra_checksum(loaded) == fileio.algebra_checksum(heis)


def test_algebra_roundtrip_fractions_and_prime_field(tmp_path, f13):
    p = tmp_path / "f13.json"
    fileio.save_json(fileio.algebra_to_json(f13), str(p))
    assert fileio.load_algebra(str(p)) == f13

    g2 = catalog.upper_triangular(4, GF(3))
    p2 = tmp_path / "u4.json"
    fileio.save_json(fileio.algebra_to_json(g2), str(p2))
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
    obj = fileio.representation_to_json(rep)
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

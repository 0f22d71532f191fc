"""Byte-level guard on `nilrep compute --out`: whole files, provenance included.

The digests were recorded from the CLI before the module pipeline was
simplified; any change to a matrix entry, to the monomial order behind the
basis, or to a provenance field changes the digest.
"""

import hashlib

import pytest

from nilrep.cli import main

GOLDEN = [
    ("catalog:heisenberg", None, "regular",
     "3a0b34400a3bb7b8ad5d164cc5309c22e97ae75ac294d64557ef41169734a73d"),
    ("catalog:heisenberg", None, "quotient",
     "e82bc5714a6d89296beb44eeb526fb9677ad6c2fb145aadc60b613df9cd9f089"),
    ("catalog:heisenberg", None, "dual",
     "bab23e4e87eb26e995553155d0e09e5a3348735edb9abae2725b8784eeb585ee"),
    ("catalog:heisenberg", None, "affine",
     "68bf24700f11fb2b5ea902d866b8d3244730a8bba64da85d62d6f718fa5b473f"),
    ("catalog:utri:4", "2", "regular",
     "7b5f967c67bef0b6bb0518d960296679420a16b044347fa782c07f2ade8e5fdc"),
    ("catalog:utri:4", "2", "dual",
     "74a9c2b4723b91b13f9e82e8288609e1e92f28d22c27121eb8687ef98cb79839"),
    ("catalog:utri:4", "2", "quotient",
     "4fd36f152cc92021b06efb7b3947bad8b3f3d85093812226ec161b2926588766"),
    ("catalog:utri:5", "3", "regular",
     "6b94b9fdbbf84a26f211023a1830592f300b4b34306d2da2b4a0bcc433656870"),
    ("catalog:utri:5", "3", "dual",
     "f280e5b566153cab1dab3568721206d1f069b51cf63ba181ded67c40a1958eb7"),
    ("catalog:utri:5", "3", "quotient",
     "8cffc8de12c7ee57aa4cf3ea7b02655fe49c0afef5078e6a21afc2d6cefff6ae"),
    ("catalog:filiform:13", None, "regular",
     "547ab71786b01e3cef0b68582de0527b6ba4a6e304b372d8a853c766a3f78456"),
    ("catalog:filiform:13", None, "dual",
     "1e291108afda23408de5e0a2d9aefa3c0fe0c75d3de3bc3ad1ad8b01301080cd"),
    ("catalog:filiform:13", None, "quotient",
     "119c1451b180254c5f2ec38253b92bf09214a44de2b7ee3eec4ce60ec0d34bf1"),
]


@pytest.mark.parametrize("spec,field,alg,digest", GOLDEN)
def test_compute_output_file_digest(tmp_path, capsys, spec, field, alg, digest):
    out = tmp_path / "rep.json"
    argv = ["compute", "--alg", alg, "--in", spec, "--out", str(out)]
    if field is not None:
        argv += ["--field", field]
    if alg == "affine":
        argv += ["--seed", "0"]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

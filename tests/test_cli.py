import json

import pytest

from helpers import save_json
from nilrep import __version__, abelian_algebra, catalog, fileio
from nilrep.cli import main
from nilrep.fields import BACKEND, GF, QQ
from nilrep.liealg import LieAlgebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_dual_heisenberg(capsys):
    for extra in ([], ["--field", "q"]):
        code, out, _ = run(capsys, "compute", "--alg", "dual", "--in", "catalog:heisenberg",
                           *extra)
        assert code == 0
        summary = json.loads(out)
        assert summary["dim"] == 3 and summary["status"] == "ok", extra
        assert summary["field"] == "rationals"


def test_compute_affine_utri6_f3(capsys):
    code, out, _ = run(
        capsys, "compute", "--alg", "affine", "--in", "catalog:utri:6", "--field", "3"
    )
    assert code == 0
    assert json.loads(out)["dim"] == 16


def test_compute_regular_filiform13(capsys):
    code, out, _ = run(capsys, "compute", "--alg", "regular", "--in", "catalog:filiform:13")
    assert code == 0
    assert json.loads(out)["dim"] == 85


def test_compute_affine_fail_exit_code(capsys):
    code, out, _ = run(
        capsys, "compute", "--alg", "affine", "--in", "catalog:filiform:13", "--retries", "2"
    )
    assert code == 3
    summary = json.loads(out)
    assert summary["status"] == "fail" and summary["deepest_step"] >= 1


def test_compute_writes_representation(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, out, _ = run(
        capsys, "compute", "--alg", "quotient", "--in", "catalog:heisenberg",
        "--out", str(out_path),
    )
    assert code == 0
    rep = fileio.load_representation(str(out_path), catalog.heisenberg(QQ))
    assert rep.dim == 3


def test_compute_refuses_unverified_result(tmp_path, capsys, monkeypatch):
    from nilrep import cli
    from nilrep.linalg import SparseMatrix
    from nilrep.representation import Representation

    def zero_regular(g):
        # a homomorphism, but z acts as 0, so it is not faithful
        return Representation(g, [SparseMatrix(g.field, 2, 2) for _ in range(g.dim)])

    monkeypatch.setattr(cli, "algorithm_regular", zero_regular)
    out_path = tmp_path / "rep.json"
    code, out, _ = run(
        capsys, "compute", "--alg", "regular", "--in", "catalog:heisenberg",
        "--out", str(out_path),
    )
    assert code == 1
    summary = json.loads(out)
    assert summary["status"] == "fail"
    assert summary["verification"]["ok"] is False
    assert summary["verification"]["faithful"] is False
    assert not out_path.exists()


def test_compute_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "compute", "--alg", "regular", "--in", "catalog:nope")
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("name, message", [
    ("heisenberg:junk", "heisenberg takes no parameters"),
    ("freenilp:2,3,4", "freenilp takes two parameters"),
])
def test_compute_rejects_a_catalog_name_with_the_wrong_parameters(capsys, name, message):
    # heisenberg:junk used to exit 0 and echo "params": "junk", and
    # freenilp:2,3,4 used to fail on Python's "too many values to unpack"
    code, out, err = run(capsys, "compute", "--alg", "regular", "--in", "catalog:" + name)
    assert (code, out) == (2, "") and "input error" in err and message in err


def test_compute_missing_file(capsys):
    code, _, err = run(capsys, "compute", "--alg", "regular", "--in", "no-such-file.json")
    assert code == 2


def test_compute_rejects_non_nilpotent(tmp_path, capsys):
    from nilrep.fields import rational
    from nilrep.liealg import LieAlgebra

    two = rational(2)
    one = rational(1)
    sl2 = LieAlgebra(QQ, 3, {(0, 1): {1: two}, (0, 2): {2: -two}, (1, 2): {0: one}})
    path = tmp_path / "sl2.json"
    save_json(fileio.algebra_to_json(sl2), str(path))
    code, _, err = run(capsys, "compute", "--alg", "regular", "--in", str(path))
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("table,dim", [
    ({(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, 4),  # sl_2 + K
    ({(0, 1): {1: 1}}, 2),  # [x, y] = y
], ids=["sl2+K", "xy=y"])
def test_compute_rejects_algebras_no_complement_generates(tmp_path, capsys, table, dim):
    # a complement of [g, g] that does not generate g marks g as not nilpotent
    path = tmp_path / "g.json"
    save_json(fileio.algebra_to_json(LieAlgebra(QQ, dim, table)), str(path))
    for alg in ("regular", "affine"):
        code, _, err = run(capsys, "compute", "--alg", alg, "--in", str(path))
        assert code == 2 and "input error" in err and "generates a subalgebra" in err


def test_file_input_violating_jacobi_is_an_input_error(tmp_path, capsys):
    from nilrep.fields import rational
    from nilrep.liealg import LieAlgebra
    from nilrep.linalg import SparseMatrix
    from nilrep.representation import Representation

    # [x1,x2]=x3, [x1,x3]=x4, [x2,x4]=x5: on (x1,x2,x3) the Jacobi sum is
    # [x1,[x2,x3]] + [x2,[x3,x1]] + [x3,[x1,x2]] = 0 - [x2,x4] + 0 = -x5
    one = rational(1)
    g = LieAlgebra(QQ, 5, {(0, 1): {2: one}, (0, 2): {3: one}, (1, 3): {4: one}})
    assert g.check_jacobi() == [(0, 1, 2)]
    alg_path = tmp_path / "bad.json"
    rep_path = tmp_path / "rep.json"
    save_json(fileio.algebra_to_json(g), str(alg_path))
    code, _, err = run(
        capsys, "compute", "--alg", "regular", "--in", str(alg_path), "--out", str(rep_path)
    )
    assert code == 2 and "input error" in err and "Jacobi" in err
    assert not rep_path.exists()

    zero = Representation(g, [SparseMatrix(QQ, 2, 2) for _ in range(5)])
    fileio.save_representation(zero, str(rep_path))
    code, _, err = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert code == 2 and "input error" in err and "Jacobi" in err


def test_verify_roundtrip_and_corruption(tmp_path, capsys):
    alg_path = tmp_path / "heis.json"
    rep_path = tmp_path / "rep.json"
    save_json(fileio.algebra_to_json(catalog.heisenberg(QQ)), str(alg_path))
    code, _, _ = run(
        capsys, "compute", "--alg", "dual", "--in", str(alg_path), "--out", str(rep_path)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert code == 0
    assert json.loads(out)["ok"] is True

    obj = json.loads(rep_path.read_text())
    obj["matrices"][2][0][0] = "7"
    rep_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["homomorphism"].startswith("fail")


def test_verify_zero_rep_is_homomorphism_but_unfaithful(tmp_path, capsys):
    alg_path = tmp_path / "heis.json"
    rep_path = tmp_path / "rep.json"
    heis = catalog.heisenberg(QQ)
    save_json(fileio.algebra_to_json(heis), str(alg_path))
    from nilrep.linalg import SparseMatrix
    from nilrep.representation import Representation

    rep = Representation(heis, [SparseMatrix(QQ, 2, 2) for _ in range(3)])
    fileio.save_representation(rep, str(rep_path))
    code, out, _ = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert code == 1
    report = json.loads(out)
    assert report["homomorphism"] == "ok" and report["faithful"] is False


def test_verify_checksum_mismatch(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    rep_path = tmp_path / "rep.json"
    save_json(fileio.algebra_to_json(catalog.heisenberg(QQ)), str(a_path))
    save_json(fileio.algebra_to_json(abelian_algebra(QQ, 3)), str(b_path))
    run(capsys, "compute", "--alg", "regular", "--in", str(a_path), "--out", str(rep_path))
    code, _, err = run(capsys, "verify", "--algebra", str(b_path), "--rep", str(rep_path))
    assert code == 2 and "checksum" in err


def test_verify_rejects_a_numeric_matrix_entry(tmp_path, capsys):
    alg_path = tmp_path / "heis.json"
    rep_path = tmp_path / "rep.json"
    save_json(fileio.algebra_to_json(catalog.heisenberg(QQ)), str(alg_path))
    run(capsys, "compute", "--alg", "dual", "--in", str(alg_path), "--out", str(rep_path))
    obj = json.loads(rep_path.read_text())
    obj["matrices"][0][0][0] = 0
    rep_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert code == 2 and "input error" in err and "fraction strings" in err
    assert out == ""


def test_compute_rejects_a_denominator_divisible_by_p(tmp_path, capsys):
    alg_path = tmp_path / "heis3.json"
    obj = fileio.algebra_to_json(catalog.heisenberg(GF(3)))
    obj["brackets"][0]["terms"][0][1] = "1/3"
    alg_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "compute", "--alg", "regular", "--in", str(alg_path))
    assert code == 2 and "input error" in err and "denominator" in err
    assert out == ""


def _heisenberg_file_with_terms(tmp_path, terms):
    alg_path = tmp_path / "heis.json"
    obj = fileio.algebra_to_json(catalog.heisenberg(QQ))
    obj["brackets"][0]["terms"] = terms
    alg_path.write_text(json.dumps(obj))
    return str(alg_path)


def test_compute_rejects_bracket_terms_that_are_not_a_list(tmp_path, capsys):
    path = _heisenberg_file_with_terms(tmp_path, 5)
    code, out, err = run(capsys, "compute", "--alg", "regular", "--in", path)
    assert code == 2 and "input error" in err and "must be a list" in err
    assert out == ""


def test_compute_rejects_a_repeated_bracket_target(tmp_path, capsys):
    # [[3, "1"], [3, "1"]] must not be read as [x1, x2] = x3
    path = _heisenberg_file_with_terms(tmp_path, [[3, "1"], [3, "1"]])
    code, out, err = run(capsys, "compute", "--alg", "regular", "--in", path)
    assert code == 2 and "input error" in err and "repeated target 3" in err
    assert out == ""


@pytest.mark.parametrize("corrupt, message", [
    (lambda obj: [obj], "algebra file must be a JSON object"),
    (lambda obj: {**obj, "format": "nilrep-representation"}, "not an algebra file"),
    (lambda obj: {**obj, "brackets": {}}, "brackets must be a list"),
    (lambda obj: {**obj, "brackets": obj["brackets"] * 2}, "duplicate bracket entry (1, 2)"),
    (lambda obj: {**obj, "brackets": [{**obj["brackets"][0], "terms": [[3]]}]},
     "bracket terms must be [k, coefficient] pairs"),
], ids=["not_an_object", "format", "brackets_not_a_list", "duplicate_bracket", "term_not_a_pair"])
def test_compute_rejects_a_malformed_algebra_file(tmp_path, capsys, corrupt, message):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(corrupt(fileio.algebra_to_json(catalog.heisenberg(QQ)))))
    code, out, err = run(capsys, "compute", "--alg", "regular", "--in", str(path))
    assert (code, out) == (2, "") and "input error" in err and message in err


@pytest.mark.parametrize("corrupt, message", [
    (lambda obj: {**obj, "format": "nilrep-algebra"}, "not a representation file"),
    (lambda obj: {**obj, "field": {"kind": "prime_field", "characteristic": 3}},
     "representation field does not match the algebra"),
    (lambda obj: {**obj, "matrices": obj["matrices"][:2]}, "need one matrix per basis vector"),
    (lambda obj: {**obj, "matrices": [m[:-1] for m in obj["matrices"]]}, "wrong row count"),
    (lambda obj: {**obj, "matrices": [[r[:-1] for r in m] for m in obj["matrices"]]},
     "wrong column count"),
    (lambda obj: {**obj, "provenance": []}, "provenance must be an object"),
], ids=["format", "field", "matrix_count", "row_count", "column_count", "provenance"])
def test_verify_rejects_a_malformed_representation_file(tmp_path, capsys, corrupt, message):
    alg_path = tmp_path / "heis.json"
    rep_path = tmp_path / "rep.json"
    save_json(fileio.algebra_to_json(catalog.heisenberg(QQ)), str(alg_path))
    run(capsys, "compute", "--alg", "dual", "--in", str(alg_path), "--out", str(rep_path))
    rep_path.write_text(json.dumps(corrupt(json.loads(rep_path.read_text()))))
    code, out, err = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert (code, out) == (2, "") and "input error" in err and message in err


def test_compute_deterministic_output(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        code, _, _ = run(
            capsys, "compute", "--alg", "affine", "--in", "catalog:freenilp:2,3",
            "--seed", "11", "--out", str(p),
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_tables_subset(capsys):
    code, out, _ = run(capsys, "tables", "--which", "1", "--rows", "0,4,8")
    assert code == 0
    assert out.count("MATCH") >= 9
    assert "dimension-diffs=0" in out


def test_tables_rejects_bad_rows(capsys):
    code, _, err = run(capsys, "tables", "--which", "1", "--rows", "a,b")
    assert code == 2


def test_compute_rejects_a_field_that_is_not_a_prime(capsys):
    for field in ("4", "-3", "1", "x"):
        code, out, err = run(
            capsys, "compute", "--alg", "regular", "--in", "catalog:heisenberg", "--field", field
        )
        assert code == 2 and "input error" in err and "prime" in err
        assert out == ""


def test_compute_rejects_a_field_or_catalog_size_that_is_not_ascii_digits(capsys):
    # int() reads "1_1" as 11 and the Arabic-Indic "٣" as 3
    for extra in (["--field", "1_1"], ["--field", "٣"], ["--field", " 3 3"]):
        code, out, err = run(capsys, "compute", "--alg", "regular", "--in", "catalog:heisenberg",
                             *extra)
        assert (code, out) == (2, "") and "input error" in err, extra
    for name in ("utri:٤", "utri:4_0", "freenilp:2,1_0", "freenilp:٢,3", "filiform:1_3"):
        code, out, err = run(capsys, "compute", "--alg", "regular", "--in", "catalog:" + name)
        assert (code, out) == (2, "") and "input error" in err, name


def test_compute_rejects_scalar_text_that_is_not_ascii_digits(tmp_path, capsys):
    for bad in ("1_000", "٣/2", "1/-2", "3/ 4"):
        path = _heisenberg_file_with_terms(tmp_path, [[3, bad]])
        code, out, err = run(capsys, "compute", "--alg", "regular", "--in", path)
        assert (code, out) == (2, "") and "input error" in err, bad


def test_verify_rejects_scalar_text_that_is_not_ascii_digits(tmp_path, capsys):
    alg_path = tmp_path / "heis.json"
    rep_path = tmp_path / "rep.json"
    save_json(fileio.algebra_to_json(catalog.heisenberg(QQ)), str(alg_path))
    run(capsys, "compute", "--alg", "dual", "--in", str(alg_path), "--out", str(rep_path))
    clean = json.loads(rep_path.read_text())
    l, i, j = next((l, i, j) for l, grid in enumerate(clean["matrices"])
                   for i, row in enumerate(grid) for j, x in enumerate(row) if x != "0")
    for bad in ("1_000", "٣/2", "1/-2", "3/ 4"):
        obj = json.loads(json.dumps(clean))
        obj["matrices"][l][i][j] = bad
        rep_path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
        assert (code, out) == (2, ""), bad
        assert "input error" in err, bad


def test_tables_rejects_rows_outside_the_table(capsys):
    code, out, err = run(capsys, "tables", "--which", "1", "--rows", "0,99")
    assert code == 2 and "99" in err and "0..11" in err
    assert out == ""
    code, _, err = run(capsys, "tables", "--which", "2", "--rows", "-1")
    assert code == 2 and "0..7" in err


def test_tables_rows_99_is_an_input_error(capsys):
    code, out, err = run(capsys, "tables", "--which", "3", "--rows", "99")
    assert (code, out) == (2, "")
    assert err == "input error: rows 99 outside table 3's rows 0..7\n"


@pytest.mark.parametrize("rows", ["١,0_0", "1_0", "+1", "1,", ""])
def test_tables_rows_are_ascii_digits(capsys, rows):
    # int() would run rows 1 and 0 for "١,0_0" (an Arabic-Indic digit) and row 10 for "1_0"
    code, out, err = run(capsys, "tables", "--which", "1", "--rows", rows)
    assert code == 2 and "comma-separated list of row indices" in err
    assert out == ""


def test_version_names_the_scalar_backend(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "nilrep %s (scalars: %s)\n" % (__version__, BACKEND)
    assert BACKEND in ("gmpy2", "fractions")


def test_compute_unwritable_out_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run(
        capsys, "compute", "--alg", "regular", "--in", "catalog:heisenberg", "--out", str(out)
    )
    assert code == 2 and "input error: cannot write" in err
    assert stdout == "" and not out.exists()


def _one_dim_files(tmp_path):
    """A 1-dimensional algebra file and a 1x1 representation file of it."""
    from nilrep.linalg import SparseMatrix
    from nilrep.representation import Representation

    g = abelian_algebra(QQ, 1)
    alg_path, rep_path = tmp_path / "g.json", tmp_path / "rep.json"
    save_json(fileio.algebra_to_json(g), str(alg_path))
    fileio.save_representation(Representation(g, [SparseMatrix(QQ, 1, 1)]), str(rep_path))
    return alg_path, rep_path


def test_verify_rejects_boolean_dimensions(tmp_path, capsys):
    alg_path, rep_path = _one_dim_files(tmp_path)
    code, _, _ = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert code == 1  # loads, then fails as unfaithful
    obj = json.loads(rep_path.read_text())
    obj["dim"] = obj["algebra_dim"] = True
    rep_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert code == 2 and "input error" in err and out == ""

    obj = json.loads(alg_path.read_text())
    obj["dim"] = True
    alg_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "compute", "--alg", "regular", "--in", str(alg_path))
    assert code == 2 and "input error" in err and out == ""


def test_verify_rejects_a_zero_denominator_anywhere(tmp_path, capsys):
    alg_path = tmp_path / "heis.json"
    rep_path = tmp_path / "rep.json"
    save_json(fileio.algebra_to_json(catalog.heisenberg(QQ)), str(alg_path))
    run(capsys, "compute", "--alg", "dual", "--in", str(alg_path), "--out", str(rep_path))
    clean = json.loads(rep_path.read_text())
    positions = [(l, i, j) for l, grid in enumerate(clean["matrices"])
                 for i, row in enumerate(grid) for j in range(len(row))]
    assert any(clean["matrices"][l][i][j] != "0" for l, i, j in positions)
    for l, i, j in positions:
        obj = json.loads(json.dumps(clean))
        obj["matrices"][l][i][j] = "1/0"
        rep_path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
        assert (code, out) == (2, ""), (l, i, j)
        assert "zero denominator" in err


@pytest.mark.parametrize("command", [
    ["compute", "--alg", "affine", "--in", "catalog:heisenberg"],
    ["tables", "--which", "1", "--rows", "0"],
])
@pytest.mark.parametrize("retries", ["0", "-1"])
def test_retries_below_one_is_an_input_error(capsys, command, retries):
    # both used to run one attempt without a word
    code, out, err = run(capsys, *command, "--retries", retries)
    assert (code, out) == (2, "") and "input error" in err and "--retries" in err


@pytest.mark.parametrize("timeout", ["nan", "-1", "0"])
def test_affine_timeout_must_be_positive(capsys, timeout):
    # nan used to switch the budget off, and a negative value timed out at once
    code, out, err = run(capsys, "tables", "--which", "1", "--rows", "0",
                         "--affine-timeout", timeout)
    assert (code, out) == (2, "") and "input error" in err and "--affine-timeout" in err

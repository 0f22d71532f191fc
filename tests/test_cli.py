import json

from nilrep import catalog, fileio
from nilrep.cli import main
from nilrep.fields import QQ


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_dual_heisenberg(capsys):
    code, out, _ = run(capsys, "compute", "--alg", "dual", "--in", "catalog:heisenberg")
    assert code == 0
    summary = json.loads(out)
    assert summary["dim"] == 3 and summary["status"] == "ok"


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
        return Representation(g, [SparseMatrix.zero(g.field, 2, 2) for _ in range(g.dim)])

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
    fileio.save_algebra(sl2, str(path))
    code, _, err = run(capsys, "compute", "--alg", "regular", "--in", str(path))
    assert code == 2 and "input error" in err


def test_verify_roundtrip_and_corruption(tmp_path, capsys):
    alg_path = tmp_path / "heis.json"
    rep_path = tmp_path / "rep.json"
    fileio.save_algebra(catalog.heisenberg(QQ), str(alg_path))
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
    fileio.save_algebra(heis, str(alg_path))
    from nilrep.linalg import SparseMatrix
    from nilrep.representation import Representation

    rep = Representation(heis, [SparseMatrix.zero(QQ, 2, 2) for _ in range(3)])
    fileio.save_representation(rep, str(rep_path))
    code, out, _ = run(capsys, "verify", "--algebra", str(alg_path), "--rep", str(rep_path))
    assert code == 1
    report = json.loads(out)
    assert report["homomorphism"] == "ok" and report["faithful"] is False


def test_verify_checksum_mismatch(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    rep_path = tmp_path / "rep.json"
    fileio.save_algebra(catalog.heisenberg(QQ), str(a_path))
    fileio.save_algebra(catalog.abelian_algebra(QQ, 3), str(b_path))
    run(capsys, "compute", "--alg", "regular", "--in", str(a_path), "--out", str(rep_path))
    code, _, err = run(capsys, "verify", "--algebra", str(b_path), "--rep", str(rep_path))
    assert code == 2 and "checksum" in err


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

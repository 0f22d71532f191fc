import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (
    annihilated_subspace,
    center_image,
    central_extensions,
    free_nilpotent_quotients,
    intersect,
    iterated_quotient,
    matmul,
    rebased,
    rebased_generated,
    reduce_once,
    regular_unpruned,
)
from nilrep import catalog, liealg, quotient, representation
from nilrep.fields import GF, QQ, rational
from nilrep.liealg import LieAlgebra, _generators
from nilrep.fileio import save_representation
from nilrep.linalg import SparseMatrix, Subspace, lincomb
from nilrep.quotient import algorithm_quotient
from nilrep.regular import algorithm_regular
from nilrep.representation import Representation, is_faithful, is_homomorphism

Q1 = rational(1)


def test_reduce_once_heisenberg_worked_example(heis):
    # The 7-dim module on the layer-reversed basis y, x, z acts by minus right
    # multiplication; its monomial order is 1, x, y, z, x^2, yx, y^2.  Every
    # weight-2 monomial times a generator has weight 3 > c, while x*y = yx + z
    # and y*y = y^2 are nonzero, so S = <z, x^2, yx, y^2> (positions 3-6).
    # C = z*V = <z>.  Sifting the echelon basis e3..e6 of S into C skips e3
    # (already in C), so W = <x^2, yx, y^2>, new dim 4
    rep = regular_unpruned(heis)
    center, gens = heis.center(), _generators(heis)[1]
    new_rep, W = reduce_once(rep, center, gens)
    assert W == [{4: Q1}, {5: Q1}, {6: Q1}]
    assert new_rep.dim == 4
    assert is_homomorphism(new_rep) and is_faithful(new_rep)
    # second application on 1, x, y, z: y*x = yx and y*y = y^2 are now zero,
    # x*y = z is not, so S = <y, z>, C = <z>, W = <y>, dim 3
    rep3, W2 = reduce_once(new_rep, center, gens)
    assert len(W2) == 1 and rep3.dim == 3
    assert is_homomorphism(rep3) and is_faithful(rep3)
    # fixpoint: W = 0 and the representation is returned unchanged
    rep_same, W3 = reduce_once(rep3, center, gens)
    assert W3 == [] and rep_same is rep3


def test_reduce_once_respects_termination_condition(heis):
    rep = algorithm_quotient(heis)
    gens = _generators(heis)[1]
    assert annihilated_subspace(rep, gens).dim > 0
    S = annihilated_subspace(rep, gens)
    C = center_image(rep, heis.center())
    assert intersect(S, C) == S  # S subset of C, i.e. W = 0


def test_algorithm_quotient_heisenberg(heis):
    rep = algorithm_quotient(heis)
    assert rep.dim == 3
    assert is_homomorphism(rep) and is_faithful(rep)
    assert rep.provenance["algorithm"] == "quotient"


def test_quotient_le_regular(u4):
    reg = algorithm_regular(u4)
    quo = algorithm_quotient(u4, regular_rep=reg)
    assert quo.dim <= reg.dim
    assert is_homomorphism(quo) and is_faithful(quo)


def test_quotient_strictly_decreases(heis):
    rep = regular_unpruned(heis)
    dims = [rep.dim]
    while True:
        new_rep, W = reduce_once(rep, heis.center(), _generators(heis)[1])
        if not W:
            break
        assert new_rep.dim < rep.dim
        rep = new_rep
        dims.append(rep.dim)
    assert dims == [7, 4, 3]


def test_quotient_leaves_its_regular_input_alone(heis):
    # Regular on Heisenberg (dim 3) is already a Quotient fixpoint, so no
    # round shrinks it; the result must still be a new Representation
    reg = algorithm_regular(heis)
    before = dict(reg.provenance)
    quo = algorithm_quotient(heis, regular_rep=reg)
    assert quo is not reg
    assert reg.provenance == before and reg.provenance["algorithm"] == "regular"
    assert quo.provenance["algorithm"] == "quotient"
    assert quo.dim == reg.dim == 3 and quo.matrices == reg.matrices


def test_quotient_computes_the_center_once(monkeypatch, f13):
    # the center does not change between rounds, so the loop reads it once;
    # Regular runs first because its adapted basis reads the center too
    reg = algorithm_regular(f13)
    calls = []
    center = LieAlgebra.center

    def counted(self):
        calls.append(self)
        return center(self)

    monkeypatch.setattr(LieAlgebra, "center", counted)
    quo = algorithm_quotient(f13, regular_rep=reg)
    assert len(quo.provenance["w_dims"]) > 1
    assert calls == [f13]


def test_quotient_computes_the_generators_once(monkeypatch):
    # V and its closure check do not change between rounds either: the loop
    # reads them once however many rounds the rebased f_14 needs
    g = rebased(catalog.filiform_f(14), 1)
    reg = algorithm_regular(g)
    calls = []
    generators = liealg._generators

    def counted(h):
        calls.append(h)
        return generators(h)

    for module in (liealg, representation, quotient):
        if hasattr(module, "_generators"):
            monkeypatch.setattr(module, "_generators", counted)
    quo = algorithm_quotient(g, regular_rep=reg)
    assert len(quo.provenance["w_dims"]) > 1
    assert calls == [g]


def test_quotient_rejects_a_regular_rep_of_another_algebra(heis, u4):
    with pytest.raises(ValueError, match="another algebra"):
        algorithm_quotient(heis, regular_rep=algorithm_regular(u4))
    reg = algorithm_regular(catalog.heisenberg(QQ))
    assert reg.algebra is not heis and algorithm_quotient(heis, regular_rep=reg).dim == 3


def _complement_of_s_cap_c(rep):
    """The greedy complement of M = S ∩ C in S, built from M itself: S's
    echelon rows independent of M plus the rows before them."""
    S = annihilated_subspace(rep, _generators(rep.algebra)[1])
    grown = intersect(S, center_image(rep, rep.algebra.center()))
    m_dim = grown.dim
    W = Subspace(rep.field, rep.dim)
    for row in S.sparse.values():
        if grown.add(row) is not None:
            W.add(row)
    assert W.dim + m_dim == S.dim
    return W


# Heisenberg on the basis x, y, c = 2x + z: [x, y] = c - 2x, [y, c] = 4x - 2c
HEIS_REBASED = LieAlgebra(QQ, 3, {(0, 1): {0: rational(-2), 2: Q1},
                                  (1, 2): {0: rational(4), 2: rational(-2)}})


@pytest.mark.parametrize("g, unpruned", [
    (catalog.heisenberg(QQ), False), (catalog.heisenberg(GF(3)), False),
    (catalog.heisenberg(QQ), True), (catalog.upper_triangular(4, GF(2)), False),
    (catalog.upper_triangular(5, GF(3)), False), (catalog.filiform_f(13), False),
    (HEIS_REBASED, False), (HEIS_REBASED, True),
], ids=["heisenberg/Q", "heisenberg/F3", "heisenberg-unpruned/Q", "U_4/F2", "U_5/F3",
        "f_13/Q", "heisenberg-rebased/Q", "heisenberg-rebased-unpruned/Q"])
def test_each_round_removes_the_complement_of_s_cap_c(g, unpruned):
    # sifting S into C instead of into S ∩ C keeps the same rows of S
    rep = regular_unpruned(g) if unpruned else algorithm_regular(g)
    gens = _generators(g)[1]
    while True:
        new_rep, W = reduce_once(rep, g.center(), gens)
        assert W == list(_complement_of_s_cap_c(rep).sparse.values())
        # W ⊆ S, its rows are independent, W ∩ C = 0 and W + (S ∩ C) = S
        S, C = annihilated_subspace(rep, gens), center_image(rep, g.center())
        w, grown = Subspace(rep.field, rep.dim), intersect(S, C)
        for row in W:
            assert not S.reduce(row)
            w.add(row)
            grown.add(row)
        assert w.dim == len(W) and intersect(w, C).dim == 0 and grown == S
        if not W:
            break
        rep = new_rep


# ---------------------------------------------------------------------------
# the projection against the rational projection matrix


def reference_projection(sub):
    """``(kept, P)``: the greedy coordinate complement of ``sub`` and the
    rational projection matrix onto it, each dropped column read off the
    canonical echelon form of ``sub`` with the column order reversed."""
    fld, n = sub.field, sub.ambient
    rev = Subspace(fld, n)
    for row in sub.sparse.values():
        rev.add({n - 1 - j: x for j, x in row.items()})
    dropped = {n - 1 - pc: row for pc, row in rev.sparse.items()}
    kept = [k for k in range(n) if k not in dropped]
    pos = {k: t for t, k in enumerate(kept)}
    cols = {k: {t: fld.one} for t, k in enumerate(kept)}
    for j, row in dropped.items():
        col = {pos[n - 1 - c]: fld.neg(x) for c, x in row.items() if c != n - 1 - j}
        if col:
            cols[j] = col
    return kept, SparseMatrix(fld, len(kept), n, cols)


def reference_reduce_once(rep):
    """A Quotient round that multiplies P into every restricted matrix."""
    fld = rep.field
    C = center_image(rep, rep.algebra.center())
    W = Subspace(fld, rep.dim)
    for row in annihilated_subspace(rep, _generators(rep.algebra)[1]).sparse.values():
        if C.add(row) is not None:
            W.add(row)
    if W.dim == 0:
        return rep, W
    kept, proj = reference_projection(W)
    new_mats = []
    for mat in rep.matrices:
        restricted = {t: mat.cols[k] for t, k in enumerate(kept) if k in mat.cols}
        new_mats.append(matmul(proj, SparseMatrix(fld, rep.dim, len(kept), restricted)))
    return Representation(rep.algebra, new_mats, dict(rep.provenance)), W


def typed_entries(rep):
    return [{j: {i: (x, type(x)) for i, x in col.items()} for j, col in mat.cols.items()}
            for mat in rep.matrices]


@pytest.mark.parametrize("build", [
    lambda: catalog.filiform_f(13), lambda: catalog.filiform_f(14),
    lambda: catalog.filiform_f(15), lambda: catalog.filiform_f(16),
    lambda: catalog.filiform_f(17), lambda: catalog.upper_triangular(5, GF(3)),
    lambda: catalog.upper_triangular(6, GF(2)), lambda: catalog.upper_triangular(6, QQ),
    lambda: rebased(catalog.filiform_f(13), 1),
    lambda: rebased(catalog.upper_triangular(6, QQ), 2),
    lambda: rebased(catalog.upper_triangular(5, GF(3)), 3),
], ids=["f_13", "f_14", "f_15", "f_16", "f_17", "U_5/F3", "U_6/F2", "U_6/Q",
        "rebased-f_13/Q", "rebased-U_6/Q", "rebased-U_5/F3"])
def test_rounds_match_the_projection_matrix(build):
    g = build()
    reg = algorithm_regular(g)
    rep, ref, w_dims = reg, reg, []
    while True:
        new_rep, W = reduce_once(rep, g.center(), _generators(g)[1])
        ref_rep, ref_W = reference_reduce_once(ref)
        assert W == list(ref_W.sparse.values())
        assert typed_entries(new_rep) == typed_entries(ref_rep)
        assert (new_rep.dim, new_rep.algebra) == (ref_rep.dim, ref_rep.algebra)
        if not W:
            break
        w_dims.append(len(W))
        rep, ref = new_rep, ref_rep
    quo = algorithm_quotient(g, regular_rep=reg)
    assert quo.provenance["w_dims"] == w_dims
    assert typed_entries(quo) == typed_entries(ref)


# ---------------------------------------------------------------------------
# algorithm_quotient against the paper's round on every matrix


def check_matches_the_reference_rounds(g):
    """From the pruned and the unpruned module, ``algorithm_quotient`` equals
    ``helpers.reduce_once`` repeated to its fixpoint: the same stored entries
    of the same types, ``w_dims`` and ``regular_dim``."""
    for start in (algorithm_regular(g), regular_unpruned(g)):
        quo, ref = algorithm_quotient(g, regular_rep=start), iterated_quotient(start)
        assert typed_entries(quo) == typed_entries(ref)
        assert quo.provenance == ref.provenance and quo.dim == ref.dim
        assert quo.provenance["regular_dim"] == start.dim


REFERENCE_INPUTS = [
    ("heisenberg/Q", lambda: catalog.heisenberg(QQ)),
    ("heisenberg/F3", lambda: catalog.heisenberg(GF(3))),
    ("U_5/F2", lambda: catalog.upper_triangular(5, GF(2))),
    ("U_5/Q", lambda: catalog.upper_triangular(5, QQ)),
    ("N_2_5/Q", lambda: catalog.free_nilpotent(2, 5, QQ)),
    ("N_3_3/F3", lambda: catalog.free_nilpotent(3, 3, GF(3))),
    ("f_13", lambda: catalog.filiform_f(13)),
    ("heisenberg-rebased/Q", lambda: HEIS_REBASED),
    ("rebased-U_5/F2", lambda: rebased(catalog.upper_triangular(5, GF(2)), 1)),
    ("rebased-U_5/F3", lambda: rebased(catalog.upper_triangular(5, GF(3)), 2)),
    ("rebased-N_2_4/Q", lambda: rebased(catalog.free_nilpotent(2, 4, QQ), 3)),
    ("rebased-f_13", lambda: rebased(catalog.filiform_f(13), 4)),
]


@pytest.mark.parametrize("build", [b for _n, b in REFERENCE_INPUTS],
                         ids=[n for n, _b in REFERENCE_INPUTS])
def test_quotient_matches_the_reference_rounds(build):
    check_matches_the_reference_rounds(build())


@settings(max_examples=25)
@given(free_nilpotent_quotients())
def test_quotient_matches_the_reference_rounds_on_random_quotients(g):
    check_matches_the_reference_rounds(g)


@settings(max_examples=25)
@given(central_extensions())
def test_quotient_matches_the_reference_rounds_on_random_central_extensions(g):
    check_matches_the_reference_rounds(g)


@settings(max_examples=25)
@given(rebased_generated())
def test_quotient_matches_the_reference_rounds_on_rebased_generated_algebras(g):
    check_matches_the_reference_rounds(g)


def as_fractions(rep):
    """``rep`` with every integral entry an integral ``Fraction`` instead of an ``int``."""
    return Representation(rep.algebra, [
        SparseMatrix(rep.field, mat.nrows, mat.ncols,
                     {j: {i: Fraction(x) for i, x in col.items()} for j, col in mat.cols.items()})
        for mat in rep.matrices], dict(rep.provenance))


@pytest.mark.parametrize("build", [
    lambda: catalog.heisenberg(QQ), lambda: catalog.upper_triangular(5, QQ),
    lambda: catalog.free_nilpotent(2, 5, QQ), lambda: catalog.filiform_f(13),
    lambda: HEIS_REBASED, lambda: rebased(catalog.upper_triangular(5, QQ), 1),
    lambda: rebased(catalog.filiform_f(13), 2),
], ids=["heisenberg", "U_5", "N_2_5", "f_13", "heisenberg-rebased", "rebased-U_5",
        "rebased-f_13"])
def test_integral_entries_as_fractions_give_the_same_quotient(build, tmp_path):
    # the output does not depend on whether the input's integral rationals
    # are ints or Fractions: the same entries, provenance and file bytes,
    # and the same types wherever a round projected the matrices
    g = build()
    for start in (algorithm_regular(g), regular_unpruned(g)):
        assert any(type(x) is int for mat in start.matrices for col in mat.cols.values()
                   for x in col.values())
        quo = algorithm_quotient(g, regular_rep=start)
        alt = algorithm_quotient(g, regular_rep=as_fractions(start))
        assert alt.matrices == quo.matrices and alt.provenance == quo.provenance
        if quo.provenance["w_dims"]:
            assert typed_entries(alt) == typed_entries(quo)
        save_representation(quo, str(tmp_path / "int.json"))
        save_representation(alt, str(tmp_path / "fraction.json"))
        assert (tmp_path / "int.json").read_bytes() == (tmp_path / "fraction.json").read_bytes()


# ---------------------------------------------------------------------------
# the mechanism: the rounds project the generator and center matrices alone


def counting_projections(monkeypatch):
    """Patch the ``coordinate_projection`` that Quotient calls so that each
    call records its kept list and how many vectors its ``project`` maps."""
    calls = []
    project_onto = quotient.coordinate_projection

    def counted(fld, n, rows):
        kept, project = project_onto(fld, n, rows)
        record = {"n": n, "kept": kept, "projected": 0}
        calls.append(record)

        def counted_project(vec):
            record["projected"] += 1
            return project(vec)

        return kept, counted_project

    monkeypatch.setattr(quotient, "coordinate_projection", counted)
    return calls


def kept_columns(mats, kept) -> int:
    return sum(1 for mat in mats for k in kept if k in mat.cols)


def test_the_rounds_project_only_the_generator_and_center_columns(monkeypatch):
    g = catalog.filiform_f(15)
    reg = algorithm_regular(g)
    calls = counting_projections(monkeypatch)
    quo = algorithm_quotient(g, regular_rep=reg)
    *rounds, last = calls
    assert len(rounds) == len(quo.provenance["w_dims"]) >= 2
    # the reference rounds give each round's module; the rounds carry its
    # generator matrices and M_z, with the supports the module has
    gens = [j for v in _generators(g)[1] for j in v]
    center = g.center()
    rep, full, composed = reg, 0, list(range(reg.dim))
    for record in rounds:
        assert record["n"] == rep.dim
        carried = [rep.matrices[j] for j in gens]
        carried += [lincomb(g.field, z, rep.matrices) for z in center.sparse.values()]
        assert record["projected"] == kept_columns(carried, record["kept"])
        full += kept_columns(rep.matrices, record["kept"])
        composed = [composed[k] for k in record["kept"]]
        rep, _W = reduce_once(rep, center, _generators(g)[1])
    assert typed_entries(rep) == typed_entries(quo)
    # less than half of what projecting every matrix each round takes (993
    # columns against 2181): the generator matrices are the densest
    assert 2 * sum(record["projected"] for record in rounds) < full
    # and the last projection maps every column of the input on the composed
    # kept list once
    assert (last["n"], last["kept"]) == (reg.dim, composed)
    assert last["projected"] == kept_columns(reg.matrices, composed)


MISMATCH = """
import pytest
from nilrep import catalog, quotient
from nilrep.quotient import algorithm_quotient
from nilrep.regular import algorithm_regular

g = catalog.filiform_f(13)
reg = algorithm_regular(g)
rounds = len(algorithm_quotient(g, regular_rep=reg).provenance["w_dims"])
project_onto, made = quotient.coordinate_projection, []


def shifted_last(fld, n, rows):
    # the projection after the rounds drops one more coordinate
    made.append(n)
    kept, project = project_onto(fld, n, rows)
    return (kept[1:] if len(made) > rounds else kept), project


quotient.coordinate_projection = shifted_last
with pytest.raises(RuntimeError, match="keeps other coordinates"):
    algorithm_quotient(g, regular_rep=reg)
print("raised after", rounds, "rounds")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_a_kept_list_other_than_the_rounds_raises(flags):
    # the check is no assert: it holds under python -O as well
    src = str(pathlib.Path(quotient.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, *flags, "-c", MISMATCH], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised after 5 rounds"

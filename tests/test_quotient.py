from nilrep.fields import QQ, rational
from nilrep.linalg import Subspace, intersect
from nilrep.quotient import algorithm_quotient, reduce_once
from nilrep.regular import algorithm_regular, regular_unpruned
from nilrep.representation import (
    annihilated_subspace,
    center_image,
    is_faithful,
    is_homomorphism,
)

Q0, Q1 = rational(0), rational(1)


def coord_span(indices, ambient):
    vecs = []
    for i in indices:
        v = [Q0] * ambient
        v[i] = Q1
        vecs.append(v)
    return Subspace.from_vectors(QQ, ambient, vecs)


def test_reduce_once_heisenberg_worked_example(heis):
    # The 7-dim module on the layer-reversed basis y, x, z acts by minus right
    # multiplication; its monomial order is 1, x, y, z, x^2, yx, y^2.  Every
    # weight-2 monomial times a generator has weight 3 > c, while x*y = yx + z
    # and y*y = y^2 are nonzero, so S = <z, x^2, yx, y^2> (positions 3-6).
    # C = z*V = <z>.  complement_in walks the echelon basis e3..e6 of S and
    # skips e3 (in S ∩ C), so W = <x^2, yx, y^2>, new dim 4
    rep = regular_unpruned(heis)
    new_rep, W = reduce_once(rep)
    assert W == coord_span([4, 5, 6], 7)
    assert new_rep.dim == 4
    assert is_homomorphism(new_rep) and is_faithful(new_rep)
    # second application on 1, x, y, z: y*x = yx and y*y = y^2 are now zero,
    # x*y = z is not, so S = <y, z>, C = <z>, W = <y>, dim 3
    rep3, W2 = reduce_once(new_rep)
    assert W2.dim == 1 and rep3.dim == 3
    assert is_homomorphism(rep3) and is_faithful(rep3)
    # fixpoint: W = 0 and the representation is returned unchanged
    rep_same, W3 = reduce_once(rep3)
    assert W3.dim == 0 and rep_same is rep3


def test_reduce_once_respects_termination_condition(heis):
    rep = algorithm_quotient(heis)
    assert annihilated_subspace(rep).dim > 0
    S = annihilated_subspace(rep)
    C = center_image(rep)
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
        new_rep, W = reduce_once(rep)
        if W.dim == 0:
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

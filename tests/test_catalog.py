import pytest

from nilrep.fields import GF, QQ, rational
from nilrep.hall import _commutator, expand, hall_trees, tree_degree, witt_dimension, witt_layer_dim
from nilrep.liealg import LieAlgebra
from nilrep.linalg import Subspace
from nilrep.tables import TABLE2
from nilrep import catalog

Q1 = rational(1)


# ---------------------------------------------------------------------------
# heisenberg


def test_heisenberg(heis):
    assert heis.dim == 3
    assert heis.check_jacobi() == []
    assert len(heis.lower_central_series()) - 1 == 2
    assert heis.center().dim == 1


def test_heisenberg_over_f2(heis_f2):
    assert heis_f2.check_jacobi() == []
    assert heis_f2.bracket({0: 1}, {1: 1}) == {2: 1}


# ---------------------------------------------------------------------------
# strictly upper triangular


def test_upper_triangular_dims():
    assert catalog.upper_triangular(4, QQ).dim == 6
    assert catalog.upper_triangular(7, QQ).dim == 21


def test_upper_triangular_class():
    assert len(catalog.upper_triangular(5, QQ).lower_central_series()) - 1 == 4


def test_upper_triangular_generators():
    g = catalog.upper_triangular(5, QQ)
    series = g.lower_central_series()
    assert series[0].dim - series[1].dim == 4  # n - 1 generators


def test_upper_triangular_rejects_small():
    with pytest.raises(ValueError):
        catalog.upper_triangular(1, QQ)


# ---------------------------------------------------------------------------
# free nilpotent / Hall machinery


def test_hall_level_sizes_match_witt():
    for n, c in ((2, 8), (3, 5), (4, 4)):
        levels = hall_trees(n, c)
        for m in range(1, c + 1):
            assert len(levels[m - 1]) == witt_layer_dim(n, m)


def test_witt_dimensions():
    assert witt_dimension(2, 5) == 14
    assert witt_dimension(2, 8) == 71
    assert witt_dimension(3, 4) == 32
    assert witt_dimension(4, 4) == 90


def test_expansions_are_lie_elements():
    # a commutator expansion has no constant-or-single-word asymmetry: check
    # the degree-2 and degree-3 expansions explicitly on 2 letters
    levels = hall_trees(2, 3)
    t = levels[1][0]
    assert expand(t) in ({(1, 0): 1, (0, 1): -1}, {(0, 1): 1, (1, 0): -1})
    for t in levels[2]:
        poly = expand(t)
        assert all(len(w) == 3 for w in poly)
        assert sum(poly.values()) == 0  # total coefficient of a Lie element


def reference_free_nilpotent(n, c, field):
    """N_{n,c} the two-layer way: coordinates of every bracket on the Hall
    trees in ascending order, one solver per degree, then each level
    renumbered in reverse and the pairs it turns around swapped and negated."""
    levels = hall_trees(n, c)
    trees = [t for level in levels for t in level]
    degree = [tree_degree(t) for t in trees]
    expansions = [expand(t) for t in trees]
    offset, pos = [], 0
    for level in levels:
        offset.append(pos)
        pos += len(level)
    solvers = {}

    def solver(m):
        if m not in solvers:
            lo, k = offset[m - 1], len(levels[m - 1])
            words = sorted({w for t in range(lo, lo + k) for w in expansions[t]})
            word_pos = {w: idx for idx, w in enumerate(words)}
            span = Subspace(QQ, len(words) + k)
            for t in range(k):
                row = {word_pos[w]: rational(x) for w, x in expansions[lo + t].items()}
                row[len(words) + t] = QQ.one
                assert span.add(row) < len(words)
            solvers[m] = (word_pos, span)
        return solvers[m]

    def bracket_coordinates(p, q):
        m = degree[p] + degree[q]
        poly = _commutator(expansions[p], expansions[q])
        if not poly:
            return {}
        word_pos, span = solver(m)
        nw, lo = len(word_pos), offset[m - 1]
        resid = span.reduce({word_pos[w]: rational(x) for w, x in poly.items()})
        assert all(j >= nw for j in resid)
        return {lo + j - nw: -x for j, x in resid.items()}

    dim = len(trees)
    remap = []  # old flat index -> emitted index
    for level, lo in zip(levels, offset):
        remap.extend(lo + len(level) - 1 - t for t in range(len(level)))
    table = {}
    for p in range(dim):
        for q in range(p + 1, dim):
            if degree[p] + degree[q] > c:
                continue
            entry = {}
            for k, v in bracket_coordinates(p, q).items():
                cv = field.from_int(v)
                if cv:
                    entry[remap[k]] = cv
            a, b = remap[p], remap[q]
            if a > b:
                a, b = b, a
                entry = {k: field.neg(v) for k, v in entry.items()}
            if entry:
                table[(a, b)] = entry
    return LieAlgebra(field, dim, table)


def scalar_types(g):
    return {key: {k: type(v) for k, v in terms.items()} for key, terms in g.table.items()}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@pytest.mark.parametrize("n, c", [(n, c) for n, c, *_ in TABLE2] + [(2, 1), (3, 2)])
def test_free_nilpotent_matches_the_two_layer_reference(n, c, field):
    g = catalog.free_nilpotent(n, c, field)
    ref = reference_free_nilpotent(n, c, field)
    assert g == ref
    assert scalar_types(g) == scalar_types(ref)


def test_hall_coordinates_of_degree_two_brackets():
    # every level is listed descending: e0, e1, e2 = x2, x1, x0 and
    # e3, e4, e5 = [x2, x1], [x2, x0], [x1, x0]
    assert hall_trees(3, 2)[1] == [(1, 0), (2, 0), (2, 1)]
    assert catalog.free_nilpotent(3, 2, QQ).table == {
        (0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1}
    }


def test_free_nilpotent_dims_and_jacobi():
    g = catalog.free_nilpotent(2, 5, QQ)
    assert g.dim == 14 == witt_dimension(2, 5)
    assert g.check_jacobi() == []
    g2 = catalog.free_nilpotent(3, 4, QQ)
    assert g2.dim == 32
    assert g2.check_jacobi() == []


def test_free_nilpotent_class_one_is_abelian():
    g = catalog.free_nilpotent(2, 1, QQ)
    assert g.dim == 2 and not g.table


def test_free_nilpotent_layer_dims_match_series():
    g = catalog.free_nilpotent(2, 5, QQ)
    series = g.lower_central_series()
    for m in range(1, 6):
        assert series[m - 1].dim == sum(witt_layer_dim(2, t) for t in range(m, 6))


def test_free_nilpotent_over_prime_field():
    g = catalog.free_nilpotent(2, 4, GF(5))
    assert g.dim == 8
    assert g.check_jacobi() == []


def test_free_nilpotent_rejects_bad_args():
    with pytest.raises(ValueError):
        catalog.free_nilpotent(1, 3, QQ)
    with pytest.raises(ValueError):
        catalog.free_nilpotent(2, 0, QQ)


# ---------------------------------------------------------------------------
# the filiform family


def test_filiform_alpha_f13_values():
    alpha = catalog.filiform_alpha(13)
    expected = {
        (2, 5): rational(1),
        (3, 7): rational(1, 10),
        (4, 9): rational(1, 70),
        (5, 11): rational(1, 420),
        (6, 13): rational(1, 2310),
        (3, 9): rational(1),
        (4, 11): rational(43, 126),
        (4, 13): rational(22105, 15246),
        (5, 13): rational(313, 3388),
    }
    assert alpha == expected


def test_filiform_alpha_a4n_vanishes_from_14_on():
    for n in (14, 15, 20):
        alpha = catalog.filiform_alpha(n)
        assert (4, n) not in alpha or alpha[(4, n)] == 0


def test_filiform_alpha_first_term_is_one():
    # the closed form at l = 2: 3 / (C(2,2) C(3,1)) = 1
    for n in (13, 17, 25):
        assert catalog.filiform_alpha(n)[(2, 5)] == 1


def test_filiform_alpha_inside_index_set():
    for n in (13, 14, 19):
        idx = catalog.filiform_index_set(n)
        assert set(catalog.filiform_alpha(n)) <= idx


def test_filiform_alpha_outside_index_set_is_refused(monkeypatch):
    monkeypatch.setattr(catalog, "filiform_index_set", lambda n: set())
    with pytest.raises(RuntimeError, match="outside the index set"):
        catalog.filiform_alpha(13)


def test_filiform_alpha_recurrence():
    # (l-1) a_{l,2l+1} = (4l+2) a_{l+1,2l+3}, used in the consistency proof
    for n in (15, 20):
        alpha = catalog.filiform_alpha(n)
        top = (n - 1) // 2
        for l in range(2, top):
            assert (l - 1) * alpha[(l, 2 * l + 1)] == (4 * l + 2) * alpha[(l + 1, 2 * l + 3)]


def test_filiform_requires_13_and_char_zero():
    with pytest.raises(ValueError):
        catalog.filiform_alpha(12)
    with pytest.raises(ValueError):
        catalog.filiform_f(12)
    with pytest.raises(ValueError):
        catalog.filiform_f(13, GF(5))


def test_filiform_f13_structure(f13):
    assert f13.dim == 13
    assert f13.check_jacobi() == []
    # filiform: dim g^m = n - m for 2 <= m <= n-1, class n-1
    series = f13.lower_central_series()
    assert [s.dim for s in series] == [13] + [13 - m for m in range(2, 13)] + [0]
    assert len(series) - 1 == 12


def test_filiform_first_row_brackets(f13):
    for i in range(1, 12):
        assert f13.bracket({0: Q1}, {i: Q1}) == {i + 1: Q1}
    assert f13.bracket({0: Q1}, {12: Q1}) == {}


def test_filiform_corrupting_alpha_breaks_jacobi(f13):
    table = {k: dict(v) for k, v in f13.table.items()}
    # [e_2, e_3] = alpha_{2,5} e_5: perturb it
    table[(1, 2)] = {4: rational(2)}
    assert LieAlgebra(QQ, 13, table).check_jacobi() != []


def test_pfaff_identities():
    for n in range(13, 20):
        assert catalog.pfaff_check(n) == []


def test_pfaff_first_identity_value_at_13():
    values = catalog.pfaff_identity_values(13)
    assert values[0][0] == rational(5, 12)  # (6*5)/(9*8)
    assert values[0][1] == rational(5, 12)


# ---------------------------------------------------------------------------
# catalog names


def test_from_name():
    assert catalog.from_name("heisenberg").dim == 3
    assert catalog.from_name("utri:4").dim == 6
    assert catalog.from_name("freenilp:2,5").dim == 14
    assert catalog.from_name("filiform:13").dim == 13
    with pytest.raises(ValueError):
        catalog.from_name("nope:1")
    for name in ("heisenberg:junk", "heisenberg:"):
        with pytest.raises(ValueError, match="heisenberg takes no parameters"):
            catalog.from_name(name)
    for name in ("freenilp:2,3,4", "freenilp:2"):
        with pytest.raises(ValueError, match="freenilp takes two parameters"):
            catalog.from_name(name)


def test_catalog_constructors_are_deterministic():
    a = catalog.free_nilpotent(2, 4, QQ)
    b = catalog.free_nilpotent(2, 4, QQ)
    assert a == b
    assert catalog.filiform_f(14) == catalog.filiform_f(14)

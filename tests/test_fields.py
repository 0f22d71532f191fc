import hashlib
import random
from fractions import Fraction

import pytest

from nilrep import catalog
from nilrep.dual import algorithm_dual
from nilrep.fields import GF, QQ, Field, parse_natural, rational
from nilrep.regular import algorithm_regular


def test_rationals_basics():
    assert QQ.characteristic == 0
    assert QQ.kind == "rationals"
    x = QQ.parse("22105/15246")
    assert QQ.to_str(x) == "22105/15246"
    assert QQ.to_str(QQ.parse("-6/4")) == "-3/2"
    assert QQ.canon(rational(1, 3) + rational(1, 6)) == rational(1, 2)
    assert QQ.inv(rational(3, 7)) == rational(7, 3)
    assert QQ.clean({0: rational(5) - rational(5)}) == {}


def test_prime_field_basics():
    f5 = GF(5)
    assert f5.kind == "prime_field"
    assert f5.from_int(12) == 2
    assert f5.parse("7/3") == f5.mul(2, f5.inv(3))
    assert f5.inv(4) == 4  # 4*4 = 16 = 1 mod 5
    assert f5.clean({0: 10}) == {} and f5.from_int(-1) == 4
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)
    Field(101)  # fine


def test_field_equality_and_caching():
    assert GF(7) == GF(7)
    assert GF(7) is GF(7)
    assert GF(7) != GF(5)
    assert QQ != GF(2)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        QQ.parse("1/0")
    with pytest.raises(ValueError):
        GF(3).parse("2/6")


def test_clean_keeps_canonical_nonzero_entries_in_order():
    assert GF(3).clean({4: 3, 0: 4, 2: -1, 1: 0}) == {0: 1, 2: 2}
    assert list(GF(3).clean({4: 5, 0: 4})) == [4, 0]
    assert QQ.clean({0: rational(0), 3: rational(-1, 2)}) == {3: rational(-1, 2)}


def test_random_scalar_stream():
    # seeded Affine runs depend on this stream: randrange(p) over F_p,
    # randint(-5, 5) over Q, each an int
    for field, draw in [(GF(3), lambda r: r.randrange(3)), (GF(7), lambda r: r.randrange(7)),
                        (QQ, lambda r: r.randint(-5, 5))]:
        ours, ref = random.Random(11), random.Random(11)
        got = [field.random_scalar(ours) for _ in range(200)]
        assert got == [draw(ref) for _ in range(200)]
        assert all(type(x) is int for x in got)
    assert set(QQ.random_scalar(random.Random(s)) for s in range(400)) == set(range(-5, 6))


@pytest.mark.parametrize("text", ["1_000", "٣/2", "1/-2", "3/ 4", "- 3", "--3", "+3", "3/+4",
                                  "1/2/3", "", "-", "/2", "3/", "²", "1e3", "0x1f"])
def test_parse_accepts_only_ascii_digit_fractions(text):
    # int() would read "1_000" as 1000 and "٣/2" as 3/2
    for fld in (QQ, GF(5)):
        with pytest.raises(ValueError):
            fld.parse(text)


def test_parse_keeps_the_documented_forms():
    # "22105/15246" is in test_rationals_basics
    assert QQ.parse("-3") == rational(-3)
    assert QQ.parse("1") == QQ.one
    assert QQ.parse("-0") == QQ.zero and QQ.parse(" 0/7 ") == QQ.zero
    assert GF(5).parse("-3/2") == GF(5).mul(2, GF(5).inv(2))


def test_parse_natural_takes_ascii_digits_only():
    assert parse_natural("0") == 0 and parse_natural("0017") == 17
    for text in ("1_1", "٣", " 3", "3 ", "-3", "+3", "", "³"):
        with pytest.raises(ValueError):
            parse_natural(text)


def _entries(rep):
    """(matrix, column, row, entry) of every nonzero entry, in a fixed order."""
    return [(a, j, i, x)
            for a, m in enumerate(rep.matrices)
            for j, col in sorted(m.cols.items())
            for i, x in sorted(col.items())]


def test_integral_rationals_are_python_ints():
    for x in (QQ.one, QQ.zero, QQ.parse("4/2"), QQ.inv(-1), QQ.from_int(7), rational(6, 3),
              QQ.mul(rational(2, 3), rational(3, 2))):
        assert type(x) is int
    assert QQ.parse("4/2") == 2 and QQ.inv(-1) == -1
    assert all(type(x) is int for x in QQ.clean({0: rational(4, 2), 1: Fraction(-3, 1)}).values())
    assert QQ.inv(rational(2)) == rational(1, 2) and QQ.to_str(QQ.inv(2)) == "1/2"
    for name in ("freenilp:2,5", "utri:5"):
        g = catalog.from_name(name, QQ)
        for rep in (algorithm_regular(g), algorithm_dual(g)):
            assert all(type(x) is int for *_, x in _entries(rep))


def test_filiform_dual_keeps_its_fractions_and_text():
    rep = algorithm_dual(catalog.from_name("filiform:13", QQ))
    entries = _entries(rep)
    # an integral entry is an int; every other one an exact non-integral rational
    assert all(type(x) is int or x.denominator != 1 for *_, x in entries)
    assert sum(type(x) is not int for *_, x in entries) == 397
    text = "\n".join("%d %d %d %s" % (a, j, i, QQ.to_str(x)) for a, j, i, x in entries)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "10b8957842d3205f3debae43a743a716503f173df8c0bf3caabdf7ea35577776")


def _int_entries(maps):
    return [x for m in maps for inner in m.values() for x in inner.values()]


def test_integral_maps_scale_by_the_least_common_denominator():
    maps = [{0: {0: rational(1, 6), 2: rational(3, 4)}}, {(0, 1): {1: 2}}]
    ints, s = QQ.integral_maps(maps)
    assert s == 12
    assert ints == [{0: {0: 2, 2: 9}}, {(0, 1): {1: 24}}]
    assert all(type(x) is int for x in _int_entries(ints))
    assert maps[0][0][0] == rational(1, 6)  # the input is left as it was


def test_integral_maps_of_ints_come_back_equal():
    maps = [{0: {1: 3, 2: -4}}, {(0, 2): {1: 1}}]
    ints, s = QQ.integral_maps(maps)
    assert (ints, s) == (maps, 1)
    assert all(type(x) is int for x in _int_entries(ints))


def test_integral_maps_of_nothing_have_scale_one():
    assert QQ.integral_maps([]) == ([], 1)
    assert QQ.integral_maps([{}, {0: {}}]) == ([{}, {0: {}}], 1)
    assert GF(3).integral_maps([]) == ([], 1)


def test_integral_maps_over_a_prime_field_are_the_maps_given():
    maps = [{0: {0: 2, 3: 1}}, {(0, 1): {2: 4}}]
    ints, s = GF(5).integral_maps(maps)
    assert ints is maps and s == 1
    assert maps == [{0: {0: 2, 3: 1}}, {(0, 1): {2: 4}}]


def test_divided_undoes_a_scale_to_canonical_scalars():
    row = {0: 4, 3: -6}
    assert QQ.divided(row, 1) is row and GF(5).divided(row, 1) is row
    halves = QQ.divided(row, 4)
    assert halves == {0: 1, 3: rational(-3, 2)} and type(halves[0]) is int
    assert GF(5).divided({0: 4, 3: 3}, 2) == {0: 2, 3: 4}  # 3 = 2 * 4 mod 5
    assert row == {0: 4, 3: -6}

import pytest

from nilrep.fields import GF, QQ, Field, rational


def test_rationals_basics():
    assert QQ.characteristic == 0
    assert QQ.kind == "rationals"
    x = QQ.parse("22105/15246")
    assert QQ.to_str(x) == "22105/15246"
    assert QQ.to_str(QQ.parse("-6/4")) == "-3/2"
    assert QQ.canon(rational(1, 3) + rational(1, 6)) == rational(1, 2)
    assert QQ.inv(rational(3, 7)) == rational(7, 3)
    assert QQ.is_zero(QQ.canon(rational(5) - rational(5)))


def test_prime_field_basics():
    f5 = GF(5)
    assert f5.kind == "prime_field"
    assert f5.from_int(12) == 2
    assert f5.parse("7/3") == f5.mul(2, f5.inv(3))
    assert f5.inv(4) == 4  # 4*4 = 16 = 1 mod 5
    assert f5.is_zero(10)
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

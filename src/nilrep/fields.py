"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Scalars are plain Python objects -- rational numbers for characteristic 0 and
small nonnegative ints for F_p -- so that hot loops can use native arithmetic.
A ``Field`` bundles construction, normalisation and inversion; nothing in the
library ever touches floating point.
"""

from __future__ import annotations

try:
    # gmpy2's mpq is a drop-in replacement for Fraction, several times faster.
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as _rational


def rational(value=0, den=None):
    """Build an exact rational scalar (lowest terms, positive denominator)."""
    if den is None:
        return _rational(value)
    return _rational(value, den)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Field:
    """The rationals (characteristic 0) or the prime field F_p.

    Rational scalars are ``mpq``/``Fraction`` values; F_p scalars are ints in
    ``[0, p)``.  Intermediate F_p values may leave that range inside a tight
    loop; ``canon`` brings them back.
    """

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int = 0):
        if characteristic:
            if not _is_prime(characteristic):
                raise ValueError(
                    "characteristic must be 0 or a prime, got %r" % (characteristic,)
                )
            self.zero = 0
            self.one = 1
        else:
            self.zero = _rational(0)
            self.one = _rational(1)
        self.characteristic = characteristic

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime_field"

    def from_int(self, n: int):
        if self.characteristic:
            return n % self.characteristic
        return _rational(n)

    def parse(self, text: str):
        """Parse a scalar from a fraction string like ``"-3/7"`` or ``"5"``."""
        text = text.strip()
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            num, den = int(num_s), int(den_s)
        else:
            num, den = int(text), 1
        if den == 0:
            raise ValueError("zero denominator in scalar %r" % text)
        if self.characteristic:
            return self.mul(self.from_int(num), self.inv(self.from_int(den)))
        return _rational(num, den)

    def to_str(self, x) -> str:
        return str(self.canon(x))

    def canon(self, x):
        if self.characteristic:
            return x % self.characteristic
        return x

    def is_zero(self, x) -> bool:
        if self.characteristic:
            return x % self.characteristic == 0
        return x == 0

    def add(self, a, b):
        return self.canon(a + b)

    def sub(self, a, b):
        return self.canon(a - b)

    def mul(self, a, b):
        return self.canon(a * b)

    def neg(self, a):
        return self.canon(-a)

    def inv(self, a):
        p = self.characteristic
        if p:
            a %= p
            if a == 0:
                raise ZeroDivisionError("inverse of 0 in F_%d" % p)
            return pow(a, -1, p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / _rational(a)

    def validate(self, x) -> bool:
        """Cheap sanity check that a raw scalar belongs to this field."""
        if self.characteristic:
            return isinstance(x, int)
        return not isinstance(x, float)

    def __eq__(self, other):
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        if self.characteristic:
            return "GF(%d)" % self.characteristic
        return "QQ"


QQ = Field(0)

_prime_fields: dict[int, Field] = {}


def GF(p: int) -> Field:
    """The prime field F_p (cached)."""
    try:
        return _prime_fields[p]
    except KeyError:
        fld = Field(p)
        _prime_fields[p] = fld
        return fld


def field_from_characteristic(ch: int) -> Field:
    return QQ if ch == 0 else GF(ch)

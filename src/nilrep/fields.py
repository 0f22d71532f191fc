"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Scalars are plain Python objects so that hot loops can use native arithmetic.
Over Q an integral scalar is an ``int`` and any other one a rational of the
backend that ``BACKEND`` names (gmpy2's ``mpq`` when installed, else
``fractions.Fraction``); the two mix exactly and print the same text, so the
integral tables (``U_n``, ``N_{n,c}``) and everything built from them run on
int arithmetic.  Over F_p scalars are small nonnegative ints.  A ``Field``
bundles construction, normalisation and inversion, and it is the one place
that tells F_p from Q in the exact elimination kernel (``linalg.Subspace``):
it scales rows to ints (``integral``, ``integral_maps``), eliminates
fraction-free (``eliminate``), makes rows primitive (``primitive``) and turns
scaled ints back into canonical scalars (``divided``).  Nothing in the
library ever touches floating point.
"""

from __future__ import annotations

from math import gcd, lcm

try:
    # gmpy2's mpq is a drop-in replacement for Fraction, several times faster.
    from gmpy2 import mpq as _rational

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover
    from fractions import Fraction as _rational

    BACKEND = "fractions"


def _lower(x):
    """An integral rational as a plain ``int``; any other value unchanged."""
    return int(x.numerator) if x.denominator == 1 else x


def rational(value=0, den=None):
    """Build an exact rational scalar: an ``int`` when integral, else a
    backend rational in lowest terms with a positive denominator."""
    if den is None:
        return _lower(_rational(value))
    return _lower(_rational(value, den))


def parse_natural(text: str) -> int:
    """A nonnegative integer written in ASCII digits only.

    ``int()`` would also take signs, spaces, ``_`` separators and non-ASCII
    digits, so ``"1_1"`` or ``"٣"`` would slip through as 11 or 3.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError("expected ASCII digits, got %r" % (text,))
    return int(text)


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

    Rational scalars are ``int`` when integral and ``mpq``/``Fraction`` values
    otherwise; ``rational``, ``parse``, ``from_int``, ``mul``, ``inv`` and
    ``clean`` return that form, and plain sums of it stay exact either way.
    F_p scalars are ints in ``[0, p)``.  Intermediate F_p values may leave
    that range inside a tight loop; ``canon`` brings them back.
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
        self.characteristic = characteristic

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime_field"

    def from_int(self, n: int):
        if self.characteristic:
            return n % self.characteristic
        return rational(n)

    def parse(self, text: str):
        """Parse a scalar from a fraction string like ``"-3/7"`` or ``"5"``:
        ASCII digits, a leading ``-`` on the numerator only."""
        text = text.strip()
        num_s, slash, den_s = text.partition("/")
        if num_s.startswith("-"):
            num = -parse_natural(num_s[1:])
        else:
            num = parse_natural(num_s)
        den = parse_natural(den_s) if slash else 1
        p = self.characteristic
        if den == 0 or (p and den % p == 0):
            raise ValueError("zero denominator in scalar %r over %r" % (text, self))
        if p:
            return self.mul(self.from_int(num), self.inv(self.from_int(den)))
        return rational(num, den)

    def to_str(self, x) -> str:
        return str(self.canon(x))

    def canon(self, x):
        if self.characteristic:
            return x % self.characteristic
        return x

    def clean(self, acc: dict) -> dict:
        """The canonical nonzero entries of a sparse accumulator ``{key: value}``."""
        p = self.characteristic
        if p:
            return {k: r for k, v in acc.items() if (r := v % p)}
        # _lower inlined, with ints passed straight through: this is the
        # elimination kernel's hot path
        return {
            k: v if type(v) is int or v.denominator != 1 else int(v.numerator)
            for k, v in acc.items()
            if v != 0
        }

    def integral(self, acc: dict) -> tuple:
        """``(row, s)``: the nonzero entries of a sparse accumulator times the
        least s > 0 that makes them all ints, as ints; over F_p the canonical
        entries and s = 1."""
        if self.characteristic:
            return self.clean(acc), 1
        # a plain loop: the elimination kernel calls this once per row, and
        # most rows it sees are short or empty
        row = {}
        ints = True
        for k, v in acc.items():
            if v:
                row[k] = v
                if type(v) is not int:
                    ints = False
        if ints:
            return row, 1
        s = lcm(*{int(v.denominator) for v in row.values() if type(v) is not int})
        return {
            k: v * s if type(v) is int else int(v.numerator) * (s // int(v.denominator))
            for k, v in row.items()
        }, s

    def integral_maps(self, maps: list) -> tuple:
        """``(int_maps, s)``: nested maps ``{key: {k: x}}`` (column maps or a
        structure-constant table) times the least s > 0 that makes every entry
        an int, each as ``numerator * (s // denominator)`` with no rational
        product; when s = 1, as always over F_p, the maps as given."""
        s = 1 if self.characteristic else lcm(
            1, *{int(x.denominator) for m in maps for inner in m.values()
                 for x in inner.values() if type(x) is not int})
        if s == 1:
            return maps, 1
        return [
            {key: {k: x * s if type(x) is int else int(x.numerator) * (s // int(x.denominator))
                   for k, x in inner.items()}
             for key, inner in m.items()}
            for m in maps
        ], s

    def divided(self, row: dict, s) -> dict:
        """A row of ints scaled by s > 0 back to canonical scalars: ``row``
        itself when s = 1, as always over F_p in the elimination kernel, else
        a new row with every entry divided by s."""
        if s == 1:
            return row
        p = self.characteristic
        if p:
            inv = pow(s, -1, p)
            return {j: x * inv % p for j, x in row.items()}
        # rational(x, s), with no rational built for an integral quotient
        return {j: x // s if x % s == 0 else _rational(x, s) for j, x in row.items()}

    def eliminate(self, v: dict, cols, rows: dict) -> int:
        """Eliminate from ``v``, in place, each column c of ``cols`` with the
        row ``rows[c]`` whose pivot is c; return the factor ``v`` was scaled by.

        A step is v <- (d/g) v - (f/g) rows[c] for f = v[c], d = rows[c][c] and
        g = gcd(f, d): the integer-preserving elimination of Bareiss (Math.
        Comp. 22, 1968), so integer rows stay integral.  Over F_p every stored
        pivot entry is 1, so the factor is 1 and entries are taken mod p.  The
        rows vanish on each other's pivot columns, so a step changes the entries
        of ``v`` at the other columns of ``cols`` only by the common factor.
        Zeros are dropped.
        """
        p = self.characteristic
        scale = 1
        for c in cols:
            r = rows[c]
            f = v[c]
            d = r[c]
            if d != 1:
                g = gcd(f, d)
                f //= g
                d //= g
                if d != 1:
                    for j, x in v.items():
                        v[j] = x * d
                    scale *= d
            if p:
                for j, x in r.items():
                    nv = (v.get(j, 0) - f * x) % p
                    if nv:
                        v[j] = nv
                    else:
                        del v[j]
            else:
                for j, x in r.items():
                    nv = v.get(j, 0) - f * x
                    if nv:
                        v[j] = nv
                    else:
                        del v[j]
        return scale

    def primitive(self, v: dict, piv: int):
        """Scale a nonzero row with pivot column ``piv`` in place to its
        primitive form: pivot entry 1 over F_p; over Q, where its entries are
        integers, content 1 and a positive pivot entry."""
        p = self.characteristic
        if p:
            s = pow(v[piv], -1, p)
            if s != 1:
                for j, x in v.items():
                    v[j] = x * s % p
        else:
            g = gcd(*v.values())
            if v[piv] < 0:
                g = -g
            if g != 1:
                for j, x in v.items():
                    v[j] = x // g

    def mul(self, a, b):
        if self.characteristic:
            return (a * b) % self.characteristic
        return _lower(a * b)

    def random_scalar(self, rng):
        """A scalar drawn with ``rng`` (a ``random.Random``): uniform over
        F_p, an integer in [-5, 5] over Q."""
        if self.characteristic:
            return rng.randrange(self.characteristic)
        return rng.randint(-5, 5)

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
        return _lower(_rational(1, a))

    def validate(self, x) -> bool:
        """Cheap sanity check that a raw scalar belongs to this field: an
        ``int`` (never a ``bool``), or over Q also a backend rational."""
        if type(x) is bool:
            return False
        if self.characteristic:
            return isinstance(x, int)
        return isinstance(x, (int, _rational))

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

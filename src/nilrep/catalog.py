"""Constructors for the benchmark algebras.

Covers the 3-dimensional Heisenberg algebra, strictly upper triangular
matrices U_n, free nilpotent algebras N_{n,c} on the Hall basis that
``hall.free_nilpotent_table`` builds, and the filiform family f_n (n >= 13)
over the rationals.  The alternating-sum identities the parameters of f_n
satisfy are checked by the tests (``tests/helpers.py``).
"""

from __future__ import annotations

from math import comb
from typing import Dict, Tuple

from .fields import Field, QQ, parse_natural, rational
from .hall import free_nilpotent_table
from .liealg import LieAlgebra


def heisenberg(field: Field = QQ) -> LieAlgebra:
    """Basis (x, y, z) with the single nonzero bracket [x, y] = z."""
    return LieAlgebra(field, 3, {(0, 1): {2: field.one}})


def upper_triangular(n: int, field: Field = QQ) -> LieAlgebra:
    """Strictly upper triangular n x n matrices; basis E_{ij} (i < j) in lex order."""
    if n < 2:
        raise ValueError("need n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = {p: t for t, p in enumerate(pairs)}
    table: Dict[Tuple[int, int], dict] = {}
    one = field.one
    for p in range(len(pairs)):
        a, b = pairs[p]
        for q in range(p + 1, len(pairs)):
            c, d = pairs[q]
            if b == c:  # d == a cannot hold, as (a, b) comes before (c, d)
                table[(p, q)] = {idx[(a, d)]: one}
    return LieAlgebra(field, len(pairs), table)


def free_nilpotent(n: int, c: int, field: Field = QQ) -> LieAlgebra:
    """Free nilpotent Lie algebra N_{n,c} on a Hall basis; dim per the Witt formula.

    Within each degree the Hall trees are listed in descending structural
    order; that ordering reproduces the published benchmark dimensions of the
    monomial-pruning pipeline.
    """
    if n < 2 or c < 1:
        raise ValueError("need n >= 2 generators and class c >= 1")
    dim, table = free_nilpotent_table(n, c)
    return LieAlgebra(field, dim, {
        key: {k: field.from_int(v) for k, v in terms.items()} for key, terms in table.items()
    })


# ---------------------------------------------------------------------------
# the filiform family f_n


def filiform_index_set(n: int) -> set:
    """I_n: pairs (k, s) with 2 <= k <= n//2 and 2k+1 <= s <= n (plus (n/2, n) when even)."""
    out = {(k, s) for k in range(2, n // 2 + 1) for s in range(2 * k + 1, n + 1)}
    if n % 2 == 0:
        out.add((n // 2, n))
    return out


def filiform_alpha(n: int) -> Dict[Tuple[int, int], object]:
    """The nonzero parameters alpha_{k,s} of f_n, as exact rationals."""
    if n < 13:
        raise ValueError("the filiform family starts at n = 13")
    alpha: Dict[Tuple[int, int], object] = {}
    for l in range(2, (n - 1) // 2 + 1):
        alpha[(l, 2 * l + 1)] = rational(3, comb(l, 2) * comb(2 * l - 1, l - 1))
    alpha[(3, n - 4)] = rational(1)
    alpha[(4, n - 2)] = rational(1, 7) + rational(10, 21) * rational(
        (n - 7) * (n - 8), (n - 4) * (n - 5)
    )
    if n == 13:
        alpha[(4, n)] = rational(22105, 15246)
    alpha[(5, n)] = (
        rational(1, 42)
        - rational(70 * (n - 8), 11 * (n - 2) * (n - 3) * (n - 4) * (n - 5))
        + rational(25, 99) * rational((n - 6) * (n - 7) * (n - 8), (n - 2) * (n - 3) * (n - 4))
        + rational(5, 66) * rational((n - 5) * (n - 6), (n - 2) * (n - 3))
        - rational(65, 1386) * rational((n - 7) * (n - 8), (n - 4) * (n - 5))
    )
    index_set = filiform_index_set(n)
    if not all(key in index_set for key in alpha):
        raise RuntimeError("parameter outside the index set")
    return {k: v for k, v in alpha.items() if v != 0}


def filiform_f(n: int, field: Field = QQ) -> LieAlgebra:
    """The filiform algebra f_n over the rationals (characteristic zero only)."""
    if n < 13:
        raise ValueError("the filiform family starts at n = 13")
    if field != QQ:
        raise ValueError("f_n is defined over characteristic zero")
    alpha = filiform_alpha(n)
    by_k: Dict[int, list] = {}
    for (k, s), a in alpha.items():
        by_k.setdefault(k, []).append((s, a))
    table: Dict[Tuple[int, int], dict] = {}
    one = field.one
    for i in range(2, n):  # [e_1, e_i] = e_{i+1}, 1-based
        table[(0, i - 1)] = {i: one}
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            entry: dict = {}
            for l in range((j - i - 1) // 2 + 1):
                sign = -1 if l % 2 else 1
                binom = comb(j - i - l - 1, l)  # >= 1, as 2l <= j - i - 1
                for s, a in by_k.get(i + l, ()):  # alpha_{i+l, s}, zero outside I_n
                    r = s + j - i - 2 * l - 1
                    if 1 <= r <= n:
                        entry[r - 1] = entry.get(r - 1, field.zero) + sign * binom * a
            entry = field.clean(entry)
            if entry:
                table[(i - 1, j - 1)] = entry
    return LieAlgebra(field, n, table)


# ---------------------------------------------------------------------------
# CLI catalog names


def from_name(name: str, field: Field = QQ) -> LieAlgebra:
    """Resolve a catalog name: heisenberg | utri:n | freenilp:n,c | filiform:n."""
    head, colon, rest = name.partition(":")
    head = head.strip().lower()
    if head == "heisenberg":
        if colon:
            raise ValueError("heisenberg takes no parameters, got %r" % name)
        return heisenberg(field)
    if head == "utri":
        return upper_triangular(parse_natural(rest), field)
    if head == "freenilp":
        params = rest.split(",")
        if len(params) != 2:
            raise ValueError("freenilp takes two parameters n,c, got %r" % name)
        return free_nilpotent(parse_natural(params[0]), parse_natural(params[1]), field)
    if head == "filiform":
        return filiform_f(parse_natural(rest), field)
    raise ValueError("unknown catalog name %r" % name)


__all__ = [
    "heisenberg",
    "upper_triangular",
    "free_nilpotent",
    "filiform_index_set",
    "filiform_alpha",
    "filiform_f",
    "from_name",
]

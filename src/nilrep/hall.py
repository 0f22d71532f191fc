"""Hall bases of free Lie algebras and free nilpotent structure constants.

Hall trees are nested pairs over generator letters, ordered by degree first
and recursively within a degree.  A bracket [u, v] of Hall trees is itself a
Hall tree iff u > v and (u is a letter or its right subtree is <= v).

Structure constants are obtained through the free associative algebra: each
Hall tree expands to a polynomial in words (bracket = commutator of
expansions), the expansions of the degree-m Hall trees are linearly
independent, and any bracket of basis elements is homogeneous, so reducing
it against the span of the rows [expansion_t | e_t] of its degree
recovers the coordinates from the tag columns.  This yields the same
constants as iterated Hall rewriting, without the rewriting recursion.
``free_nilpotent_table`` makes one pass over the degrees m = 2..c: it builds
the span of degree m and reduces every bracket of that degree once, with each
degree's trees numbered in descending order, the basis order of N_{n,c}.
"""

from __future__ import annotations

from typing import Dict, List

from .fields import QQ as _QQ
from .linalg import Subspace


def tree_degree(t) -> int:
    if isinstance(t, int):
        return 1
    return tree_degree(t[0]) + tree_degree(t[1])


def tree_key(t):
    """Sort key: degree first, then recursive structure."""
    if isinstance(t, int):
        return (1, (t,))
    return (tree_degree(t), (tree_key(t[0]), tree_key(t[1])))


def hall_trees(n: int, cutoff: int) -> List[list]:
    """levels[m-1]: the degree-m Hall trees on n letters, sorted by tree_key."""
    if n < 1 or cutoff < 1:
        raise ValueError("need at least one generator and class >= 1")
    levels: List[list] = [[i for i in range(n)]]
    for m in range(2, cutoff + 1):
        level = []
        for du in range(1, m):
            dv = m - du
            for u in levels[du - 1]:
                ku = tree_key(u)
                for v in levels[dv - 1]:
                    if ku <= tree_key(v):
                        continue
                    if not isinstance(u, int) and tree_key(u[1]) > tree_key(v):
                        continue
                    level.append((u, v))
        level.sort(key=tree_key)
        levels.append(level)
    return levels


def _concat_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def _commutator(a: dict, b: dict) -> dict:
    """ab - ba in the free associative algebra, zero coefficients dropped."""
    out = _concat_product(a, b)
    for w, c in _concat_product(b, a).items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def expand(t) -> dict:
    """Associative expansion of a Hall tree: {word tuple: int coefficient}."""
    if isinstance(t, int):
        return {(t,): 1}
    return _commutator(expand(t[0]), expand(t[1]))


def _mobius(m: int) -> int:
    if m == 1:
        return 1
    out = 1
    f = 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            out = -out
        f += 1
    if m > 1:
        out = -out
    return out


def witt_layer_dim(n: int, m: int) -> int:
    """Dimension of the degree-m layer of the free Lie algebra on n letters."""
    total = 0
    for e in range(1, m + 1):
        if m % e == 0:
            total += _mobius(e) * n ** (m // e)
    if total % m:
        raise RuntimeError("necklace count %d is not divisible by %d" % (total, m))
    return total // m


def witt_dimension(n: int, c: int) -> int:
    """Witt-formula dimension of the free nilpotent Lie algebra N_{n,c}."""
    return sum(witt_layer_dim(n, m) for m in range(1, c + 1))


def free_nilpotent_table(n: int, c: int) -> tuple:
    """``(dim, table)`` of N_{n,c} on its Hall basis, with int constants.

    The basis lists the Hall trees degree by degree, each degree in
    descending ``tree_key`` order; ``table[(p, q)]`` for p < q maps basis
    indices to the coefficients of [tree_p, tree_q].  Raises RuntimeError
    if the count misses the Witt dimension or the expansions of a degree
    turn out dependent or fail to span a bracket.
    """
    levels = [level[::-1] for level in hall_trees(n, c)]
    trees = [t for level in levels for t in level]
    if len(trees) != witt_dimension(n, c):
        raise RuntimeError("Hall basis of N_{%d,%d} misses the Witt dimension" % (n, c))
    degree = [tree_degree(t) for t in trees]
    expansions = [expand(t) for t in trees]
    table: Dict[tuple, dict] = {}
    lo = len(levels[0])
    for m in range(2, c + 1):
        k = len(levels[m - 1])
        words = sorted({w for t in range(lo, lo + k) for w in expansions[t]})
        word_pos = {w: idx for idx, w in enumerate(words)}
        nw = len(words)
        # rows [expansion_t | e_t]: reducing (poly | 0) against their RREF
        # leaves (0 | -coordinates of poly on the degree-m trees)
        span = Subspace(_QQ, nw + k)
        for t in range(k):
            row = {word_pos[w]: x for w, x in expansions[lo + t].items()}
            row[nw + t] = 1
            # the tag e_t keeps every row independent; a pivot on a tag
            # column means this expansion depends on the earlier ones
            if span.add(row) >= nw:
                raise RuntimeError("Hall expansions of degree %d are dependent" % m)
        for p in range(lo):
            for q in range(p + 1, lo):
                if degree[p] + degree[q] != m:
                    continue
                poly = _commutator(expansions[p], expansions[q])
                resid = span.reduce({word_pos[w]: x for w, x in poly.items()})
                if any(j < nw for j in resid):
                    raise RuntimeError("a bracket of degree %d leaves the Hall span" % m)
                if resid:
                    table[(p, q)] = {lo + j - nw: -x for j, x in sorted(resid.items())}
        lo += k
    return len(trees), dict(sorted(table.items()))

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
"""

from __future__ import annotations

from typing import Dict, List

from .fields import QQ as _QQ
from .fields import rational
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


class HallBasis:
    """Flat, degree-ordered Hall basis with per-degree expansion solvers."""

    def __init__(self, n: int, cutoff: int):
        self.n = n
        self.cutoff = cutoff
        self.levels = hall_trees(n, cutoff)
        self.trees = [t for level in self.levels for t in level]
        self.degree = [tree_degree(t) for t in self.trees]
        self.offset = []
        pos = 0
        for level in self.levels:
            self.offset.append(pos)
            pos += len(level)
        self.expansions = [expand(t) for t in self.trees]
        self._solvers: Dict[int, tuple] = {}

    def layer_size(self, m: int) -> int:
        return len(self.levels[m - 1])

    def _solver(self, m: int):
        """(word positions, the span of the rows [expansion_t | e_t])."""
        try:
            return self._solvers[m]
        except KeyError:
            pass
        lo = self.offset[m - 1]
        k = self.layer_size(m)
        words = sorted({w for t in range(lo, lo + k) for w in self.expansions[t]})
        word_pos = {w: idx for idx, w in enumerate(words)}
        nw = len(words)
        span = Subspace(_QQ, nw + k)
        for t in range(k):
            row = {word_pos[w]: rational(c) for w, c in self.expansions[lo + t].items()}
            row[nw + t] = _QQ.one
            # the tag e_t keeps every row independent; a pivot on a tag
            # column means this expansion depends on the earlier ones
            if span.add(row) >= nw:
                raise RuntimeError("Hall expansions of degree %d are dependent" % m)
        solver = (word_pos, span)
        self._solvers[m] = solver
        return solver

    def coordinates(self, poly: dict, m: int) -> list:
        """Coordinates of a degree-m Lie polynomial on the degree-m Hall trees.

        Reducing (poly | 0) against the RREF of [expansions | I] leaves
        (0 | -coordinates); a leftover word column means poly is not spanned.
        """
        word_pos, span = self._solver(m)
        nw = len(word_pos)
        vec = {}
        for w, c in poly.items():
            if w not in word_pos:
                raise ValueError("word %r is not spanned by this degree" % (w,))
            vec[word_pos[w]] = rational(c)
        resid = span.reduce(vec)
        if any(j < nw for j in resid):
            raise ValueError("polynomial is not in the Lie span of degree %d" % m)
        return [-resid.get(nw + t, _QQ.zero) for t in range(self.layer_size(m))]

    def bracket_coordinates(self, p: int, q: int) -> Dict[int, object]:
        """[tree_p, tree_q] on the Hall basis: {flat index: rational}, {} if truncated."""
        m = self.degree[p] + self.degree[q]
        if m > self.cutoff:
            return {}
        poly = _commutator(self.expansions[p], self.expansions[q])
        if not poly:
            return {}
        coords = self.coordinates(poly, m)
        lo = self.offset[m - 1]
        return {lo + t: c for t, c in enumerate(coords) if c != 0}


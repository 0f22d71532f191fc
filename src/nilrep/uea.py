"""Weight-filtered truncated universal enveloping algebra.

PBW monomials over a weight-adapted ordered basis are encoded as exponent
tuples; every monomial of weight above the nilpotency class acts as zero.
The module action is right multiplication by a generator, straightened back
to ascending PBW form with the rewrite x_k x_i = x_i x_k + [x_k, x_i]
(i < k).  In an adapted basis a bracket correction keeps or raises the
weight; the rewriting terminates because each correction has one factor
fewer.

All products monomial * generator are computed in one pass and handed to
the caller, which prunes with them and builds the module matrices; nothing
is kept on the algebra.  The table holds one dict per monomial, keyed by
generator.  A product that is a single monomial with numerator 1 (see
below), as every append m * x_i = m x_i is, is stored as the bare monomial
id; only the other products cost a dict of their own, and the loop that
fills the table adds a bare id without iterating a dict.  The monomials too
heavy for any product share one empty row.

The products run on ints.  Let mu be the least common multiple of the
denominators of the structure constants (1 over F_p) and |m| the number of
factors of a monomial m.  The coefficient of a monomial t in m * x_i is
N / mu^(|m|+1-|t|) for an integer N, and only N is stored.  Proof, by
induction in the order the products are computed.  An append m * x_i = m x_i
has the single coefficient 1 at |t| = |m|+1, so N = 1.  Otherwise
m = m' x_k with i < k and

    m x_i = (m' x_i) x_k - sum_s c_s (m' x_s),   [x_i, x_k] = sum_s c_s x_s.

A term t of m' x_i has coefficient A / mu^(|m|-|t|), and a term u of t x_k
has B / mu^(|t|+1-|u|); their product is A B / mu^(|m|+1-|u|), so the
first part adds no denominator.  A term t of m' x_s has A' / mu^(|m|-|t|),
and c_s = (mu c_s) / mu with mu c_s an integer, so the correction is
(mu c_s) A' / mu^(|m|+1-|t|): one structure constant and one factor fewer
cost exactly one power of mu.  Every part is over mu^(|m|+1-|t|), so the
numerators add as ints.  Rationals are made once, for the matrix entries
on the monomials a module keeps.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from .fields import rational
from .liealg import LieAlgebra
from .linalg import SparseMatrix


def _weight_layers(weights: Sequence[int], cutoff: int) -> list:
    """The exponent tuples of weight w, in lex order, for w = 0, 1, …, cutoff."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be at least 1")
    d = len(weights)
    layers = [[] for _ in range(cutoff + 1)]
    prefix = [0] * d
    least = [min(weights[pos:]) for pos in range(d)] + [cutoff + 1]

    def rec(pos: int, budget: int):
        # tuples come out in lex order, so every layer fills in lex order
        if budget < least[pos]:  # no room for a later factor
            layers[cutoff - budget].append(tuple(prefix))
            return
        w = weights[pos]
        for a in range(budget // w + 1):
            prefix[pos] = a
            rec(pos + 1, budget - a * w)
        prefix[pos] = 0

    rec(0, cutoff)
    return layers


def enumerate_monomials(weights: Sequence[int], cutoff: int) -> list:
    """All exponent tuples of weight ≤ cutoff, ordered by (weight, lex)."""
    return [m for layer in _weight_layers(weights, cutoff) for m in layer]


_EMPTY: dict = {}  # read-only: the default product, table entry and row


def terms(product) -> Iterable:
    """The (monomial id, numerator) pairs of one ``right_products`` entry."""
    return ((product, 1),) if type(product) is int else product.items()


class TruncatedUEA:
    """U(g)/U^{c+1}(g) on its PBW monomials, with straightened right action.

    ``algebra`` must already be written in the adapted basis (weights
    non-decreasing, brackets weight-additive).  Monomials are ordered by
    (weight, lex); ``mu`` is the denominator lcm of the structure constants.
    """

    def __init__(self, algebra: LieAlgebra, weights: Sequence[int], cutoff: int):
        if len(weights) != algebra.dim:
            raise ValueError("one weight per basis vector required")
        if any(weights[k] > weights[k + 1] for k in range(len(weights) - 1)):
            raise ValueError("weights must be non-decreasing along the basis")
        self.algebra = algebra
        self.field = algebra.field
        self.weights = tuple(weights)
        self.cutoff = cutoff
        layers = _weight_layers(self.weights, cutoff)
        self.monomials = [m for layer in layers for m in layer]
        self.weight_of = [w for w, layer in enumerate(layers) for _m in layer]
        self.index: Dict[tuple, int] = {m: t for t, m in enumerate(self.monomials)}
        self.unit = self.index[(0,) * algebra.dim]
        self._check_weight_adapted()
        # the structure constants times mu, as ints; right_products reads them
        (self._table,), self.mu = self.field.integral_maps([algebra.table])

    def _check_weight_adapted(self):
        """Every bracket [x_i, x_j] (i > j) must land in weight >= w_i + w_j, past x_i."""
        for (j, i), terms in self.algebra.table.items():
            need = self.weights[i] + self.weights[j]
            for k in terms:
                if self.weights[k] < need or k <= i:
                    raise ValueError(
                        "structure constants are not weight-adapted: "
                        "[x_%d, x_%d] hits x_%d" % (i, j, k)
                    )

    # -- right multiplication --------------------------------------------------
    #
    # monomial * x_i, straightened back to ascending PBW form.  This is the
    # monomial model behind the published benchmark dimensions: the tables
    # correspond to PBW products over the basis in reversed order, and
    # reversing products (the antipode, up to sign) turns that left action
    # into minus the right multiplication computed here.

    def right_products(self) -> list:
        """One row per monomial id: ``rows[mid][i]`` holds the integer
        numerators of monomial(mid) * x_i, the coefficient of a term t being
        N / mu^(|mid|+1-|t|) (see the module docstring).  A product that is
        one monomial t with N = 1, as every append is, is stored as the bare
        id t, any other as the dict ``{t: N}``; ``terms`` reads both.  A row
        keys only the generators with a nonzero product.

        Every term of m * x_i has weight at least w(m) + w_i, so the product
        is empty past the cutoff and is never computed.  With x_k the last
        factor of m, a product with i >= k only appends x_i.  Otherwise
        m = m' x_k and m x_i = (m' x_i) x_k - m' [x_i, x_k].  Every operand
        on the right has fewer factors than m, except the reordered term of
        m' x_i, which ends in a variable <= k, so its product with x_k is an
        append: filling the appends first and then the rest by number of
        factors finds every operand ready.
        """
        fld = self.field
        d = self.algebra.dim
        weights, cutoff, index = self.weights, self.cutoff, self.index
        table = self._table
        rows = [_EMPTY] * len(self.monomials)
        rest = [[] for _ in range(cutoff + 1)]  # by number of factors
        for mid, mono in enumerate(self.monomials):
            room = cutoff - self.weight_of[mid]
            if weights[0] > room:  # every product is past the cutoff
                continue
            k = max((j for j in range(d) if mono[j]), default=0)  # the unit only appends
            row = rows[mid] = {}
            for i in range(k, d):
                if weights[i] > room:  # and so are all later weights
                    break
                row[i] = index[mono[:i] + (mono[i] + 1,) + mono[i + 1:]]
            if k:
                shorter = index[mono[:k] + (mono[k] - 1,) + mono[k + 1:]]
                rest[sum(mono)].append((mid, k, shorter, room))
        # terms() inlined: this is the hot loop
        for layer in rest:
            for mid, k, shorter, room in layer:
                row, srow = rows[mid], rows[shorter]
                for i in range(k):
                    if weights[i] > room:
                        break
                    acc: dict = {}
                    p = srow.get(i, _EMPTY)
                    for t, a in ((p, 1),) if type(p) is int else p.items():
                        q = rows[t].get(k, _EMPTY)
                        if type(q) is int:
                            acc[q] = acc.get(q, 0) + a
                        else:
                            for u, b in q.items():
                                acc[u] = acc.get(u, 0) + a * b
                    for s, c in table.get((i, k), _EMPTY).items():
                        # s > k >= every factor of m', so m' x_s is an append
                        t = srow.get(s)
                        if t is not None:
                            acc[t] = acc.get(t, 0) - c
                    prod = fld.clean(acc)
                    if len(prod) > 1:
                        row[i] = prod
                    elif prod:
                        ((t, n),) = prod.items()
                        row[i] = t if n == 1 else prod
        return rows

    def right_action_matrices(self, products: list, active: Sequence[int]) -> list:
        """Matrices of m -> m * x_i, one per generator, on the span of the
        ordered monomial ids ``active``; monomials outside it act as zero.
        Entries are the rational values of ``products``' numerators."""
        mu = self.mu
        pos = {mid: p for p, mid in enumerate(active)}
        factors = {mid: sum(self.monomials[mid]) for mid in active}
        cols: list = [{} for _ in range(self.algebra.dim)]
        for p, mid in enumerate(active):
            top = factors[mid] + 1
            for i, prod in products[mid].items():
                col = {
                    pos[t]: n if mu == 1 else rational(n, mu ** (top - factors[t]))
                    for t, n in terms(prod)
                    if t in pos
                }
                if col:
                    cols[i][p] = col
        n = len(active)
        return [SparseMatrix(self.field, n, n, c) for c in cols]

    # -- public operations ----------------------------------------------------

    def degree_one_mid(self, k: int) -> int:
        """Monomial id of the bare generator x_k (KeyError outside range(dim))."""
        return self.index[(0,) * k + (1,) + (0,) * (self.algebra.dim - 1 - k)]

"""Weight-filtered truncated universal enveloping algebra.

PBW monomials over a weight-adapted ordered basis x_0, …, x_{d-1}; every
monomial of weight above the nilpotency class acts as zero.  The module
action is right multiplication by a generator, straightened back to
ascending PBW form with the rewrite x_k x_i = x_i x_k + [x_k, x_i] (i < k).
In an adapted basis a bracket correction keeps or raises the weight; the
rewriting terminates because each correction has one factor fewer.

A monomial x_0^e_0 ⋯ x_{d-1}^e_{d-1} is stored as one integer, its key
sum_j e_j B^(d-1-j) with B = c+1 for the cutoff c: its exponents are its
digits in base B.  Every weight is at least 1, so no exponent exceeds the
monomial's weight, at most c, and every digit is below B.  So the first
position where two exponent tuples differ decides the order of their keys,
as the later digits add up to less than one unit of it: inside a weight
layer lex order is numeric order, and the ids stay in (weight, lex) order.
Multiplying by x_j adds B^(d-1-j) to a key and dividing by x_j subtracts
it; an append never carries, as its new exponent is at most c.  The
monomials are enumerated by weight from one recurrence: a monomial m of
weight w ≥ 1 is m' x_k for its last factor x_k and an m' of weight w - w_k
whose last factor is at most k, the split ``right_products`` uses too.  So
each layer is every such append to a lower layer, sorted by key; each one's
last factor and number of factors are recorded as it is made, so nothing
reads the digits back.

Only the monomials a module can use are enumerated.  Every term of
m * x_i has weight above w(m), so a monomial of the top weight c has no
products at all.  Its degree-one ones are the generators of weight c, which
span g^c ⊆ Z(g) and are kept as central generators; any other one is
discarded by pruning before every monomial of lower weight, and is never an
operand of another product.  So the top layer holds only its degree-one
monomials, the others are counted (``skipped``) but never built, and the
products, pruning order and matrices on the enumerated monomials are those
of the full model.

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


def _places(d: int, base: int) -> list:
    """``place[j] = base^(d-1-j)``: the key of x_j, and what x_j adds to a key."""
    place = [1] * d
    for j in reversed(range(d - 1)):
        place[j] = place[j + 1] * base
    return place


def _weight_layers(weights: Sequence[int], cutoff: int) -> tuple:
    """``(layers, skipped)``: ``layers[w]`` lists the monomials of weight w in
    lex order, for w = 0, 1, …, cutoff, as three parallel lists: their keys
    (base cutoff + 1), last factors (0 for the unit) and numbers of factors.
    The top layer holds only the monomials of degree at most one; ``skipped``
    counts the others, which are never built.

    Below the top weight, layer w is every m' x_k with m' in layer w - w_k
    and last(m') <= k, sorted by key (see the module docstring)."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be at least 1")
    d = len(weights)
    if not cutoff:
        return [([0], [0], [0])], 0
    place = _places(d, cutoff + 1)
    layers = [([0], [0], [0])]
    for w in range(1, cutoff):
        keys, lasts, counts = [], [], []
        for k in range(d):
            if weights[k] <= w:
                for key, last, n in zip(*layers[w - weights[k]]):
                    if last <= k:
                        keys.append(key + place[k])
                        lasts.append(k)
                        counts.append(n + 1)
        # one sorted run per k, which the sort merges; no tuple per monomial
        order = sorted(range(len(keys)), key=keys.__getitem__)
        layers.append(([keys[i] for i in order], [lasts[i] for i in order],
                       [counts[i] for i in order]))
    # the top layer in lex order: a unit vector is larger the earlier its 1
    top = [k for k in reversed(range(d)) if weights[k] == cutoff]
    ways = [1] + [0] * cutoff  # ways[s]: the number of monomials of weight s
    for w in weights:
        for s in range(w, cutoff + 1):
            ways[s] += ways[s - w]
    top_layer = ([place[k] for k in top], top, [1] * len(top))
    return layers + [top_layer], ways[cutoff] - len(top)


_EMPTY: dict = {}  # read-only: the default product, table entry and row


def terms(product) -> Iterable:
    """The (monomial id, numerator) pairs of one ``right_products`` entry."""
    return ((product, 1),) if type(product) is int else product.items()


class TruncatedUEA:
    """U(g)/U^{c+1}(g) on its PBW monomials, with straightened right action.

    ``algebra`` must already be written in the adapted basis (weights
    non-decreasing, brackets weight-additive).  Monomials are numbered in
    (weight, lex) order; the top layer holds only its degree-one monomials,
    and ``skipped`` counts the others.  ``monomials[mid]`` is the key of
    monomial ``mid`` (see the module docstring), ``index`` maps a key back to
    its id, and ``weight_of``, ``last`` and ``factors`` hold each monomial's
    weight, last factor (0 for the unit) and number of factors.  ``mu`` is
    the denominator lcm of the structure constants.
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
        self._place = _places(algebra.dim, cutoff + 1)
        layers, self.skipped = _weight_layers(self.weights, cutoff)
        self.monomials: list = []
        self.weight_of: list = []
        self.last: list = []
        self.factors: list = []
        for w, (keys, last, factors) in enumerate(layers):
            self.monomials += keys
            self.weight_of += [w] * len(keys)
            self.last += last
            self.factors += factors
        self.index: Dict[int, int] = {m: t for t, m in enumerate(self.monomials)}
        self.unit = self.index[0]
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
        keys only the generators with a nonzero product, and a product leaves
        out its terms on skipped monomials (an append to one is dropped, and
        no other product can reach one, as it has no products itself).

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
        weights, cutoff, index, place = self.weights, self.cutoff, self.index, self._place
        monomials, weight_of, last = self.monomials, self.weight_of, self.last
        table, factors = self._table, self.factors
        rows = [_EMPTY] * len(monomials)
        rest = [[] for _ in range(cutoff + 1)]  # ids by number of factors
        for mid, key in enumerate(monomials):
            room = cutoff - weight_of[mid]
            if weights[0] > room:  # every product is past the cutoff
                continue
            k = last[mid]  # 0 for the unit, which only appends
            row = rows[mid] = {}
            for i in range(k, d):
                if weights[i] > room:  # and so are all later weights
                    break
                t = index.get(key + place[i])
                if t is not None:  # None: a skipped top-layer monomial
                    row[i] = t
            if k:
                rest[factors[mid]].append(mid)
        # terms() inlined: this is the hot loop
        for layer in rest:
            for mid in layer:
                k, room = last[mid], cutoff - weight_of[mid]
                row, srow = rows[mid], rows[index[monomials[mid] - place[k]]]
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
        mu, factors = self.mu, self.factors
        pos = {mid: p for p, mid in enumerate(active)}
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
        if not 0 <= k < self.algebra.dim:  # a negative k would index another place
            raise KeyError(k)
        return self.index[self._place[k]]

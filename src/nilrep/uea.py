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
is kept on the algebra.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .liealg import LieAlgebra
from .linalg import SparseMatrix


def monomial_weight(mono: Sequence[int], weights: Sequence[int]) -> int:
    return sum(a * w for a, w in zip(mono, weights))


def enumerate_monomials(weights: Sequence[int], cutoff: int) -> list:
    """All exponent tuples of weight ≤ cutoff, ordered by (weight, lex)."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be at least 1")
    d = len(weights)
    out = []
    prefix = [0] * d

    def rec(pos: int, budget: int):
        if pos == d:
            out.append(tuple(prefix))
            return
        w = weights[pos]
        for a in range(budget // w + 1):
            prefix[pos] = a
            rec(pos + 1, budget - a * w)
        prefix[pos] = 0

    rec(0, cutoff)
    out.sort(key=lambda m: (monomial_weight(m, weights), m))
    return out


class TruncatedUEA:
    """U(g)/U^{c+1}(g) on its PBW monomials, with straightened right action.

    ``algebra`` must already be written in the adapted basis (weights
    non-decreasing, brackets weight-additive).
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
        self.monomials = enumerate_monomials(self.weights, cutoff)
        self.index: Dict[tuple, int] = {m: t for t, m in enumerate(self.monomials)}
        self.weight_of = [monomial_weight(m, self.weights) for m in self.monomials]
        self.unit = self.index[(0,) * algebra.dim]
        self._check_weight_adapted()

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

    def right_products(self) -> dict:
        """{(mid, i): monomial(mid) * x_i} for every monomial id and generator.

        With x_k the last factor of m, a product with i >= k only appends x_i
        (or is {} past the cutoff).  Otherwise m = m' x_k and
        m x_i = (m' x_i) x_k - m' [x_i, x_k].  Every operand on the right has
        fewer factors than m, except the reordered term of m' x_i, which ends
        in a variable <= k, so its product with x_k is an append: filling the
        appends first and then the rest by number of factors finds every
        operand ready.
        """
        fld = self.field
        d = self.algebra.dim
        products: dict = {}
        rest = []
        for mid, mono in enumerate(self.monomials):
            k = max((j for j in range(d) if mono[j]), default=0)  # the unit only appends
            room = self.cutoff - self.weight_of[mid]
            for i in range(k, d):
                if self.weights[i] > room:
                    products[(mid, i)] = {}
                else:
                    bigger = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    products[(mid, i)] = {self.index[bigger]: fld.one}
            if k:
                rest.append((sum(mono), mid, k))
        rest.sort()
        for _factors, mid, k in rest:
            mono = self.monomials[mid]
            shorter = self.index[mono[:k] + (mono[k] - 1,) + mono[k + 1:]]
            for i in range(k):
                acc: dict = {}
                for t, cf in products[(shorter, i)].items():
                    for t2, cf2 in products[(t, k)].items():
                        acc[t2] = acc.get(t2, 0) + cf * cf2
                for s, cv in self.algebra.table.get((i, k), {}).items():
                    for t, cf in products[(shorter, s)].items():
                        acc[t] = acc.get(t, 0) - cv * cf
                products[(mid, i)] = fld.clean(acc)
        return products

    def right_action_matrices(self, products: dict, active: Sequence[int]) -> list:
        """Matrices of m -> m * x_i, one per generator, on the span of the
        ordered monomial ids ``active``; monomials outside it act as zero."""
        pos = {mid: p for p, mid in enumerate(active)}
        mats = []
        for i in range(self.algebra.dim):
            cols = {}
            for p, mid in enumerate(active):
                col = {pos[t]: cf for t, cf in products[(mid, i)].items() if t in pos}
                if col:
                    cols[p] = col
            mats.append(SparseMatrix(self.field, len(active), len(active), cols))
        return mats

    # -- public operations ----------------------------------------------------

    def degree_one_mid(self, k: int) -> int:
        """Monomial id of the bare generator x_k (KeyError outside range(dim))."""
        return self.index[(0,) * k + (1,) + (0,) * (self.algebra.dim - 1 - k)]

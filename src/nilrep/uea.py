"""Weight-filtered truncated universal enveloping algebra.

PBW monomials over a weight-adapted ordered basis are encoded as exponent
tuples; every monomial of weight above the nilpotency class acts as zero.
The module action is right multiplication by a generator, straightened back
to ascending PBW form with the rewrite x_k x_i = x_i x_k + [x_k, x_i]
(i < k); bracket corrections strictly raise weight, so the rewriting
terminates within the truncation.

Products are evaluated by an iterative memoised recursion.  The pruning pass
reads one support set per monomial, built from a throwaway memo of all
products, and coefficient columns are re-derived for the surviving monomials
only.
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
        self._bump = self._bump_table()
        self._check_weight_adapted()
        self._trail = self._trailing_vars()
        self._rcache: Dict[tuple, dict] = {}

    # -- construction helpers -------------------------------------------------

    def _bump_table(self):
        d = self.algebra.dim
        bump = []
        for mid, mono in enumerate(self.monomials):
            row = []
            wgt = self.weight_of[mid]
            for j in range(d):
                if wgt + self.weights[j] > self.cutoff:
                    row.append(-1)
                else:
                    bigger = list(mono)
                    bigger[j] += 1
                    row.append(self.index[tuple(bigger)])
            bump.append(row)
        return bump

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

    def _trailing_vars(self):
        """(largest variable index, monomial id with one copy of it removed)."""
        d = self.algebra.dim
        trail = []
        for mono in self.monomials:
            k = -1
            for j in range(d - 1, -1, -1):
                if mono[j]:
                    k = j
                    break
            if k < 0:
                trail.append((-1, -1))
            else:
                shorter = list(mono)
                shorter[k] -= 1
                trail.append((k, self.index[tuple(shorter)]))
        return trail

    # -- right multiplication --------------------------------------------------
    #
    # monomial * x_i, straightened back to ascending PBW form.  This is the
    # monomial model behind the published benchmark dimensions: the tables
    # correspond to PBW products over the basis in reversed order, and
    # reversing products (the antipode, up to sign) turns that left action
    # into minus the right multiplication computed here.

    def _rmul_deps_and_combine(self, mid: int, i: int, memo: dict):
        """Return (missing dependency keys) or (None, result dict)."""
        fld = self.field
        k, mid2 = self._trail[mid]
        if k < 0 or i >= k:
            t = self._bump[mid][i]
            return None, ({t: fld.one} if t >= 0 else {})
        first = memo.get((mid2, i))
        if first is None:
            return [(mid2, i)], None
        missing = []
        br = self.algebra.table.get((i, k))  # [x_k, x_i] = -[x_i, x_k], i < k here
        if br:
            for s in br:
                if (mid2, s) not in memo:
                    missing.append((mid2, s))
        for t in first:
            if (t, k) not in memo:
                missing.append((t, k))
        if missing:
            return missing, None
        acc: dict = {}
        for t, cf in first.items():
            for t2, cf2 in memo[(t, k)].items():
                acc[t2] = acc.get(t2, 0) + cf * cf2
        if br:
            for s, cv in br.items():
                for t, cf in memo[(mid2, s)].items():
                    acc[t] = acc.get(t, 0) - cv * cf
        return None, fld.clean(acc)

    def _rmul_fill(self, keys, memo: dict):
        """Iterative memoised evaluation of monomial * generator products."""
        stack = [key for key in keys if key not in memo]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            missing, result = self._rmul_deps_and_combine(key[0], key[1], memo)
            if missing is None:
                memo[key] = result
                stack.pop()
            else:
                stack.extend(missing)

    def _check_generator(self, i: int):
        if not 0 <= i < self.algebra.dim:
            raise ValueError("generator index %r outside range(%d)" % (i, self.algebra.dim))

    def right_product_ids(self, mid: int, i: int) -> dict:
        """Cached straightening of monomial(mid) * x_i (do not mutate the result)."""
        self._check_generator(i)
        key = (mid, i)
        hit = self._rcache.get(key)
        if hit is None:
            self._rmul_fill([key], self._rcache)
            hit = self._rcache[key]
        return hit

    def right_supports(self) -> list:
        """supports[mid]: the monomials hit by monomial(mid) * x_i for some i.

        Uses a throwaway memo so no product stays resident; the pruned module
        later re-derives coefficient columns for the survivors only.
        """
        n = len(self.monomials)
        memo: dict = {}
        self._rmul_fill(((mid, i) for mid in range(n) for i in range(self.algebra.dim)), memo)
        supports = [set() for _ in range(n)]
        for (mid, _i), res in memo.items():
            supports[mid].update(res)
        return supports

    def right_action_matrix(self, i: int, active: Sequence[int]) -> SparseMatrix:
        """Matrix of m -> m * x_i on the span of the ordered monomial ids
        ``active``; monomials outside it act as zero."""
        self._check_generator(i)
        pos = {mid: p for p, mid in enumerate(active)}
        cols = {}
        self._rmul_fill(((mid, i) for mid in active), self._rcache)
        for p, mid in enumerate(active):
            col = {pos[t]: cf for t, cf in self._rcache[(mid, i)].items() if t in pos}
            if col:
                cols[p] = col
        return SparseMatrix(self.field, len(active), len(active), cols)

    # -- public operations ----------------------------------------------------

    def degree_one_mid(self, k: int) -> int:
        """Monomial id of the bare generator x_k."""
        return self._bump[self.unit][k]

"""Algorithm Affine: randomized inductive construction of a (d+1)-dimensional
faithful representation in strictly-lower-triangular affine block form.

Induction runs along a central series with one-dimensional steps (the adapted
basis order).  At each step the space of 1-cocycles of the next quotient with
values in the current module is computed exactly; any cocycle with nonzero
value on the adjoined central generator yields a faithful extension

    psi(a_j) = [[M_j, delta(a_j)], [0, 0]].

The written condition "v_{d+1} != 0" is read as: the cocycle value on the
adjoined generator is nonzero -- only v_1..v_d exist at that point, and this
reading makes the faithfulness argument (ker psi contained in <a_new>, killed
by delta(a_new) != 0) go through.  If no such cocycle exists the attempt
fails; the driver restarts with fresh randomness up to a retry budget.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from .liealg import AdaptedBasis, LieAlgebra
from .linalg import SparseMatrix, Subspace, lincomb, relations
from .representation import Representation

_MIX_ATTEMPTS = 20


class AffineTimeout(Exception):
    """Raised when a cooperative deadline expires inside algorithm_affine."""


@dataclass
class AffineFail:
    """Outcome value when no attempt reached a full extension."""

    deepest_step: int
    attempts: int


def _cocycles(fld, table: dict, rows: list, n: int) -> Subspace:
    """Z¹ of the quotient spanned by a_0..a_{k-1}, k = len(rows), with values
    in the module K^k on which a_j acts by the row map ``rows[j]``
    (``{t: {u: x}}``), as stacked vectors; a_0..a_{n-1} generate g.

    Unknown j*k + t is delta(a_j)_t.  The conditions are delta([a_j, a_l]) =
    psi(a_j) delta(a_l) - psi(a_l) delta(a_j) for j < l < k, with the bracket
    read from the adapted ``table`` without its terms on a_s for s >= k: the
    quotient q by g_k.  In the adapted table [a_j, a_l] only hits s > l, so the
    three parts of a condition sit in disjoint blocks of unknowns.

    Only the pairs with j < n are used.  By Jacobi in q ⋉ K^k, the x for which
    x ↦ (x, delta(x)) respects every bracket [x, y] form a subalgebra; the
    generators a_0..a_{n-1} (a complement of [g, g]) generate q, so the
    identity on them and all of q is enough.  At row t that no psi(a_j) or
    psi(a_l) has, the condition is A·(delta(a_s)_t)_s = 0 for the truncated
    bracket A of the pair, the same for every such t; only an independent
    subset of those A is added, found once per set of generators whose psi
    has row t.  The solution set, hence the canonical kernel, is unchanged.
    """
    k = len(rows)
    conditions = Subspace(fld, k * k)
    brackets = []  # (j, l, truncated [a_j, a_l]) for the nonzero ones
    for j in range(min(n, k)):
        for l in range(j + 1, k):
            terms = {s: c for s, c in table.get((j, l), {}).items() if s < k}
            if terms:
                brackets.append((j, l, terms))
            for t in rows[j].keys() | rows[l].keys():
                row = {s * k + t: c for s, c in terms.items()}
                for u, x in rows[j].get(t, {}).items():
                    row[l * k + u] = -x
                for u, x in rows[l].get(t, {}).items():
                    row[j * k + u] = x
                conditions.add(row)  # add cleans the row itself
    independent: dict = {}  # the j whose psi(a_j) has row t -> independent brackets
    for t in range(k):
        key = frozenset(j for j, r in enumerate(rows) if t in r)
        if key not in independent:
            span = Subspace(fld, k)
            independent[key] = [terms for j, l, terms in brackets
                                if j not in key and l not in key
                                and span.add(terms) is not None]
        for terms in independent[key]:
            conditions.add({s * k + t: c for s, c in terms.items()})
    return conditions.kernel()


def _assert_faithful(fld, rows: list):
    """Raise RuntimeError unless the matrices with row maps ``rows`` are independent."""
    if relations(fld, rows).dim:
        raise RuntimeError("affine extension lost faithfulness")


def algorithm_affine(
    g: LieAlgebra,
    seed: int = 0,
    retries: int = 10,
    deadline: Optional[float] = None,
    adapted: Optional[AdaptedBasis] = None,
):
    """Try to build a faithful representation of dimension dim(g) + 1.

    Returns a Representation on success and an AffineFail value otherwise;
    runs are reproducible for a fixed seed.  ``deadline`` (time.monotonic
    value) aborts cooperatively via AffineTimeout.  ``adapted`` is
    ``g.adapted_basis()``, computed when not given.  Raises ValueError when
    ``retries`` is below 1.

    Step i adjoins a_i to the faithful module K^(i+1) of g/g_i; it fails
    when no cocycle of g/g_{i+1} is nonzero on a_i.  That verdict is exact
    for the attempt, but its earlier random choices may be to blame.  The
    cocycle is an echelon basis vector of Z¹ with nonzero value on a_i: the
    first one in the first attempt, otherwise a random one, occasionally
    perturbed by a random multiple of another basis cocycle.  Generic
    mixtures over the whole of Z¹ stall on the benchmark inputs, so the
    randomness stays close to the simple candidates.
    """
    if retries < 1:
        raise ValueError("retries must be at least 1, got %r" % (retries,))
    adapted = adapted or g.adapted_basis()
    fld = g.field
    table = adapted.algebra.table
    n = adapted.weights.count(1)  # a_0..a_{n-1} span a complement of [g, g]
    d = g.dim
    deepest = 0
    for attempt in range(retries):
        rng = random.Random(seed * 1_000_003 + attempt)
        # row maps of psi(a_0), psi(a_1), ...: psi(a_0) maps e_0 to e_1, and
        # step i adds column i + 1 to every matrix and appends psi(a_i)
        rows = [{1: {0: fld.one}}]
        for i in range(1, d):
            if deadline is not None and time.monotonic() > deadline:
                raise AffineTimeout("affine run exceeded its deadline")
            k = i + 1  # generators a_0..a_i, acting on K^k
            rows.append({})
            basis = list(_cocycles(fld, table, rows, n).sparse.values())
            lo = i * k  # delta(a_i) is stacked last, at lo..k*k-1
            candidates = [r for r in basis if max(r) >= lo]
            if not candidates:
                deepest = max(deepest, i)
                break
            if attempt == 0:
                delta = candidates[0]
            else:
                delta = candidates[rng.randrange(len(candidates))]
                # the mixing partner may be any row of Z¹, delta itself
                # included; excluding delta would change the draws and so a
                # seeded run's output
                if rng.random() < 0.5:
                    for _ in range(_MIX_ATTEMPTS):
                        extra = basis[rng.randrange(len(basis))]
                        f = fld.random_scalar(rng)
                        acc = dict(delta)
                        for c, y in extra.items():
                            acc[c] = acc.get(c, 0) + f * y
                        mixed = fld.clean(acc)
                        if mixed and max(mixed) >= lo:
                            delta = mixed
                            break
            # the cocycle value on a_j is the new column k of psi(a_j)
            for c, x in delta.items():
                j, t = divmod(c, k)
                rows[j].setdefault(t, {})[k] = x
            _assert_faithful(fld, rows)
        else:
            mats = [SparseMatrix(fld, d + 1, d + 1, r).transpose() for r in rows]
            return Representation(
                g,
                [lincomb(fld, adapted.inverse[l], mats) for l in range(d)],
                {"algorithm": "affine", "dim": d + 1, "seed": seed, "attempt": attempt},
            )
    return AffineFail(deepest_step=deepest, attempts=retries)

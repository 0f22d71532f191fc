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

Z¹ is solved level by level (``_cocycles``).  Every psi(a_j) is strictly
triangular in the order e_{k-1}, ..., e_2, e_0, e_1, since each step adds
the new coordinate as a column over the earlier ones, and the solve visits
the module rows in that fixed order.  The brackets of the generators
a_0..a_{g-1} with a_0..a_{k-1}, cut at a_k, span exactly a_g..a_{k-1}, so
their matrix A has full column rank: at each row of the
module, the cocycle values on a_g..a_{k-1} are fixed by the rows above it,
and what is left are linear relations.  Everything is thus a linear form
in the g·k values on the generators, and those come first among the
unknowns, so the canonical kernel rows of the relations, extended by the
forms, are Z¹'s canonical RREF rows: those of a solve over all k² unknowns.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .liealg import AdaptedBasis, LieAlgebra
from .linalg import SparseMatrix, Subspace, combine, lincomb, relations
from .representation import Representation

_MIX_ATTEMPTS = 20


class AffineTimeout(Exception):
    """Raised when a cooperative deadline expires inside algorithm_affine."""


@dataclass
class AffineFail:
    """Outcome value when no attempt reached a full extension."""

    deepest_step: int
    attempts: int


def _bracket_solve(fld, table: dict, k: int, g: int) -> tuple:
    """``(pairs, ties, scale, solved)`` for the truncated brackets A_p of
    the pairs p = (j, l), j < g, j < l < k: [a_j, a_l] without its terms on
    a_s for s >= k.

    A pair with A_p = 0 gives the relation e_p.  The rows (A_p | e_p) of the
    other pairs are sifted into one ``Subspace`` with a tag column per pair.
    A row (v | tau) of its span has v = sum tau_p A_p, so a primitive row
    with pivot s < k reads d e_s = sum tau_p A_p, and one with a tag pivot is
    a relation sum tau_p A_p = 0; ``ties`` lists all those tau.  ``solved[s]``
    is the tau of pivot s times scale / d, for one ``scale`` shared by every s.
    Raises RuntimeError unless the A_p span exactly the unit vectors
    e_g..e_{k-1}, as they do for an adapted table whose first g vectors
    generate: [q, q] is spanned by the brackets of the generators with q,
    and it is the span of a_g..a_{k-1}.
    """
    pairs = [(j, l) for j in range(g) for l in range(j + 1, k)]
    space = Subspace(fld, k + len(pairs))
    ties = []
    for p, (j, l) in enumerate(pairs):
        row = {s: c for s, c in table.get((j, l), {}).items() if s < k}
        if row:
            row[k + p] = fld.one
            space.add(row)
        else:
            ties.append({p: fld.one})
    if [s for s in space.pivots if s < k] != list(range(g, k)):
        raise RuntimeError("the generator brackets do not span exactly a_%d..a_%d: "
                           "the table is not adapted" % (g, k - 1))
    solved = {}
    for pc in space.pivots:
        row = space.primitive_row(pc)
        tau = {c - k: x for c, x in row.items() if c >= k}
        if pc < k:
            solved[pc] = (row[pc], tau)
        else:
            ties.append(tau)
    scale = lcm(1, *(d for d, _tau in solved.values()))
    solved = {s: {p: x * (scale // d) for p, x in tau.items()}
              for s, (d, tau) in solved.items()}
    return pairs, ties, scale, solved


def _cocycles(fld, solve: tuple, rows: list, n: int) -> list:
    """Z¹ of the quotient spanned by a_0..a_{k-1}, k = len(rows), with values
    in the module K^k on which a_j acts by the row map ``rows[j]``
    (``{t: {u: x}}``), as stacked vectors; a_0..a_{n-1} generate g.

    Unknown j*k + t is X[t][j] = delta(a_j)_t.  The conditions are
    delta([a_j, a_l]) = psi(a_j) delta(a_l) - psi(a_l) delta(a_j), with the
    bracket read from the adapted table without its terms on a_s for
    s >= k: the quotient q by g_k.  By Jacobi in q ⋉ K^k, the x for which
    x ↦ (x, delta(x)) respects every bracket [x, y] form a subalgebra, so
    the pairs p = (j, l) with j < g = min(n, k) are enough.  Row t of the
    condition of p reads

        A_p · X[t] = B_{t,p} = sum_u psi_j[t][u] X[u][l] - psi_l[t][u] X[u][j].

    The truncated brackets A_p live on the columns g..k-1 and span them
    (``solve``, the table's ``_bracket_solve`` for this k and g): A has full
    column rank, so the B_{t,p} fix the X[t][s], s >= g, and the left kernel
    of A gives the relations that the B_{t,p} must satisfy.  Each psi(a_j)
    is strictly triangular in the order e_{k-1}, ..., e_2, e_0, e_1, since
    Affine adds each new coordinate as a column over the earlier ones, so
    B_{t,p} reads only X[u] of rows u before t; visiting the rows some psi
    has in that order writes each B_{t,p}, and so each X[t][s], as a linear
    form over the generator unknowns j*k + t, j < g.  A row that no psi has
    gets B = 0, so X[t][s] = 0 there.  Raises RuntimeError when an entry
    (t, u) of some psi reads a row u that some psi has and that is not
    visited before t.

    The relations cut the generator unknowns down to a subspace of K^(g k).
    They are sifted with the columns reversed, so that the kernel vector of
    each free column f (``Subspace.kernel_vectors``) has its other entries
    past f at pivot columns: a multiple of the canonical kernel row with
    pivot f.  Each extended by the forms and divided by its entry at f, its
    smallest column, they are Z¹'s canonical RREF rows, returned in pivot
    order, because a cocycle is determined by its generator block and those
    unknowns come first: the pivots stay in the block, and the rows still
    vanish on each other's pivots.

    The forms are ints over one scale per row (X[t][s] = F_{t,s} / sigma_t)
    and the psi ints over one scale, so over Q the solve runs on ints as it
    does over F_p.
    """
    k = len(rows)
    g = min(n, k)
    pairs, ties, scale, solved = solve
    psi, lam = fld.integral_maps(rows)
    forms: dict = {}  # t -> (sigma_t, {s: F_{t,s}}) for the rows some psi has
    last = g * k - 1
    conditions = Subspace(fld, g * k)  # column last - c is generator unknown c
    has = set().union(*psi)
    for t in (*range(k - 1, 1, -1), 0, 1):
        if t not in has:
            continue
        here = [r.get(t, {}) for r in psi]
        if any(u in has and u not in forms for r in here for u in r):
            raise RuntimeError("the module matrices are not strictly triangular "
                               "in the order e_%d, ..., e_2, e_0, e_1" % (k - 1))
        m = lcm(1, *(forms[u][0] for j in range(g) for u in here[j] if u in forms))
        b = {}  # p -> m * lam * B_{t,p}, a form over the generator unknowns
        for p, (j, l) in enumerate(pairs):
            if not (here[j] or here[l]):
                continue
            acc: dict = {}
            for u, x in here[j].items():
                if l < g:
                    acc[l * k + u] = acc.get(l * k + u, 0) + x * m
                elif u in forms and l in forms[u][1]:
                    sigma, fs = forms[u]
                    f = x * (m // sigma)
                    for c, y in fs[l].items():
                        acc[c] = acc.get(c, 0) + f * y
            for u, x in here[l].items():
                acc[j * k + u] = acc.get(j * k + u, 0) - x * m
            b[p] = acc
        for tau in ties:
            if row := combine(fld, tau, b):
                conditions.add({last - c: x for c, x in row.items()})
        fs = {s: f for s, tau in solved.items() if (f := combine(fld, tau, b))}
        sigma = scale * lam * m
        common = gcd(sigma, *(x for f in fs.values() for x in f.values()))
        forms[t] = (sigma // common, {s: {c: x // common for c, x in f.items()}
                                      for s, f in fs.items()})
    total = lcm(1, *(sigma for sigma, _fs in forms.values()))
    images: dict = {}  # c -> {s*k + t: total * F_{t,s}[c] / sigma_t}
    for t, (sigma, fs) in forms.items():
        f = total // sigma
        for s, form in fs.items():
            for c, x in form.items():
                images.setdefault(c, {})[s * k + t] = x * f
    out = []
    for v in conditions.kernel_vectors():
        v = {last - c: x for c, x in v.items()}
        row = combine(fld, v, images)
        row.update((c, x * total) for c, x in v.items())
        out.append(fld.divided(fld.clean(row), v[min(v)] * total))
    return out[::-1]


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
    ``retries`` is below 1 or ``adapted`` was built for another algebra.

    Step i adjoins a_i to the faithful module K^(i+1) of g/g_i; it fails
    when no cocycle of g/g_{i+1} is nonzero on a_i.  That verdict is exact
    for the attempt, but its earlier random choices may be to blame.  The
    cocycle is an echelon basis vector of Z¹ with nonzero value on a_i: the
    first one in the first attempt, otherwise a random one, occasionally
    perturbed by a random multiple of another basis cocycle.  Generic
    mixtures over the whole of Z¹ stall on the benchmark inputs, so the
    randomness stays close to the simple candidates.  The bracket solve of a
    step depends on the step alone; it runs when an attempt first reaches it.
    """
    if retries < 1:
        raise ValueError("retries must be at least 1, got %r" % (retries,))
    adapted = adapted or g.adapted_basis()
    if adapted.source != g:
        raise ValueError("adapted basis was built for another algebra")
    fld = g.field
    table = adapted.algebra.table
    n = adapted.weights.count(1)  # a_0..a_{n-1} span a complement of [g, g]
    d = g.dim
    deepest = 0
    solves: dict = {}  # k -> _bracket_solve for step k, shared by the attempts
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
            if k not in solves:
                solves[k] = _bracket_solve(fld, table, k, min(n, k))
            basis = _cocycles(fld, solves[k], rows, n)
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
                        mixed = combine(fld, {0: fld.one, 1: f}, {0: delta, 1: extra})
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

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
from typing import Optional, Sequence

from .liealg import AdaptedBasis, LieAlgebra
from .linalg import SparseMatrix, Subspace, lincomb
from .representation import Representation, homomorphism_failure, kernel

_RANDOM_BOUND = 5  # rational runs draw cocycle mix coefficients from [-5, 5]
_MIX_ATTEMPTS = 20


class AffineTimeout(Exception):
    """Raised when a cooperative deadline expires inside algorithm_affine."""


@dataclass
class AffineFail:
    """Outcome value when no attempt reached a full extension."""

    deepest_step: int
    attempts: int

    def __repr__(self):
        return "AffineFail(deepest_step=%d, attempts=%d)" % (self.deepest_step, self.attempts)


@dataclass
class AffineState:
    """Faithful block representation of g/g_i during the induction."""

    algebra: LieAlgebra  # full algebra in the adapted (central series) basis
    step: int  # dimension i of the quotient currently represented
    matrices: list  # (i+1)x(i+1) SparseMatrix for each of a_1..a_i
    rng: random.Random


def _truncated_quotient(adapted_algebra: LieAlgebra, k: int) -> LieAlgebra:
    """g/g_k in the adapted basis: keep indices < k, drop bracket tails."""
    table = {}
    for (i, j), terms in adapted_algebra.table.items():
        if i < k and j < k:
            entry = {t: c for t, c in terms.items() if t < k}
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(adapted_algebra.field, k, table)


def one_cocycles(q: LieAlgebra, rho: Sequence[SparseMatrix], check: bool = True) -> Subspace:
    """Z¹(q, K^m) for the module given by the m x m matrices rho, as stacked vectors.

    Unknowns are the stacked images delta(a_1)..delta(a_k) in K^m; the rows
    encode delta([a_j, a_l]) = rho(a_j) delta(a_l) - rho(a_l) delta(a_j) for
    all basis pairs.  ``rho`` must be a representation of q.
    """
    fld = q.field
    k = q.dim
    if len(rho) != k:
        raise ValueError("need one matrix per basis vector of q")
    m = rho[0].nrows
    if check:
        bad = homomorphism_failure(Representation(q, rho))
        if bad is not None:
            raise ValueError("rho is not a representation: pair %r fails" % (bad,))
    mat_rows = [dict(mat.iter_rows()) for mat in rho]
    conditions = Subspace(fld, k * m)
    for j in range(k):
        for l in range(j + 1, k):
            terms = q.table.get((j, l), {})
            # without bracket terms, row t is empty unless rho(a_j) or rho(a_l) has a row t
            rows_t = range(m) if terms else sorted(mat_rows[j].keys() | mat_rows[l].keys())
            for t in rows_t:
                row: dict = {}
                for s, c in terms.items():
                    row[s * m + t] = row.get(s * m + t, 0) + c
                for u, x in mat_rows[j].get(t, {}).items():
                    row[l * m + u] = row.get(l * m + u, 0) - x
                for u, x in mat_rows[l].get(t, {}).items():
                    row[j * m + u] = row.get(j * m + u, 0) + x
                conditions.add(row)  # add cleans the row itself
    return conditions.kernel()


def _random_scalar(fld, rng: random.Random):
    if fld.characteristic:
        return rng.randrange(fld.characteristic)
    return fld.from_int(rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND))


def extend_step(state: AffineState, greedy: bool = False) -> Optional[AffineState]:
    """Extend a faithful representation of g/g_i to g/g_{i+1}, or fail.

    Fail (None) means: no cocycle of the next quotient evaluates to a nonzero
    vector on the adjoined central generator.  That verdict is exact for the
    current state, but earlier random choices may be to blame.

    The cocycle is chosen among the echelon basis vectors of Z¹ with nonzero
    evaluation: the first one when ``greedy``, otherwise a random one,
    occasionally perturbed by a random multiple of another basis cocycle.
    Generic mixtures over the whole of Z¹ stall on the benchmark inputs, so
    the randomness stays close to the simple candidates.
    """
    fld = state.algebra.field
    i = state.step
    m = i + 1  # current module dimension
    qnext = _truncated_quotient(state.algebra, i + 1)
    rho = list(state.matrices) + [SparseMatrix(fld, m, m)]
    cocycles = one_cocycles(qnext, rho, check=False)
    eval_lo = i * m

    def evaluates_nonzero(row):
        return any(eval_lo <= c < eval_lo + m for c in row)

    rows = list(cocycles.sparse.values())
    candidates = [r for r in rows if evaluates_nonzero(r)]
    if not candidates:
        return None
    if greedy:
        delta = candidates[0]
    else:
        rng = state.rng
        delta = candidates[rng.randrange(len(candidates))]
        # the mixing partner may be any row of Z¹, delta itself included;
        # excluding delta would change the draws and so a seeded run's output
        if rng.random() < 0.5:
            for _ in range(_MIX_ATTEMPTS):
                extra = rows[rng.randrange(len(rows))]
                f = _random_scalar(fld, rng)
                acc = dict(delta)
                for c, y in extra.items():
                    acc[c] = acc.get(c, 0) + f * y
                mixed = fld.clean(acc)
                if evaluates_nonzero(mixed):
                    delta = mixed
                    break
    new_mats = []
    for j in range(i + 1):
        # old block, the cocycle value on a_j as the new last column, zero last row
        cols = dict(state.matrices[j].cols) if j < i else {}
        vj = {c - j * m: x for c, x in delta.items() if j * m <= c < (j + 1) * m}
        if vj:
            cols[m] = vj
        new_mats.append(SparseMatrix(fld, m + 1, m + 1, cols))
    _assert_trivial_kernel(qnext, new_mats)
    return AffineState(state.algebra, i + 1, new_mats, state.rng)


def _assert_trivial_kernel(q: LieAlgebra, mats: Sequence[SparseMatrix]):
    if kernel(Representation(q, mats)).dim:
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
    """
    if retries < 1:
        raise ValueError("retries must be at least 1, got %r" % (retries,))
    adapted = adapted or g.adapted_basis()
    fld = g.field
    d = g.dim
    deepest = 0
    for attempt in range(retries):
        rng = random.Random(seed * 1_000_003 + attempt)
        base = [SparseMatrix(fld, 2, 2, {0: {1: fld.one}})]
        state = AffineState(adapted.algebra, 1, base, rng)
        failed_at = None
        while state.step < d:
            if deadline is not None and time.monotonic() > deadline:
                raise AffineTimeout("affine run exceeded its deadline")
            nxt = extend_step(state, greedy=(attempt == 0))
            if nxt is None:
                failed_at = state.step
                break
            state = nxt
        if failed_at is None:
            deepest = d
            mats = [lincomb(fld, adapted.inverse[l], state.matrices) for l in range(d)]
            return Representation(
                g,
                mats,
                {"algorithm": "affine", "dim": d + 1, "seed": seed, "attempt": attempt},
            )
        deepest = max(deepest, failed_at)
    return AffineFail(deepest_step=deepest, attempts=retries)

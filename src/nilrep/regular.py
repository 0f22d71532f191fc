"""Algorithm Regular: the truncated-enveloping-algebra module and its pruning.

The unpruned module is spanned by all PBW monomials of weight at most the
nilpotency class c; the pruning loop greedily moves a monomial a (never 1 and
never a central generator) to the discard set whenever the product of a with
every generator already lies in the discarded span.  The reachable fixpoint is
unique for a given monomial model, so the sweep order below (weight
descending) only affects speed, not the result.

The monomial model is the one whose pruned dimensions reproduce the
published tables: PBW products over the reversed basis order (weight
descending, original index order inside a weight layer).  Reversing products
identifies that module with minus-right multiplication on ascending monomials
of the layer-reversed adapted basis, which is how it is computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .liealg import AdaptedBasis, LieAlgebra
from .linalg import invert, lincomb
from .representation import Representation
from .uea import TruncatedUEA


def partitions(j: int) -> int:
    """Number of partitions of j, with p(0) = 1."""
    if j < 0:
        raise ValueError("negative argument")
    table = [1] + [0] * j
    for part in range(1, j + 1):
        for total in range(part, j + 1):
            table[total] += table[total - part]
    return table[j]


def nu(d: int, c: int) -> int:
    """The dimension bound sum_{j=0}^{c} C(d-j, c-j) p(j) of the regular module."""
    if c < 0 or d < c:
        raise ValueError("need 0 <= c <= d")
    return sum(comb(d - j, c - j) * partitions(j) for j in range(c + 1))


# ---------------------------------------------------------------------------
# pruning


@dataclass
class PruneState:
    """Active/discarded split of the monomial basis during pruning."""

    uea: TruncatedUEA
    active: set
    protected: frozenset
    removed: list  # monomial ids in removal order


def initial_prune_state(uea: TruncatedUEA, central_ids) -> PruneState:
    """Start state: everything active, the unit and central generators protected."""
    protected = {uea.unit}
    for k in central_ids:
        protected.add(uea.degree_one_mid(k))
    return PruneState(uea, set(range(len(uea.monomials))), frozenset(protected), [])


def prune(state: PruneState) -> PruneState:
    """Run removal sweeps (weight descending) until a sweep removes nothing."""
    uea = state.uea
    d = uea.algebra.dim
    masks = uea.right_support_masks()
    active_mask = 0
    for mid in state.active:
        active_mask |= 1 << mid
    order = sorted(state.active, reverse=True)  # canonical order is mid order
    active = set(state.active)
    removed = list(state.removed)
    while True:
        changed = False
        for mid in order:
            if mid not in active or mid in state.protected:
                continue
            if all((masks[i][mid] & active_mask) == 0 for i in range(d)):
                active.discard(mid)
                active_mask &= ~(1 << mid)
                removed.append(mid)
                changed = True
        if not changed:
            break
    return PruneState(uea, active, state.protected, removed)


# ---------------------------------------------------------------------------
# module construction


@dataclass
class PrunedModule:
    """Shared result of Regular's pruning, reused by Dual and Quotient.

    ``basis_matrix`` rows are the layer-reversed adapted basis vectors in
    original coordinates; ``module_matrices[t]`` is the module action of that
    basis vector on the active monomial span (minus the right
    multiplication), already a Lie algebra homomorphism.
    """

    algebra: LieAlgebra
    adapted: AdaptedBasis
    uea: TruncatedUEA  # restricted to the pruned active set
    state: PruneState
    central_ids: tuple
    basis_matrix: tuple
    basis_inverse: tuple
    module_matrices: list

    @property
    def dim(self) -> int:
        return len(self.uea.active)

    def to_original_basis(self, module_matrices) -> list:
        """Matrices for the original algebra basis from per-basis-vector ones."""
        fld = self.algebra.field
        return [
            lincomb(fld, self.basis_inverse[l], module_matrices)
            for l in range(self.algebra.dim)
        ]


def _reverse_layers(weights) -> list:
    """Permutation reversing the order inside every weight layer."""
    perm = []
    i = 0
    while i < len(weights):
        j = i
        while j < len(weights) and weights[j] == weights[i]:
            j += 1
        perm.extend(range(j - 1, i - 1, -1))
        i = j
    return perm


def _permuted_algebra(ga: LieAlgebra, perm) -> LieAlgebra:
    """Rewrite structure constants so that new basis vector t is old perm[t]."""
    fld = ga.field
    inv = {old: new for new, old in enumerate(perm)}
    table = {}
    for (i, j), terms in ga.table.items():
        a, b, sign = inv[i], inv[j], 1
        if a > b:
            a, b, sign = b, a, -1
        entry = {}
        for k, c in terms.items():
            v = fld.canon(sign * c)
            if v != 0:
                entry[inv[k]] = v
        if entry:
            table[(a, b)] = entry
    return LieAlgebra(fld, ga.dim, table)


def _invert_rows(rows, fld):
    return tuple(tuple(r) for r in invert([list(r) for r in rows], fld))


def build_truncated_uea(g: LieAlgebra, adapted: Optional[AdaptedBasis] = None) -> TruncatedUEA:
    adapted = adapted or g.adapted_basis()
    return TruncatedUEA(adapted.algebra, adapted.weights, adapted.nilpotency_class)


def _reversed_model(g: LieAlgebra, adapted: AdaptedBasis):
    """Full truncated UEA over the layer-reversed adapted basis.

    Returns (uea, central ids, basis matrix, basis inverse); basis vector t of
    the model is row t of the basis matrix, in original coordinates.
    """
    perm = _reverse_layers(adapted.weights)
    algebra = _permuted_algebra(adapted.algebra, perm)
    basis_matrix = tuple(adapted.matrix[p] for p in perm)
    inv_positions = {old: new for new, old in enumerate(perm)}
    central_ids = tuple(
        sorted(inv_positions[k] for k, z in enumerate(adapted.central_flags) if z)
    )
    basis_inverse = _invert_rows(basis_matrix, g.field)
    uea = TruncatedUEA(algebra, adapted.weights, adapted.nilpotency_class)
    return uea, central_ids, basis_matrix, basis_inverse


def _module_matrices(uea: TruncatedUEA) -> list:
    """Minus the right multiplication by each basis vector, on the active span."""
    fld = uea.field
    neg_one = fld.neg(fld.one)
    return [uea.right_action_matrix(i).scaled(neg_one) for i in range(uea.algebra.dim)]


def build_pruned_module(g: LieAlgebra, adapted: Optional[AdaptedBasis] = None) -> PrunedModule:
    """Enumerate monomials of weight <= c and prune; reproduces the table dimensions."""
    adapted = adapted or g.adapted_basis()
    uea, central_ids, basis_matrix, basis_inverse = _reversed_model(g, adapted)
    state = prune(initial_prune_state(uea, central_ids))
    restricted = uea.restrict(sorted(state.active))
    return PrunedModule(
        g,
        adapted,
        restricted,
        state,
        central_ids,
        basis_matrix,
        basis_inverse,
        _module_matrices(restricted),
    )


def regular_unpruned(g: LieAlgebra) -> Representation:
    """The faithful module on all monomials of weight <= c, without pruning."""
    uea, _central_ids, _basis_matrix, basis_inverse = _reversed_model(g, g.adapted_basis())
    per_basis = _module_matrices(uea)
    mats = [lincomb(g.field, basis_inverse[l], per_basis) for l in range(g.dim)]
    return Representation(
        g,
        mats,
        {"algorithm": "regular_unpruned", "dim": len(uea.monomials), "side": "right"},
    )


def algorithm_regular(g: LieAlgebra, module: Optional[PrunedModule] = None) -> Representation:
    """Regular: enumerate monomials of weight <= c, then prune."""
    module = module or build_pruned_module(g)
    mats = module.to_original_basis(module.module_matrices)
    return Representation(
        module.algebra,
        mats,
        {
            "algorithm": "regular",
            "dim": module.dim,
            "unpruned_dim": len(module.uea.monomials),
            "removed": len(module.state.removed),
            "side": "right",
        },
    )

"""Algorithm Regular: the truncated-enveloping-algebra module and its pruning.

The unpruned module is spanned by all PBW monomials of weight at most the
nilpotency class c.  Those of weight c and degree two or more are never
enumerated (``uea``'s module docstring says why), but provenance's
``unpruned_dim`` and ``removed`` still count them.  Pruning moves a monomial
a (never 1 and never a central generator) to the discard set whenever the
product of a with every generator lies in the discarded span.  Every term of
a * x_i has weight above w(a), and monomial ids are ordered by weight first,
so one pass from the highest id down has already decided every monomial a
product can reach.

The monomial model is the one whose pruned dimensions reproduce the
published tables: PBW products over the reversed basis order (weight
descending, original index order inside a weight layer).  Reversing products
identifies that module with minus-right multiplication on ascending monomials
of the layer-reversed adapted basis, which is how it is computed here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .liealg import AdaptedBasis, LieAlgebra
from .linalg import lincomb
from .representation import Representation
from .uea import TruncatedUEA


# ---------------------------------------------------------------------------
# pruning


class PruneState(NamedTuple):
    """Active/discarded split of the monomial basis after pruning."""

    active: tuple  # ascending monomial ids
    removed: list  # monomial ids in removal order


def prune(uea: TruncatedUEA, central_ids, products: list) -> PruneState:
    """Remove monomials of ``uea`` in one pass from the highest id down; the
    unit and the central generators ``central_ids`` are protected.

    ``products`` holds every monomial * generator product, one row per
    monomial (``TruncatedUEA.right_products``: a bare id or a dict keyed by
    ids); a monomial goes when no product in its row hits a monomial still
    active."""
    protected = {uea.unit} | {uea.degree_one_mid(k) for k in central_ids}
    active = set(range(len(uea.monomials)))
    removed = []
    for mid in reversed(range(len(uea.monomials))):
        if mid not in protected and all(
            p not in active if type(p) is int else active.isdisjoint(p)
            for p in products[mid].values()
        ):
            active.discard(mid)
            removed.append(mid)
    return PruneState(tuple(sorted(active)), removed)


# ---------------------------------------------------------------------------
# module construction


class PrunedModule(NamedTuple):
    """Shared result of Regular's pruning, reused by Dual.

    Basis vector t of the model is adapted basis vector perm[t], with perm
    reversing every weight layer; ``basis_inverse[l]`` holds the coordinates
    of original basis vector l on the model basis as a sparse row.  The module
    is spanned by the ascending monomial ids ``state.active`` of ``uea``, and
    ``right_matrices[t]`` is the right multiplication by basis vector t on
    that span.  The module action is minus the right multiplication, so
    Regular combines these matrices with negated inverse rows, and Dual's
    contragredient matrices are their plain transposes.
    """

    algebra: LieAlgebra
    uea: TruncatedUEA
    state: PruneState
    central_ids: tuple
    basis_inverse: tuple
    right_matrices: list

    @property
    def dim(self) -> int:
        return len(self.state.active)


def _reverse_layers(weights) -> list:
    """Permutation reversing the order inside every weight layer of the
    non-decreasing ``weights``."""
    return sorted(range(len(weights)), key=lambda k: (weights[k], -k))


def _reversed_model(adapted: AdaptedBasis) -> tuple:
    """The algebra in the layer-reversed adapted basis.

    Returns (algebra, central ids, basis inverse); basis vector t of the model is
    adapted basis vector perm[t].  The model table is the adapted one
    relabelled, negated where a pair turns around inside a layer.  The model
    basis matrix is P A for the permutation matrix P of perm, so its inverse
    A^-1 P^T is the adapted inverse with column perm[t] moved to t.
    """
    fld = adapted.algebra.field
    perm = _reverse_layers(adapted.weights)
    inv_positions = {old: new for new, old in enumerate(perm)}
    table = {}
    for (i, j), terms in adapted.algebra.table.items():
        a, b = inv_positions[i], inv_positions[j]
        entry = {inv_positions[k]: c for k, c in terms.items()}
        if a < b:
            table[(a, b)] = entry
        else:
            table[(b, a)] = {k: fld.neg(c) for k, c in entry.items()}
    algebra = LieAlgebra(fld, len(perm), dict(sorted(table.items())))
    central_ids = tuple(
        sorted(inv_positions[k] for k, z in enumerate(adapted.central_flags) if z)
    )
    basis_inverse = tuple(
        {inv_positions[s]: x for s, x in row.items()} for row in adapted.inverse
    )
    return algebra, central_ids, basis_inverse


def _module_action(fld, basis_inverse, right_matrices) -> list:
    """The module action of every original basis vector: the inverse rows,
    negated, combine the right multiplications."""
    return [
        lincomb(fld, {t: fld.neg(c) for t, c in row.items()}, right_matrices)
        for row in basis_inverse
    ]


def build_pruned_module(g: LieAlgebra, adapted: Optional[AdaptedBasis] = None) -> PrunedModule:
    """Enumerate monomials of weight <= c and prune; reproduces the table dimensions.
    Raises ValueError when ``adapted`` was built for another algebra."""
    adapted = adapted or g.adapted_basis()
    if adapted.source != g:
        raise ValueError("adapted basis was built for another algebra")
    algebra, central_ids, basis_inverse = _reversed_model(adapted)
    uea = TruncatedUEA(algebra, adapted.weights, adapted.nilpotency_class)
    products = uea.right_products()
    state = prune(uea, central_ids, products)
    right = uea.right_action_matrices(products, state.active)
    return PrunedModule(g, uea, state, central_ids, basis_inverse, right)


def algorithm_regular(g: LieAlgebra, module: Optional[PrunedModule] = None) -> Representation:
    """Regular: enumerate monomials of weight <= c, then prune."""
    module = module or build_pruned_module(g)
    if module.algebra != g:
        raise ValueError("module was built for another algebra")
    mats = _module_action(module.algebra.field, module.basis_inverse, module.right_matrices)
    return Representation(
        module.algebra,
        mats,
        {
            "algorithm": "regular",
            "dim": module.dim,
            # the skipped top-layer monomials count as enumerated and pruned
            "unpruned_dim": len(module.uea.monomials) + module.uea.skipped,
            "removed": len(module.state.removed) + module.uea.skipped,
            "side": "right",
        },
    )

"""Algorithm Dual: spin the center-dual functionals inside U(g)*.

Every functional in the submodule generated by the psi_i vanishes on the
discarded monomials and on everything of weight above the class, so a
functional is stored as its value vector on Regular's active monomial set A.
The action on functionals is the contragredient of the module action:
x . f = -(action of x)^T f.  The module action of x is minus the right
multiplication by x, so this is the transposed right multiplication,
(x.f)(a) = f(a x).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .liealg import LieAlgebra
from .linalg import SparseMatrix, Subspace, lincomb
from .regular import PrunedModule, build_pruned_module
from .representation import Representation


def dual_action_matrices(module: PrunedModule) -> list:
    """Contragredient matrices, one per (layer-ordered) adapted basis vector."""
    return [mat.transpose() for mat in module.right_matrices]


def center_dual_generators(module: PrunedModule) -> list:
    """psi_i: value 1 on the degree-one monomial of the i-th central generator."""
    gens = []
    uea = module.uea
    pos = {mid: p for p, mid in enumerate(module.active)}
    for k in module.central_ids:
        mid = uea.degree_one_mid(k)
        if mid not in pos:
            raise RuntimeError("central generator monomial was pruned")
        gens.append({pos[mid]: uea.field.one})
    return gens


def spin_submodule(module: PrunedModule, generators: list) -> Subspace:
    """Closure of the generators under all basis-vector actions, echelonised.

    A vector that enlarges the span is queued as a multiple of its residual
    against it, the new basis row in primitive form (over Q an integer
    vector); the queued rows span the submodule, so only their images are
    sifted in turn.
    """
    duals = dual_action_matrices(module)
    basis = Subspace(module.algebra.field, module.dim)
    queue = deque()

    def sift(vec):
        piv = basis.add(vec)
        if piv is not None:
            queue.append(basis.primitive_row(piv))

    for gen in generators:
        sift(gen)
    while queue:
        f = queue.popleft()
        for mat in duals:
            img = mat.apply_sparse(f)
            if img:
                sift(img)
    return basis


def algorithm_dual(g: LieAlgebra, module: Optional[PrunedModule] = None) -> Representation:
    """Dual: prune as in Regular, then spin psi_1..psi_r and read off the action."""
    module = module or build_pruned_module(g)
    fld = g.field
    basis = spin_submodule(module, center_dual_generators(module))
    k = basis.dim
    duals = dual_action_matrices(module)
    pos = {pc: t for t, pc in enumerate(basis.pivots)}
    per_basis = []
    for mat in duals:
        cols = {}
        for b, row in enumerate(basis.sparse.values()):
            img = mat.apply_sparse(row)
            if basis.reduce(img):
                raise RuntimeError("spin closure failed")
            col = {pos[j]: v for j, v in img.items() if j in pos}
            if col:
                cols[b] = col
        per_basis.append(SparseMatrix(fld, k, k, cols))
    mats = [lincomb(fld, row, per_basis) for row in module.basis_inverse]
    return Representation(
        g,
        mats,
        {
            "algorithm": "dual",
            "dim": k,
            "active_monomials": module.dim,
            "side": "right",
        },
    )

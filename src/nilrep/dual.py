"""Algorithm Dual: spin the center-dual functionals inside U(g)*.

Every functional in the submodule generated by the psi_i vanishes on the
discarded monomials and on everything of weight above the class, so a
functional is stored as its value vector on Regular's active monomial set A.
The action on functionals is the contragredient of the module action:
x . f = -(action of x)^T f.  The module action of x is minus the right
multiplication by x, so this is exactly (x.f)(a) = f(a x).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .liealg import LieAlgebra
from .linalg import SparseEliminator, SparseMatrix, Subspace
from .regular import PrunedModule, build_pruned_module
from .representation import Representation


def dual_action_matrices(module: PrunedModule) -> list:
    """Contragredient matrices, one per (layer-ordered) adapted basis vector."""
    fld = module.algebra.field
    neg_one = fld.neg(fld.one)
    return [mat.transpose().scaled(neg_one) for mat in module.module_matrices]


def center_dual_generators(module: PrunedModule) -> list:
    """psi_i: value 1 on the degree-one monomial of the i-th central generator."""
    gens = []
    uea = module.uea
    pos = {mid: p for p, mid in enumerate(uea.active)}
    for k in module.central_ids:
        mid = uea.degree_one_mid(k)
        if mid not in pos:
            raise RuntimeError("central generator monomial was pruned")
        gens.append({pos[mid]: uea.field.one})
    return gens


def spin_submodule(module: PrunedModule, generators: list) -> Subspace:
    """Closure of the generators under all basis-vector actions, echelonised."""
    fld = module.algebra.field
    n = module.dim
    duals = dual_action_matrices(module)
    elim = SparseEliminator(fld, n)
    queue = deque()
    for gen in generators:
        piv = elim.add(dict(gen))
        if piv is not None:
            queue.append(dict(elim.pivot_rows[piv]))
    while queue:
        f = queue.popleft()
        for mat in duals:
            img = mat.apply_sparse(f)
            if not img:
                continue
            piv = elim.add(img)
            if piv is not None:
                queue.append(dict(elim.pivot_rows[piv]))
    return elim.row_space()


def algorithm_dual(g: LieAlgebra, module: Optional[PrunedModule] = None) -> Representation:
    """Dual: prune as in Regular, then spin psi_1..psi_r and read off the action."""
    module = module or build_pruned_module(g)
    fld = g.field
    basis = spin_submodule(module, center_dual_generators(module))
    k = basis.dim
    duals = dual_action_matrices(module)
    per_basis = []
    for mat in duals:
        cols = {}
        for b, row in enumerate(basis.rows):
            img = mat.apply_dense(row)
            resid = basis.reduce(img)
            if any(x != 0 for x in resid):
                raise RuntimeError("spin closure failed")
            col = {}
            for t, pc in enumerate(basis.pivots):
                v = img[pc]
                if v != 0:
                    col[t] = v
            if col:
                cols[b] = col
        per_basis.append(SparseMatrix(fld, k, k, cols))
    mats = module.to_original_basis(per_basis)
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

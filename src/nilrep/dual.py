"""Algorithm Dual: spin the center-dual functionals inside U(g)*.

Every functional in the submodule generated by the psi_i vanishes on the
discarded monomials and on everything of weight above the class, so a
functional is stored as its value vector on Regular's active monomial set A.
The action on functionals is the contragredient of the module action:
x . f = -(action of x)^T f.  The module action of x is minus the right
multiplication by x, so this is the transposed right multiplication,
(x.f)(a) = f(a x).

Both the spin and the read-off run on ints.  ``Field.integral_maps`` scales
each transpose R_i^T by the lcm lambda_i of its denominators; an image then
spans the same line, so the spin's pivots, queue and subspace are those of
the rational action.
The read-off applies the integer transposes to the stored primitive basis
rows and divides each coordinate once by lambda_i times the row's pivot
entry (``Field.divided``; over F_p both are 1).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .liealg import LieAlgebra
from .linalg import SparseMatrix, Subspace, lincomb
from .regular import PrunedModule, build_pruned_module
from .representation import Representation


def dual_action_matrices(module: PrunedModule) -> list:
    """``(lambda_i R_i^T, lambda_i)`` for each right multiplication R_i, one
    per (layer-ordered) adapted basis vector: the contragredient matrices
    scaled to integers by ``Field.integral_maps`` (mod p over F_p, where
    lambda_i = 1)."""
    out = []
    for mat in module.right_matrices:
        tr = mat.transpose()
        (tr.cols,), lam = tr.field.integral_maps([tr.cols])
        out.append((tr, lam))
    return out


def center_dual_generators(module: PrunedModule) -> list:
    """psi_i: value 1 on the degree-one monomial of the i-th central generator."""
    gens = []
    uea = module.uea
    pos = {mid: p for p, mid in enumerate(module.state.active)}
    for k in module.central_ids:
        mid = uea.degree_one_mid(k)
        if mid not in pos:
            raise RuntimeError("central generator monomial was pruned")
        gens.append({pos[mid]: uea.field.one})
    return gens


def spin_submodule(module: PrunedModule, generators: list, duals: list) -> Subspace:
    """Closure of the generators under all basis-vector actions, echelonised.

    A vector that enlarges the span is queued as a multiple of its residual
    against it, the new basis row in primitive form (over Q an integer
    vector); the queued rows span the submodule, so only their images are
    sifted in turn, under the integer actions ``duals = dual_action_matrices(module)``.
    """
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
        for mat, _lam in duals:
            img = mat.apply_sparse(f)
            if img:
                sift(img)
    return basis


def algorithm_dual(g: LieAlgebra, module: Optional[PrunedModule] = None) -> Representation:
    """Dual: prune as in Regular, then spin psi_1..psi_r and read off the action."""
    module = module or build_pruned_module(g)
    if module.algebra != g:
        raise ValueError("module was built for another algebra")
    fld = g.field
    duals = dual_action_matrices(module)
    basis = spin_submodule(module, center_dual_generators(module), duals)
    k = basis.dim
    pivots = basis.pivots
    pos = {pc: t for t, pc in enumerate(pivots)}
    rows = [(basis.primitive_row(pc), pc) for pc in pivots]
    per_basis = []
    for mat, lam in duals:
        cols = {}
        for b, (row, pc) in enumerate(rows):
            img = mat.apply_sparse(row)
            if not img:
                continue
            if basis.reduce(img):
                raise RuntimeError("spin closure failed")
            # img is lam * row[pc] times the canonical row's image
            col = fld.divided({pos[j]: v for j, v in img.items() if j in pos}, lam * row[pc])
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

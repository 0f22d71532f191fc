"""Algorithm Quotient: iterated reduction V -> V/W of a faithful module.

Each round computes S (vectors killed by all of g), C (image of the center),
M = S ∩ C and a deterministic complement W of M in S; the module is replaced
by V/W, realised concretely on the greedily-kept coordinate subset, until
W = 0.  Faithfulness survives because the center still acts faithfully on the
quotient.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .liealg import LieAlgebra
from .linalg import SparseEliminator, SparseMatrix, Subspace, complement_in, intersect
from .regular import PrunedModule, algorithm_regular
from .representation import Representation, annihilated_subspace, center_image


def reduce_once(rep: Representation) -> Tuple[Representation, Subspace]:
    """One S/C/M/W round; returns the reduced representation and W (W = 0 at the fixpoint)."""
    fld = rep.field
    n = rep.dim
    S = annihilated_subspace(rep)
    C = center_image(rep)
    M = intersect(S, C)
    W = complement_in(M, S)
    if W.dim == 0:
        return rep, W
    # Deterministic complement of W in V: keep the standard basis vectors that
    # stay independent, in index order.
    elim = SparseEliminator(fld, n)
    for row in W.sparse.values():
        elim.add(row)
    kept = []
    for k in range(n):
        if elim.add({k: fld.one}) is not None:
            kept.append(k)
    kept_pos = {k: t for t, k in enumerate(kept)}
    dropped = [j for j in range(n) if j not in kept_pos]
    if len(dropped) != W.dim:
        raise RuntimeError("kept coordinates do not complement W")
    # Projection along span{e_k : k kept}: R_J X = R_K, where R is the basis
    # of W and J/K split its columns into dropped/kept.  With the columns
    # ordered (dropped, kept) the RREF of R is [I | X].
    nd = len(dropped)
    col = {j: t for t, j in enumerate(dropped + kept)}
    proj = SparseEliminator(fld, n)
    for row in W.sparse.values():
        proj.add({col[j]: x for j, x in row.items()})
    if sorted(proj.pivot_rows) != list(range(nd)):
        raise RuntimeError("W has no coordinate complement")
    proj_rows = [
        {t - nd: v for t, v in proj.pivot_rows[i].items() if t >= nd} for i in range(nd)
    ]
    dropped_pos = {j: t for t, j in enumerate(dropped)}
    p = fld.characteristic
    new_mats = []
    for mat in rep.matrices:
        cols = {}
        for k in kept:
            col = mat.cols.get(k)
            if not col:
                continue
            out: dict = {}
            for r, val in col.items():
                if r in kept_pos:
                    out[kept_pos[r]] = out.get(kept_pos[r], 0) + val
                else:
                    for t, pv in proj_rows[dropped_pos[r]].items():
                        out[t] = out.get(t, 0) - val * pv
            if p:
                out = {t: v % p for t, v in out.items() if v % p}
            else:
                out = {t: v for t, v in out.items() if v != 0}
            if out:
                cols[kept_pos[k]] = out
        new_mats.append(SparseMatrix(fld, len(kept), len(kept), cols))
    new_rep = Representation(
        rep.algebra,
        new_mats,
        dict(rep.provenance, algorithm="quotient_step"),
    )
    return new_rep, W


def algorithm_quotient(
    g: LieAlgebra,
    module: Optional[PrunedModule] = None,
    regular_rep: Optional[Representation] = None,
) -> Representation:
    """Quotient: run Regular, then reduce V -> V/W until W = 0."""
    rep = regular_rep or algorithm_regular(g, module=module)
    w_dims = []
    while True:
        new_rep, W = reduce_once(rep)
        if W.dim == 0:
            break
        if new_rep.dim >= rep.dim:
            raise RuntimeError("quotient round did not shrink the module")
        w_dims.append(W.dim)
        rep = new_rep
    rep.provenance = {
        "algorithm": "quotient",
        "dim": rep.dim,
        "regular_dim": rep.dim + sum(w_dims),
        "w_dims": w_dims,
    }
    return rep
